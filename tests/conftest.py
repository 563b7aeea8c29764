import importlib.util
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# the checkout's package is the fallback: an installed one or a PYTHONPATH
# entry that holds one is imported instead
if importlib.util.find_spec("toughlab") is None:
    sys.path.append(str(Path(__file__).parents[1] / "src"))

from toughlab import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


@pytest.fixture(scope="session")
def petersen() -> Graph:
    return petersen_graph()


@pytest.fixture(scope="session")
def c4() -> Graph:
    return cycle_graph(4)


@pytest.fixture(scope="session")
def k4() -> Graph:
    return complete_graph(4)


@pytest.fixture(scope="session")
def claw() -> Graph:
    """The star with three leaves, center vertex 0."""
    return star_graph(3)


@pytest.fixture(scope="session")
def p3() -> Graph:
    return path_graph(3)
