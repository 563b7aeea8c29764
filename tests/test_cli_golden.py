"""Golden CLI output: sha256 of stdout and the exit code for fixed corpora.

Pins the exact record stream of every subcommand (which graphs get
violation and interesting records, every bound value, every certificate)
so refactors can prove they changed nothing.  For ``verify`` the digest of
the sorted stdout lines is pinned as well: it holds the record multiset
fixed whatever order the records are printed in.
``python tests/test_cli_golden.py`` prints the current digests for a
deliberate output change.  The streams whose floats depend on the
eigensolver's rounding are also rebuilt with the Jacobi oracle in place of
the solver: only those floats may differ, each within 1e-12.  Three
streams are also produced under every other installed CPython >= 3.10,
which must give the same digests: the solver's bits do not depend on the
Python version.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import toughlab
from toughlab import spectra
from toughlab.cli import main
from toughlab.formats import enumerate_labeled, write_edge_list, write_graph6
from toughlab.graphs import Graph, cycle_graph, is_connected, petersen_graph

from _oracles import jacobi_eigenvalues


def _lines(ns, connected):
    return "".join(write_graph6(g) + "\n" for n in ns
                   for g in enumerate_labeled(n, connected_only=connected))


def _sample7_lines():
    """Connected graphs among 300 seeded 21-bit edge masks on 7 vertices,
    then Petersen and C12, so regular graphs reach the adjacency solve."""
    rng = random.Random(7)
    pairs = list(itertools.combinations(range(7), 2))
    graphs = []
    for _ in range(300):
        mask = rng.getrandbits(len(pairs))
        g = Graph.from_edges(7, [p for k, p in enumerate(pairs) if mask >> k & 1])
        if is_connected(g):
            graphs.append(g)
    graphs += [petersen_graph(), cycle_graph(12)]
    return "".join(write_graph6(g) + "\n" for g in graphs)


def _gnp_lines():
    """Three seeded G(9, 1/2) and one seeded G(10, 1/2): 2m reaches past the
    sizes the per-pair mixing reference can afford."""
    lines = []
    for n, count in ((9, 3), (10, 1)):
        rng = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(count):
            mask = rng.getrandbits(len(pairs))
            g = Graph.from_edges(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
            lines.append(write_graph6(g) + "\n")
    return "".join(lines)


CORPORA = {
    "all-5": lambda: _lines([5], False),
    "all-le4": lambda: _lines(range(1, 5), False),
    "conn-le5": lambda: _lines(range(1, 6), True),
    "conn-2to5": lambda: _lines(range(2, 6), True),
    "petersen-edges": lambda: write_edge_list(petersen_graph()),
    "sample-7": _sample7_lines,
    "gnp-9-10": _gnp_lines,
    "none": lambda: "",
}

# (argv, corpus) -> (exit code, sha256 of stdout)
GOLDEN = {
    (("verify",), "all-5"): (0, "f02f00fc2f044c058e279d31825aa116e379df0f0bc06eef628b941b990321ee"),
    (("verify", "--checks", "all"), "all-le4"): (0, "d351329e9340cace0c5089a57634191da6c9d9eb0b4444a1ac4fae7da100fede"),
    (("verify", "--checks", "all", "--jobs", "2"), "all-le4"): (0, "d351329e9340cace0c5089a57634191da6c9d9eb0b4444a1ac4fae7da100fede"),
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"): (1, "9ef0dbbc06dcd194559a02b006a2416be4b9daa78813bc886d882e3bd7417e0b"),
    (("verify", "--checks", "tough-lower,cut-partition"), "all-5"): (0, "27abe4fae213acb17a47bb023c55a9c8abf86fed4e3b57a32cab2f92d80f1e1d"),
    (("bounds",), "conn-le5"): (0, "24b3e5d9b65829941afeafb2ee08a28e563ad6697f62b321c8ee11bb6a8df46c"),
    (("bounds", "--csv"), "conn-le5"): (0, "166e4f713356770a77afacfce1b2193937ff3bbd509dd07f816ad2d273023edd"),
    (("extremal",), "conn-le5"): (0, "cfe264bc41607e6dbc556b0f2a8b582695ec65ba8f12e024f67edde0f97a6b0d"),
    (("tough",), "conn-2to5"): (0, "62c5ace1ae9f35312c0cabbf75fd7b451b094a516ad44f28f250fc718d22456d"),
    (("kappa",), "conn-2to5"): (0, "9ab9eb411f813ee6e69b5df4caf96d41f604f289b02e81c3a24476f6705af9ce"),
    (("spectra",), "conn-2to5"): (0, "54947daca2f2b494b4cb488f3b538dd7dc6edd307deca2037a04ab738ea8d26d"),
    (("spectra", "--table"), "conn-2to5"): (0, "e4af9d1a1ea330ee8001037bf2e55b16e8f318b666e195a28603de6e7e45a67e"),
    (("alpha",), "all-le4"): (0, "007278ecb280013572716b2d48d6ba8dfe022bb9bceec6476cbcce1bd6e060d1"),
    (("gen", "--n", "5"), "none"): (0, "4ac9156f6af83aee1229b9eb4bd9cd3427c1fe25a0d0eb9f642eb054b3e857b0"),
    (("gen", "--n", "5", "--connected"), "none"): (0, "ef02b50d51d63e411f9036bb8042acbf9c1035b29aefc909246d366bfb9e6ff3"),
    (("verify", "--gen", "5", "--connected"), "none"): (0, "f02f00fc2f044c058e279d31825aa116e379df0f0bc06eef628b941b990321ee"),
    (("extremal", "--h-graph6", "A_", "--n", "5"), "none"): (0, "47a52d2c2e7d554bcea3d80c2e7b8d28f96f460b2bd4e463cbf78910d1c5ea3a"),
    (("extremal", "--h-graph6", "Bw", "--n", "6", "--table"), "none"): (0, "09ed204d7ab949956a22b6ebe4f14aab3892693d5ceb6ffbb3d2677bb16aed4d"),
    (("tough", "--format", "edges"), "petersen-edges"): (0, "c352397627b0d1f61a2989884e8ca41a9e3f63db7119d84f602bf7b9805cb108"),
    (("bounds", "--format", "edges", "--table"), "petersen-edges"): (0, "6338e6ae74086ee0e62bf5e82af73785f04126f69879fb7ad463878e19748fc8"),
    (("verify",), "sample-7"): (0, "824cfdd3e652ed48e5cfdb95bcc6af2f3589296bcf51119c6c16aa4db8db7ccf"),
    (("bounds",), "sample-7"): (0, "d82adae4c61ef64c2e387997eddf6b738658168433b56dc04e48f8f7d0c10c29"),
    (("spectra",), "sample-7"): (0, "de71b2ca1fe9d22a4cdb743e83a3e91280ca74c2f5bad0bf4581976377384aec"),
    (("verify", "--checks", "mixing", "--tol", "-0.5"), "gnp-9-10"): (1, "6b8705146111222f8b13784565f390e42ea78f7ba9ec7cd7d6ff1a6705d234b6"),
}

# verify entries: sha256 of the sorted stdout lines
SORTED_GOLDEN = {
    (("verify",), "all-5"): "6f58a2d72b935835ac06a733fbd32079bb2fbe35fc46489867ced02da19f5830",
    (("verify", "--checks", "all"), "all-le4"): "a3e74b225f4952e39b974ef523e528d981f8916da9c67e2775329620b4c0f8f4",
    (("verify", "--checks", "all", "--jobs", "2"), "all-le4"): "a3e74b225f4952e39b974ef523e528d981f8916da9c67e2775329620b4c0f8f4",
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"): "1dca6e5082d3b0dc4436706efdf6f3292efaecbac5e875e189089d74763b2909",
    (("verify", "--checks", "tough-lower,cut-partition"), "all-5"): "38bf4ae1aaad85d5c83f1dc56aaa4064d51d1c5cd9bc0c931cd47bd8282a3906",
    (("verify", "--gen", "5", "--connected"), "none"): "6f58a2d72b935835ac06a733fbd32079bb2fbe35fc46489867ced02da19f5830",
    (("verify",), "sample-7"): "9efa2feb01201a9a513829d596ae38682c1a1f8fcbddd37de9823bfc0b0e1258",
}


def run(argv, corpus):
    """(exit code, stdout) of one CLI call on the corpus."""
    stdin, sys.stdin = sys.stdin, io.StringIO(CORPORA[corpus]())
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue()


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def sorted_lines_sha256(text):
    return sha256("".join(sorted(text.splitlines(keepends=True))))


def _ids(table):
    return [" ".join(argv) + " < " + corpus for argv, corpus in table]


@pytest.mark.parametrize("argv, corpus", list(GOLDEN), ids=_ids(GOLDEN))
def test_cli_output_is_unchanged(argv, corpus):
    code, out = run(argv, corpus)
    assert (code, sha256(out)) == GOLDEN[argv, corpus]


@pytest.mark.parametrize("argv, corpus", list(SORTED_GOLDEN), ids=_ids(SORTED_GOLDEN))
def test_verify_record_multiset_is_unchanged(argv, corpus):
    assert sorted_lines_sha256(run(argv, corpus)[1]) == SORTED_GOLDEN[argv, corpus]


# the JSON streams that print eigensolver floats on the golden corpora
SOLVER_FLOATS = [
    (("spectra",), "conn-2to5"),
    (("spectra",), "sample-7"),
    (("bounds",), "conn-le5"),
    (("bounds",), "sample-7"),
]


def assert_equal_but_floats(got, want, where):
    """Equal structure and non-float values; floats within 1e-12, relative
    to their magnitude or absolute below magnitude 1."""
    if type(got) is float and type(want) is float and got != want:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(got), abs(want)), (where, got, want)
    elif type(got) is list and type(want) is list:
        assert len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            assert_equal_but_floats(a, b, (where, i))
    elif type(got) is dict and type(want) is dict:
        assert list(got) == list(want), where
        for key in got:
            assert_equal_but_floats(got[key], want[key], (where, key))
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("argv, corpus", SOLVER_FLOATS, ids=_ids(SOLVER_FLOATS))
def test_only_solver_floats_differ_from_the_jacobi_oracle(monkeypatch, argv, corpus):
    code, out = run(argv, corpus)
    monkeypatch.setattr(spectra, "symmetric_eigenvalues", jacobi_eigenvalues)
    want_code, want = run(argv, corpus)
    assert code == want_code
    got, want = out.splitlines(), want.splitlines()
    assert len(got) == len(want) > 0
    for lineno, (a, b) in enumerate(zip(got, want), 1):
        assert_equal_but_floats(json.loads(a), json.loads(b), lineno)


def test_verify_records_move_only_on_the_tolerance_boundary(monkeypatch):
    """With --tol -0.5 some mixing and cut-partition sides sit exactly on
    lhs = rhs - 0.5, where the last bit of an eigenvalue decides the
    record; every record in only one of the two streams is such a case."""
    argv, corpus = ("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"

    def key(r):
        if r["kind"] == "interesting":
            return r["graph6"], r["tag"]
        return r["graph6"], r["check"], round(r["lhs"], 9), round(r["rhs"], 9)

    def records(out):
        """Records keyed with violation sides to 9 digits, and the raw sides."""
        raw = [json.loads(line) for line in out.splitlines()]
        return Counter(map(key, raw)), {key(r): (r.get("lhs"), r.get("rhs")) for r in raw}

    code, out = run(argv, corpus)
    monkeypatch.setattr(spectra, "symmetric_eigenvalues", jacobi_eigenvalues)
    want_code, want = run(argv, corpus)
    assert code == want_code == 1
    (got, got_sides), (want, want_sides) = records(out), records(want)
    moved = (got - want) + (want - got)
    assert sum(moved.values()) < sum(got.values()) // 100
    for k in moved:
        assert len(k) == 4, k  # interesting records never move
        lhs, rhs = got_sides.get(k) or want_sides[k]
        assert abs(lhs - rhs + 0.5) <= 1e-12, k


def _other_interpreters():
    """The installed CPython >= 3.10 interpreters other than this one.  A
    name on PATH may be a version-manager shim that cannot start, so each
    is asked for its version first."""
    found = []
    for name in ("python3.10", "python3.11", "python3.12", "python3.13"):
        path = shutil.which(name)
        if path is None:
            continue
        probe = subprocess.run([path, "-c", "import sys; print(*sys.version_info[:2])"],
                               capture_output=True, text=True)
        version = tuple(map(int, probe.stdout.split())) if probe.returncode == 0 else ()
        if (3, 10) <= version != sys.version_info[:2]:
            found.append(path)
    return found


# the streams whose bits are compared across Python versions
CROSS_VERSION = [
    (("spectra",), "conn-2to5"),
    (("bounds",), "conn-le5"),
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"),
]


@pytest.mark.parametrize("argv, corpus", CROSS_VERSION, ids=_ids(CROSS_VERSION))
def test_other_python_versions_give_the_same_output(argv, corpus):
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.10 is installed")
    # the child imports the package under test
    env = {**os.environ, "PYTHONPATH": str(Path(toughlab.__file__).resolve().parents[1])}
    for python in interpreters:
        child = subprocess.run([python, "-m", "toughlab", *argv], input=CORPORA[corpus](),
                               capture_output=True, text=True, env=env)
        assert (child.returncode, sha256(child.stdout)) == GOLDEN[argv, corpus], python


if __name__ == "__main__":
    outputs = {key: run(*key) for key in GOLDEN}
    for (argv, corpus), (code, out) in outputs.items():
        print(f"    ({argv!r}, {corpus!r}): {(code, sha256(out))!r},")
    print()
    for (argv, corpus), (code, out) in outputs.items():
        if argv[0] == "verify":
            print(f"    ({argv!r}, {corpus!r}): {sorted_lines_sha256(out)!r},")
