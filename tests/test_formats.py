"""graph6 / edge-list interchange and corpus generation."""

import itertools
import random

import pytest

from toughlab import (
    FormatError,
    Graph,
    complete_graph,
    enumerate_labeled,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)

from _oracles import connected_labeled_count


def test_parse_known_records(c4):
    assert parse_graph6("C~") == complete_graph(4)
    assert parse_graph6("@") == complete_graph(1)
    assert parse_graph6("Cl") == Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert parse_graph6("Cl") == c4


def test_parse_optional_header():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)


def test_write_known_records(k4):
    assert write_graph6(complete_graph(1)) == "@"
    assert write_graph6(k4) == "C~"


def test_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for g in enumerate_labeled(n):
            assert parse_graph6(write_graph6(g)) == g


def test_roundtrip_random_up_to_word_budget():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 30)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_63_and_64_vertices_round_trip_in_the_long_form():
    rng = random.Random(64)
    for n, header in ((63, "~??~"), (64, "~?@?")):
        for p in (0.0, 0.5, 1.0):
            edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
            g = Graph.from_edges(n, edges)
            s = write_graph6(g)
            assert s.startswith(header) and len(s) == 4 + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(s) == g


def test_parse_errors_are_distinct():
    with pytest.raises(FormatError, match="invalid graph6 character"):
        parse_graph6("C!")
    with pytest.raises(FormatError, match="truncated"):
        parse_graph6("D~")
    with pytest.raises(FormatError, match="long-form"):
        parse_graph6("~??")
    with pytest.raises(FormatError, match="trailing"):
        parse_graph6("C~~")
    with pytest.raises(FormatError, match="empty"):
        parse_graph6("   ")
    with pytest.raises(FormatError, match="padding"):
        parse_graph6("Bx")  # Bw with a nonzero padding bit
    with pytest.raises(FormatError, match="short form is canonical"):
        parse_graph6("~??}" + "?" * 315)  # 62 vertices in the long form
    with pytest.raises(FormatError, match="declares 65 vertices, maximum is 64"):
        parse_graph6("~?@@" + "?" * 347)
    with pytest.raises(FormatError, match="declares over 64 vertices"):
        parse_graph6("~~??????")


def test_near_graph6_records_are_rejected_or_canonical():
    # mutate valid records; whatever parses must round-trip to the same text
    rng = random.Random(6)
    for _ in range(20000):
        n = rng.randint(0, 12)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        chars = list(write_graph6(Graph.from_edges(n, edges)))
        pos = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0 and pos < len(chars):
            chars[pos] = chr(rng.randint(60, 128))
        elif edit == 1:
            chars.insert(pos, chr(rng.randint(63, 126)))
        elif pos < len(chars):
            del chars[pos]
        s = "".join(chars)
        try:
            g = parse_graph6(s)
        except FormatError:
            continue
        g.validate()
        assert write_graph6(g) == s


def test_edge_list_parsing():
    assert parse_edge_list("2\n0 1") == complete_graph(2)
    c4 = parse_edge_list("4\n0 1\n1 2\n2 3\n3 0")
    assert c4 == parse_graph6("Cl")
    dup = parse_edge_list("3\n0 1\n1 0")
    assert dup.m == 1


def test_edge_list_errors():
    with pytest.raises(FormatError, match="out of range"):
        parse_edge_list("2\n0 5")
    with pytest.raises(FormatError, match="self-loop"):
        parse_edge_list("3\n1 1")
    with pytest.raises(FormatError, match="malformed"):
        parse_edge_list("3\n0 x")
    with pytest.raises(FormatError, match="odd"):
        parse_edge_list("3\n0 1 2")
    with pytest.raises(FormatError, match="not an integer"):
        parse_edge_list("zzz")


def test_edge_list_fuzz_raises_format_error_or_validates():
    rng = random.Random(4242)
    tokens = ["0", "1", "2", "3", "5", "7", "-1", "62", "64", "65", "100",
              "x", "1.5", "0x3", "+2", "1_0", "", "\t"]
    for _ in range(20000):
        if rng.random() < 0.5:
            n = rng.randint(0, 6)
            words = [str(n)] + [str(rng.randint(0, max(n - 1, 0))) for _ in range(2 * rng.randint(0, 6))]
            for _ in range(rng.randint(0, 2)):
                words.insert(rng.randint(0, len(words)), rng.choice(tokens))
        else:
            words = [rng.choice(tokens) for _ in range(rng.randint(0, 9))]
        text = rng.choice((" ", "\n")).join(words)
        try:
            g = parse_edge_list(text)
        except FormatError:
            continue
        g.validate()
        assert g.n == int(text.split()[0])


def test_enumeration_counts_match_recurrence():
    expected = {1: 1, 3: 4, 4: 38}
    for n, want in expected.items():
        assert sum(1 for _ in enumerate_labeled(n, connected_only=True)) == want
    for n in range(1, 6):
        got = sum(1 for _ in enumerate_labeled(n, connected_only=True))
        assert got == connected_labeled_count(n)


def test_enumeration_is_deterministic_and_filtered():
    first = [write_graph6(g) for g in enumerate_labeled(4, connected_only=True)]
    second = [write_graph6(g) for g in enumerate_labeled(4, connected_only=True)]
    assert first == second
    assert all(is_connected(parse_graph6(s)) for s in first)
    full = sum(1 for _ in enumerate_labeled(4))
    assert full == 64


def test_enumeration_rejects_out_of_range():
    # at the call, before any graph is pulled
    with pytest.raises(ValueError):
        enumerate_labeled(0)
    with pytest.raises(ValueError):
        enumerate_labeled(8, connected_only=True)


def test_enumeration_is_pull_based_at_the_top_size():
    # pulling a few records from the 2**21-mask stream must be instant
    import itertools as it
    head = list(it.islice(iter(enumerate_labeled(7, connected_only=True)), 3))
    assert len(head) == 3
    assert all(g.n == 7 and is_connected(g) for g in head)

