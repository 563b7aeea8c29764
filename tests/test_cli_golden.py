"""Golden CLI output: sha256 of stdout and the exit code for fixed corpora.

Pins the exact record stream of every subcommand (which graphs get
violation and interesting records, every bound value, every certificate)
so refactors can prove they changed nothing.  For ``verify`` the digest of
the sorted stdout lines is pinned as well: it holds the record multiset
fixed whatever order the records are printed in.
``python tests/test_cli_golden.py`` prints the current digests for a
deliberate output change.
"""

import contextlib
import hashlib
import io
import itertools
import random
import sys

import pytest

from toughlab.cli import main
from toughlab.formats import enumerate_labeled, write_edge_list, write_graph6
from toughlab.graphs import Graph, cycle_graph, is_connected, petersen_graph


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


CORPORA = {
    "all-5": lambda: _lines([5], False),
    "all-le4": lambda: _lines(range(1, 5), False),
    "conn-le5": lambda: _lines(range(1, 6), True),
    "conn-2to5": lambda: _lines(range(2, 6), True),
    "petersen-edges": lambda: write_edge_list(petersen_graph()),
    "sample-7": _sample7_lines,
    "none": lambda: "",
}

# (argv, corpus) -> (exit code, sha256 of stdout)
GOLDEN = {
    (("verify",), "all-5"): (0, "977005d70ec343c5947dd97f5aec02bdb27771f052853ce5c14df7d82f0077e9"),
    (("verify", "--checks", "all"), "all-le4"): (0, "48a839fd852bc912ceadd140c00057ed2a54dcf11f4ab24db44813756a4a4d36"),
    (("verify", "--checks", "all", "--jobs", "2"), "all-le4"): (0, "48a839fd852bc912ceadd140c00057ed2a54dcf11f4ab24db44813756a4a4d36"),
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"): (1, "7b2fed727d346994a3501e90f23bd7d93fb7de98a7ac9223c17cdd4824a4dc6f"),
    (("verify", "--checks", "tough-lower,cut-partition"), "all-5"): (0, "27abe4fae213acb17a47bb023c55a9c8abf86fed4e3b57a32cab2f92d80f1e1d"),
    (("bounds",), "conn-le5"): (0, "5205b2ef8ebf2e7fb3bffb036d94a7c988ca170d9225fac8e863ef8b91ca51c1"),
    (("bounds", "--csv"), "conn-le5"): (0, "d603aa7757d9d38a791f54b24a8b46865f8c55a178cf5ba81873fa217845b35f"),
    (("extremal",), "conn-le5"): (0, "cfe264bc41607e6dbc556b0f2a8b582695ec65ba8f12e024f67edde0f97a6b0d"),
    (("tough",), "conn-2to5"): (0, "62c5ace1ae9f35312c0cabbf75fd7b451b094a516ad44f28f250fc718d22456d"),
    (("kappa",), "conn-2to5"): (0, "9ab9eb411f813ee6e69b5df4caf96d41f604f289b02e81c3a24476f6705af9ce"),
    (("spectra",), "conn-2to5"): (0, "6bce4efd20c0ef5bada8ccb8f5d22368d0da047ea1d72fb8e93cdbac2f3284eb"),
    (("spectra", "--table"), "conn-2to5"): (0, "e7c3be37fdd25b4d5ad27fabf789f1cc283c3433947113c296e7c0fea27b8ecb"),
    (("alpha",), "all-le4"): (0, "007278ecb280013572716b2d48d6ba8dfe022bb9bceec6476cbcce1bd6e060d1"),
    (("gen", "--n", "5"), "none"): (0, "4ac9156f6af83aee1229b9eb4bd9cd3427c1fe25a0d0eb9f642eb054b3e857b0"),
    (("gen", "--n", "5", "--connected"), "none"): (0, "ef02b50d51d63e411f9036bb8042acbf9c1035b29aefc909246d366bfb9e6ff3"),
    (("verify", "--gen", "5", "--connected"), "none"): (0, "977005d70ec343c5947dd97f5aec02bdb27771f052853ce5c14df7d82f0077e9"),
    (("extremal", "--h-graph6", "A_", "--n", "5"), "none"): (0, "47a52d2c2e7d554bcea3d80c2e7b8d28f96f460b2bd4e463cbf78910d1c5ea3a"),
    (("extremal", "--h-graph6", "Bw", "--n", "6", "--table"), "none"): (0, "09ed204d7ab949956a22b6ebe4f14aab3892693d5ceb6ffbb3d2677bb16aed4d"),
    (("tough", "--format", "edges"), "petersen-edges"): (0, "c352397627b0d1f61a2989884e8ca41a9e3f63db7119d84f602bf7b9805cb108"),
    (("bounds", "--format", "edges", "--table"), "petersen-edges"): (0, "6338e6ae74086ee0e62bf5e82af73785f04126f69879fb7ad463878e19748fc8"),
    (("verify",), "sample-7"): (0, "82ee3bac04d6dd676a442807cb4eb2a1dca1a987fd10913bba3bdc65fdd4511f"),
    (("bounds",), "sample-7"): (0, "41aae9bb37a6393e73df3273e44312943642257df6a52fcdc7a315cd7532c0fb"),
    (("spectra",), "sample-7"): (0, "d458ecea3439679925d355832407bcc9cf3a698086be5495e59b1b568cb1de0e"),
}

# verify entries: sha256 of the sorted stdout lines
SORTED_GOLDEN = {
    (("verify",), "all-5"): "180e3fbcecbcbac8d89adfc0d6f4117b7cb704cdecbf878fe81bd7babad2ec3d",
    (("verify", "--checks", "all"), "all-le4"): "d5cfe16a178ccfce0e52b92ea25e193a930231349d5bd37174c0d0aeec87cac6",
    (("verify", "--checks", "all", "--jobs", "2"), "all-le4"): "d5cfe16a178ccfce0e52b92ea25e193a930231349d5bd37174c0d0aeec87cac6",
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"): "8390593ecdf884f5bf1e0afa91ee24b0cc51a6bea6aa456b12b2ead99955a15f",
    (("verify", "--checks", "tough-lower,cut-partition"), "all-5"): "38bf4ae1aaad85d5c83f1dc56aaa4064d51d1c5cd9bc0c931cd47bd8282a3906",
    (("verify", "--gen", "5", "--connected"), "none"): "180e3fbcecbcbac8d89adfc0d6f4117b7cb704cdecbf878fe81bd7babad2ec3d",
    (("verify",), "sample-7"): "0d03fef82fc6cc3934d73cd8c6be699f7e347ebe7f22d9d1e1d5bcbd90e392b2",
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


if __name__ == "__main__":
    outputs = {key: run(*key) for key in GOLDEN}
    for (argv, corpus), (code, out) in outputs.items():
        print(f"    ({argv!r}, {corpus!r}): {(code, sha256(out))!r},")
    print()
    for (argv, corpus), (code, out) in outputs.items():
        if argv[0] == "verify":
            print(f"    ({argv!r}, {corpus!r}): {sorted_lines_sha256(out)!r},")
