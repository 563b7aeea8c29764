"""Golden CLI output: sha256 of stdout and the exit code for fixed corpora.

Pins the exact record stream of every subcommand (which graphs get
violation and interesting records, every bound value, every certificate)
so refactors can prove they changed nothing.  ``python tests/test_cli_golden.py``
prints the current digests for a deliberate output change.
"""

import contextlib
import hashlib
import io
import sys

import pytest

from toughlab.cli import main
from toughlab.formats import enumerate_labeled, enumerate_labeled_connected, write_graph6


def _lines(ns, connected):
    enum = enumerate_labeled_connected if connected else enumerate_labeled
    return "".join(write_graph6(g) + "\n" for n in ns for g in enum(n))


CORPORA = {
    "all-5": lambda: _lines([5], False),
    "all-le4": lambda: _lines(range(1, 5), False),
    "conn-le5": lambda: _lines(range(1, 6), True),
    "conn-2to5": lambda: _lines(range(2, 6), True),
}

# (argv, corpus) -> (exit code, sha256 of stdout)
GOLDEN = {
    (("verify",), "all-5"): (0, "180e3fbcecbcbac8d89adfc0d6f4117b7cb704cdecbf878fe81bd7babad2ec3d"),
    (("verify", "--checks", "all"), "all-le4"): (0, "d5cfe16a178ccfce0e52b92ea25e193a930231349d5bd37174c0d0aeec87cac6"),
    (("verify", "--checks", "all", "--jobs", "2"), "all-le4"): (0, "d5cfe16a178ccfce0e52b92ea25e193a930231349d5bd37174c0d0aeec87cac6"),
    (("verify", "--checks", "all", "--tol", "-0.5"), "all-le4"): (1, "18e6f08e21af9b3c54bb26930db1d21d5897d87cb188059774239253eb7c6875"),
    (("verify", "--checks", "tough-lower,cut-partition"), "all-5"): (0, "38bf4ae1aaad85d5c83f1dc56aaa4064d51d1c5cd9bc0c931cd47bd8282a3906"),
    (("bounds",), "conn-le5"): (0, "5205b2ef8ebf2e7fb3bffb036d94a7c988ca170d9225fac8e863ef8b91ca51c1"),
    (("bounds", "--csv"), "conn-le5"): (0, "d603aa7757d9d38a791f54b24a8b46865f8c55a178cf5ba81873fa217845b35f"),
    (("extremal",), "conn-le5"): (0, "cfe264bc41607e6dbc556b0f2a8b582695ec65ba8f12e024f67edde0f97a6b0d"),
    (("tough",), "conn-2to5"): (0, "62c5ace1ae9f35312c0cabbf75fd7b451b094a516ad44f28f250fc718d22456d"),
    (("kappa",), "conn-2to5"): (0, "9ab9eb411f813ee6e69b5df4caf96d41f604f289b02e81c3a24476f6705af9ce"),
    (("spectra",), "conn-2to5"): (0, "6bce4efd20c0ef5bada8ccb8f5d22368d0da047ea1d72fb8e93cdbac2f3284eb"),
    (("spectra", "--table"), "conn-2to5"): (0, "e7c3be37fdd25b4d5ad27fabf789f1cc283c3433947113c296e7c0fea27b8ecb"),
    (("alpha",), "all-le4"): (0, "007278ecb280013572716b2d48d6ba8dfe022bb9bceec6476cbcce1bd6e060d1"),
}


def run(argv, corpus):
    stdin, sys.stdin = sys.stdin, io.StringIO(CORPORA[corpus]())
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv, corpus", list(GOLDEN),
                         ids=[" ".join(argv) + " < " + corpus for argv, corpus in GOLDEN])
def test_cli_output_is_unchanged(argv, corpus):
    assert run(argv, corpus) == GOLDEN[argv, corpus]


if __name__ == "__main__":
    for argv, corpus in GOLDEN:
        print(f"    ({argv!r}, {corpus!r}): {run(argv, corpus)!r},")
