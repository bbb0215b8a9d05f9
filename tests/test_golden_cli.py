"""Golden CLI corpus: each call's stdout must stay byte-identical to its
capture in tests/golden/.  Captures larger than 100 kB are gzipped.

To capture the corpus from a reference version of the program, run
`python tests/test_golden_cli.py` with that version's `src` on PYTHONPATH;
it overwrites the capture files.
"""

import contextlib
import gzip
import io
import os
import sys

import pytest

from cantorg import commands

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

SPEC8 = (
    "1 ; y[00001] ; y[00011] ; y[00101] ; y[00111] ; y[01001] ; y[01011]"
    " ; y[01101] ; y[01111]"
)

CALLS = {
    "cluster8": ["cluster", SPEC8],
    "cluster10": ["cluster", SPEC8 + " ; y[10001] ; y[10011]"],
    "cluster_diagonals": ["cluster", "1 ; y[001] ; y[01] ; y[10]"],
    "cluster_diagonals_cells": [
        "cluster", "1 ; y[001] ; y[01]^-1 ; y[100] y[101]^-1", "--cells"
    ],
    "intersect": ["intersect", "1 ; y[001] ; y[011]", "1 ; y[011] ; y[101]"],
    "cubulate_seven_cube": [
        "cubulate", os.path.join(GOLDEN, "seven_cube.txt")
    ],
    "cubulate_squares": ["cubulate", os.path.join(GOLDEN, "squares.txt")],
    "normalize_contraction": ["normalize", "y[100] y[1010]^-1 y[1011]"],
    "normalize_mixed": [
        "normalize", "y[1000]^-1 y[1001] y[101]^-1 x[1]^2 y[01]^3"
    ],
    "equal_expansion": ["equal", "y[10]", "x[10] y[100] y[1010]^-1 y[1011]"],
    "eval": [
        "eval", "y[10]^-1 y[100] y[011] y[100] y[100] y[01]^-1", "1001(11)"
    ],
    "calc_exponent": ["calc", "y[100]^-1 y[10]", "1001(1)"],
    "calc_cancellation": ["calc", "y[10]^-1 y[100]", "100(0)"],
    "special": ["special", "y[100] y[1010]^-1 y[1011]"],
    "contract_loop": ["contract-loop", os.path.join(GOLDEN, "loop.txt")],
}


def _stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = commands.run(list(argv))
    assert code == 0
    return out.getvalue().encode()


def _path(name):
    plain = os.path.join(GOLDEN, name + ".out")
    return plain if os.path.exists(plain) else plain + ".gz"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_output(name):
    path = _path(name)
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rb") as fh:
        expected = fh.read()
    assert _stdout_of(CALLS[name]) == expected


if __name__ == "__main__":
    for name, argv in CALLS.items():
        data = _stdout_of(argv)
        path = os.path.join(GOLDEN, name + ".out")
        for old in (path, path + ".gz"):
            if os.path.exists(old):
                os.remove(old)
        if len(data) > 100_000:
            with gzip.GzipFile(path + ".gz", "wb", mtime=0) as fh:
                fh.write(data)
        else:
            with open(path, "wb") as fh:
                fh.write(data)
        print("%s: %d bytes" % (name, len(data)), file=sys.stderr)
