"""One digest over the envelopes of every draw of the benchmark's envelope
pool.

Each line of `bench/inputs/envelope_pool.txt` is a subcomplex: its
envelope dimension, then its clusters separated by `||`.  For every draw,
the sorted `render_cluster_line` outputs of its envelope, the number of
its vertices and the number of its good flag links are rendered, and the
SHA-256 of all of them is pinned, so a change to what separation,
decoupling or cubulation produce shows up as a different digest.
"""

import hashlib
import os

from cantorg.commands import parse_cluster_line, render_cluster_line
from cantorg.pipeline import envelope

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench", "inputs", "envelope_pool.txt")

# measured on the 600 draws of the pool
DRAWS = 600
DIGEST = "0241a2f4b606cdf50c2b55cd5f1c47b7a7a4a42a1963c5d844b5bb2e0e7915ab"


def _pool_draws():
    with open(POOL, encoding="utf-8") as fh:
        return [line.split(None, 1)[1] for line in map(str.strip, fh)
                if line and not line.startswith("#")]


def _render(out):
    lines = sorted(render_cluster_line(c) for c in out.clusters)
    good = sum(1 for ok, _ in out.flag_report.values() if ok)
    return "%s|%d|%d\n" % (" # ".join(lines), len(out.vertices), good)


def test_envelope_pool_digest():
    digest = hashlib.sha256()
    draws = _pool_draws()
    for text in draws:
        out = envelope([parse_cluster_line(part)
                        for part in text.split("||")])
        digest.update(_render(out).encode())
    assert len(draws) == DRAWS
    assert digest.hexdigest() == DIGEST
