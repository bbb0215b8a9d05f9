"""The envelope is total on criterion-11 subcomplexes under a dimension
bound.

Each draw either gives a complex that holds its input clusters and has
only flag links, or stops with the documented `ValueError` that names the
bound, raised before any cluster is built.  Nothing else may escape: no
`InternalError`, no `NonConvergenceError`, and no other `ValueError`, such
as a system cell that misses the tracked vertices, which every separation
and decoupling round would raise as it builds its system.  The draws come
from seeds that the committed envelope pool (seeds 1000..) does not use,
and unlike the pool they include envelopes above dimension 5 and above the
bound.  The same holds through the command line: `cubulate` on a file
of pool draws exits 0, or 2 at the bound, and prints no traceback.
"""

import os
import random
import re
import subprocess
import sys

import cantorg
from cantorg.pipeline import envelope
from test_acceptance import _random_subcomplex
from test_envelope_digest import _pool_draws

MAX_DIM = 8
SEEDS = (3000, 3001)
DRAWS_PER_SEED = 100
BOUND = re.compile(r"a cluster of dimension \d+ exceeds the bound of %d"
                   % MAX_DIM)


def test_envelope_is_total_under_the_bound():
    outcomes = {"complete": 0, "bounded": 0}
    for seed in SEEDS:
        rng = random.Random(seed)
        for _ in range(DRAWS_PER_SEED):
            clusters = _random_subcomplex(rng)
            try:
                out = envelope(clusters, max_dim=MAX_DIM)
            except ValueError as exc:
                assert BOUND.fullmatch(str(exc)), exc
                outcomes["bounded"] += 1
                continue
            for c in clusters:
                assert any(c.vertices <= d.vertices and c.edges <= d.edges
                           for d in out.clusters)
            assert all(good for good, _ in out.flag_report.values())
            outcomes["complete"] += 1
    assert all(outcomes.values()), outcomes


# every 40th draw of the pool, so that each envelope dimension is met
CLI_DRAWS = 15
SRC = os.path.dirname(os.path.dirname(os.path.abspath(cantorg.__file__)))


def test_cubulate_command_is_total_under_the_bound(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    draws = _pool_draws()[::40][:CLI_DRAWS]
    assert len(draws) == CLI_DRAWS
    for i, draw in enumerate(draws):
        path = tmp_path / ("draw%d.txt" % i)
        path.write_text(draw.replace("||", "\n") + "\n")
        done = subprocess.run(
            [sys.executable, "-m", "cantorg.cli", "--max-dim", str(MAX_DIM),
             "cubulate", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode in (0, 2), done.stderr
        assert "Traceback" not in done.stdout + done.stderr
