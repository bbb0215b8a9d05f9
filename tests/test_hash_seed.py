"""The envelope pipeline does the same work under every hash seed.

Separation scans cells against tracked vertices and stops a cell's scan at
its first undecided vertex, so visiting the vertices in set order would
make the amount of work depend on `PYTHONHASHSEED`; so would keeping, of
two equal cells (equal by their ends) with different parametrizations,
whichever a set yields first.  Each run here happens in a child process
with its own hash seed and reports how often `disparate_cell_vertex` and
`normalize` were called per subcomplex, and how often `standardize` was,
which counts the distinct words normalized.
"""

import json
import os
import subprocess
import sys

import cantorg

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cantorg.__file__)))

# subcomplexes, one cluster per line part, whose envelopes track enough
# vertices for the scan order to matter
DRAWS = [
    "y[10]^2 ; y[01] ; y[100] y[101]^-1 || y[10]^2 ; y[100]",
    "y[10] ; y[0010] ; y[01] ; y[10]^-1",
    "1 ; y[01] ; y[100] || 1 ; y[100] y[101]^-1",
]

COUNT_CALLS = """
import importlib, json, sys
from cantorg import pipeline, rewrite
from cantorg.commands import parse_cluster_line

counts = {}


def counted(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


for owner, name in [(pipeline, "disparate_cell_vertex"),
                    (rewrite, "normalize"), (rewrite, "standardize")]:
    fn = getattr(owner, name)
    wrapped = counted(name, fn)
    for module in ("rewrite", "calculus", "special", "complexes", "pipeline",
                   "loops", "commands"):
        module = importlib.import_module("cantorg." + module)
        if getattr(module, name, None) is fn:
            setattr(module, name, wrapped)

out = []
for line in sys.argv[1:]:
    counts.update(disparate_cell_vertex=0, normalize=0, standardize=0)
    pipeline.envelope([parse_cluster_line(p) for p in line.split("||")])
    out.append(dict(counts))
print(json.dumps(out))
"""


def work_counts(hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", COUNT_CALLS, *DRAWS],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(done.stdout)


def test_envelope_work_is_independent_of_hash_seed():
    first = work_counts(0)
    assert all(c["disparate_cell_vertex"] > 0 for c in first)
    assert work_counts(1) == first
