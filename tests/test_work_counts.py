"""Exact work counts of the rewriting engine on a small fixed workload.

The counts are deterministic, so a change that alters how much rewriting
`normalize` or `contract_loop` does shows up here as an exact mismatch,
without timing anything.  Each counted function is wrapped in every
`cantorg` module that binds it, so calls through imported names count too.
"""

import importlib

import pytest

from cantorg import rewrite
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import Cluster, vertex_of
from cantorg.loops import check_certificate, contract_loop, path_of
from cantorg.pipeline import envelope
from cantorg.rewrite import inverse_word, normalize
from test_hash_seed import DRAWS

MODULES = [
    importlib.import_module("cantorg." + name)
    for name in ("binseq", "thompson", "rewrite", "calculus", "special",
                 "complexes", "pipeline", "loops", "cli", "commands")
]

COUNTED = [
    ("rewrite", "standardize"),
    ("rewrite", "remove_potential_cancellations"),
    ("rewrite", "pair_potential_cancellation"),
    ("thompson", "compose"),
]

WORDS = [
    "y[10]",
    "y[100] y[1010]^-1 y[1011]",
    "y[0100]^-1 y[0101] y[011]^-1",
    "y[1000]^-1 y[1001] y[101]^-1 x[1]^2 y[01]^3",
    "x[10] y[100] y[1010]^-1 y[1011]",
    "y[10]^-1 y[100] y[011] y[100] y[100] y[01]^-1",
    "y[10] x[1] y[10]^-1",
    "y[01]^2 y[010]^-1 y[0110]",
    "x[0]^-1 y[01] x[0] y[001]^-1",
    "y[110] y[101]^-1 y[1101]^2",
    "y[100]^-1 y[10]",
    "y[10]^-1 y[100]",
    "y[0010]^-1 y[01] y[0010] y[1010]^2 y[100]^-1",
    "x[] y[01] x[]^-1 y[10]",
    "y[011]^3 y[01]^-2 x[01]",
    "y[1010] y[1011] y[101]^-1 y[10]",
    "y[001] y[01]^-1 y[0011] x[00]",
    "y[10] y[01] y[10]^-1 y[01]^-1",
    "y[1100]^-1 y[1101] y[110]^-1 y[10]",
    "x[1]^-1 y[10] y[01] x[1]",
]

LOOP_WORDS = [
    "y[01]^-1 y[100] y[1010] y[011]",
    "y[01] y[0010]^-1 y[0010] y[1010] y[1010] y[100]^-1",
    "y[01]^-1 y[1010] y[10]^-1 y[011]",
    "y[10] y[01] y[10]^-1",
    "y[010] y[0110]^-1 y[100] y[10]",
]

# re-measured when `contract_loop` started carrying the normal forms of its
# word's suffixes instead of normalizing every suffix after each move, and
# again when every x-letter became one tree-pair factor as it is read: a
# standard form's factor is then read off, not multiplied out unit by unit
# (compose 249 -> 167), and the loop words hold x_s as the same factor that
# other suffixes carry, so 9 of the 604 `normalize` calls more hit the cache
# (standardize 428 -> 419, remove_potential_cancellations 393 -> 384)
EXPECTED = {
    "standardize": 419,
    "remove_potential_cancellations": 384,
    "pair_potential_cancellation": 190,
    "compose": 167,
}


def _loop_of(word):
    path = path_of(word + inverse_word(word))
    trivial = vertex_of([])
    return [trivial] + path if path[0] != trivial else path


def _install_counters(monkeypatch, counted=COUNTED):
    counts = dict.fromkeys([name for _, name in counted], 0)
    for mod_name, name in counted:
        original = getattr(importlib.import_module("cantorg." + mod_name),
                           name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return counts


def test_exact_work_counts(monkeypatch):
    loops = [_loop_of(parse_word(w)) for w in LOOP_WORDS]
    monkeypatch.setattr(rewrite, "_NORMALIZE_CACHE", {})
    counts = _install_counters(monkeypatch)
    for text in WORDS:
        normalize(parse_word(text))
    for loop in loops:
        assert check_certificate(loop, contract_loop(loop))
    assert counts == EXPECTED


# a loop of 901 moves whose contraction made 30,710 `normalize` calls while
# every move normalized every suffix of the word again
BLOWUP_WORD = "y[10] y[10] y[1010] y[011]^-1 y[10]"


def test_contract_loop_blowup_normalize_count(monkeypatch):
    loop = _loop_of(parse_word(BLOWUP_WORD))
    monkeypatch.setattr(rewrite, "_NORMALIZE_CACHE", {})
    counts = _install_counters(monkeypatch, [("rewrite", "normalize")])
    cert = contract_loop(loop)
    assert len(cert) - 1 == 901
    assert counts == {"normalize": 2674}
    assert check_certificate(loop, cert)


# measured when each cell started keeping its verdict at every vertex for
# the later balance scans of its envelope; before, the four scans made
# 175, 362 and 155 calls
DISPARATE_CALLS = [46, 74, 38]


def test_envelope_verdict_count(monkeypatch):
    got = []
    for draw in DRAWS:
        clusters = [parse_cluster_line(part) for part in draw.split("||")]
        counts = _install_counters(
            monkeypatch, [("pipeline", "disparate_cell_vertex")])
        envelope(clusters)
        got.append(counts["disparate_cell_vertex"])
        monkeypatch.undo()
    assert got == DISPARATE_CALLS


def draw_clusters():
    """The distinct clusters, as (base, parameters) in the order first
    built, that the envelopes of the three hash-seed draws construct."""
    built = {}
    init = Cluster.__init__

    def recording(self, base, params):
        init(self, base, params)
        built.setdefault((tuple(self.base.to_items()), self.params),
                         (self.base, self.params))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Cluster, "__init__", recording)
        for draw in DRAWS:
            envelope([parse_cluster_line(p) for p in draw.split("||")])
    return list(built.values())


# measured when each corner became the normal form of its lowest parameter
# times the corner one parameter smaller; normalizing the whole word of
# every corner made 156 calls on 140 distinct words
CORNER_NORMALIZE = {"normalize": 134, "distinct_words": 76}


def test_cluster_corner_normalize_count(monkeypatch):
    clusters = draw_clusters()
    monkeypatch.setattr(rewrite, "_NORMALIZE_CACHE", {})
    counts = _install_counters(monkeypatch, [("rewrite", "normalize")])
    for base, params in clusters:
        Cluster(base, params)
    counts["distinct_words"] = len(rewrite._NORMALIZE_CACHE)
    assert counts == CORNER_NORMALIZE
