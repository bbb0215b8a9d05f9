"""Exact work counts of the rewriting engine on a small fixed workload.

The counts are deterministic, so a change that alters how much rewriting
`normalize` or `contract_loop` does shows up here as an exact mismatch,
without timing anything.  Each counted function is wrapped in every
`cantorg` module that binds it, so calls through imported names count too.
"""

import contextlib
import importlib
import io
import os
import random

import pytest

from cantorg import pipeline, rewrite, thompson
from cantorg.cli import parse_word
from cantorg import commands
from cantorg.commands import parse_cluster_line, read_cluster_file
from cantorg.complexes import Cluster, intersect_clusters, vertex_of
from cantorg.loops import check_certificate, contract_loop, path_of
from cantorg.pipeline import envelope
from cantorg.rewrite import (
    IDENTITY_NORMAL,
    inverse_word,
    invert_normal,
    normalize,
    normalize_product,
)
from cantorg.special import from_letters
from test_envelope_digest import _pool_draws
from test_golden_cli import CALLS, GOLDEN
from test_hash_seed import DRAWS
from test_rewrite import random_word

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
    ("rewrite", "find_merge"),
    ("rewrite", "find_misordered"),
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
# (standardize 428 -> 419, remove_potential_cancellations 393 -> 384).
# When `contract_loop` began to drive its word through the same engine as
# `normalize`, its own standardization and cancellation rounds became calls
# of `standardize` and `remove_potential_cancellations` on the loop word:
# the five loops add 8 and 5 calls (419 -> 427, 384 -> 389), and the calls
# that `normalize` makes are as many as before.
# `find_merge` and `find_misordered` were first counted when `standardize`
# began to call them only when a pair of theirs can exist: a merge pair
# spans three y-letters and must end at or after the least index rewritten
# since `find_merge` last ran, and a misordered pair spans two y-letters.
# While every completed first scan called them, they made 665 and 456
# calls; the rewrites did not change.
# When `normalize` began to look a missed word up again by its merged word,
# the words whose merged word it had already reduced stopped being reduced
# again: the counts were 427, 389, 190, 167, 382 and 258 before.
# When the suffixes of a loop word, its window parameters and the corners
# of certificate checks began to take their letters onto a known normal
# form (`normalize_onto`), most of those steps stopped calling the engine:
# the counts were 347, 314, 171, 159, 357 and 229 before.  `onto_misses`
# counts the steps that `normalize_onto` computed, with the engine or
# without it.  When the quotients of certificate checks began to drop the
# shared letters that commute out (`complexes.quotient_word`) and to be
# kept per pair, with the edge verdicts, the engine reduced shorter words:
# the counts were 160, 135, 113, 160, 217 and 106 before.
# When certificate checks stopped re-deriving the edges of each move's
# window, and a move's parameters came to prove its new edges, the engine
# no longer normalized those edges' quotients: the counts were 126, 103,
# 109, 158, 142 and 102 before, and `onto_misses` stayed 231
EXPECTED = {
    "standardize": 107,
    "remove_potential_cancellations": 86,
    "pair_potential_cancellation": 105,
    "compose": 153,
    "find_merge": 129,
    "find_misordered": 96,
    "onto_misses": 231,
}


def _loop_of(word):
    path = path_of(word + inverse_word(word))
    trivial = vertex_of([])
    return [trivial] + path if path[0] != trivial else path


def rebind(monkeypatch, original, wrapper):
    """Put wrapper in place of original in every module that binds it."""
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, wrapper)


def record_cells(monkeypatch):
    """The cells that `ParamCell` hands out from now on, by
    parametrization, as `pipeline._cell` keeps them."""
    cells = {}
    real = pipeline._cell

    def recording(form, tau):
        cell = cells[form, tau] = real(form, tau)
        return cell

    rebind(monkeypatch, real, recording)
    return cells


def _install_counters(monkeypatch, counted=COUNTED):
    counts = dict.fromkeys([name for _, name in counted], 0)
    for mod_name, name in counted:
        original = getattr(importlib.import_module("cantorg." + mod_name),
                           name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        rebind(monkeypatch, original, wrapper)
    return counts


def _clear_normalize_memos():
    rewrite._normal_form.cache_clear()
    rewrite._onto.cache_clear()


def test_exact_work_counts(monkeypatch):
    loops = [_loop_of(parse_word(w)) for w in LOOP_WORDS]
    _clear_normalize_memos()
    counts = _install_counters(monkeypatch)
    for text in WORDS:
        normalize(parse_word(text))
    for loop in loops:
        assert check_certificate(loop, contract_loop(loop))
    counts["onto_misses"] = rewrite._onto.cache_info().misses
    assert counts == EXPECTED


# the budget steps of (normalizing the word, inverting its normal form,
# normalizing the product of the two), each from a cold cache, for the
# draws of `test_rewrite.test_inverse_roundtrip`'s generator known to take
# longest and one word whose round trip took seconds.  They held when the
# scans of `standardize` began to resume at the rewritten window, which
# took seed 1952's inversion from about 18 s to under 2 s and seed 1240's
# product from about 27 s to about 3 s on a 2-core box
TAIL_STEPS = {
    653: [432, 15959, 435],
    1240: [226, 10827, 144579],
    1952: [1690, 25674, 4265],
    4487: [591, 12404, 21616],
    "y[10]^-2 y[100] y[10]^2": [278, 2785, 3940],
}


@pytest.mark.parametrize("case", list(TAIL_STEPS))
def test_normalize_tail_budget_steps(monkeypatch, case):
    word = (parse_word(case) if isinstance(case, str)
            else random_word(random.Random(case), max_len=5, max_sub=3))
    rewrite._normal_form.cache_clear()
    steps = []
    spend = rewrite._Budget.spend

    def counting(budget):
        steps[-1] += 1
        spend(budget)

    monkeypatch.setattr(rewrite._Budget, "spend", counting)

    def stage(fn, *args):
        steps.append(0)
        return fn(*args)

    n = stage(normalize, word)
    inv = stage(invert_normal, n)
    assert stage(normalize_product, n, inv) == IDENTITY_NORMAL
    assert steps == TAIL_STEPS[case]


# a loop of 437 moves (901 while the certificate recorded the loop word's
# 464 rearrangements) whose contraction made 30,710 `normalize` calls while
# every move normalized every suffix of the word again, 2,674 while the
# split phase checked its path against a rebuilt copy of its 26-letter
# word, and 2,648 while each new suffix was normalized from the letter and
# the next suffix's items.  Each new suffix is now one step of
# `normalize_onto`; the steps it computed are `onto_misses`, and the
# `normalize` calls include those of the steps that needed the engine
BLOWUP_WORD = "y[10] y[10] y[1010] y[011]^-1 y[10]"
BLOWUP_WORK = {"normalize": 337, "onto_misses": 2063}


def test_contract_loop_blowup_normalize_count(monkeypatch):
    loop = _loop_of(parse_word(BLOWUP_WORD))
    _clear_normalize_memos()
    counts = _install_counters(monkeypatch, [("rewrite", "normalize")])
    cert = contract_loop(loop)
    assert len(cert) - 1 == 437
    counts["onto_misses"] = rewrite._onto.cache_info().misses
    assert counts == BLOWUP_WORK
    assert check_certificate(loop, cert)


# measured when each separation round became one scan, which reads a cell
# only at the tracked vertices it misses, and a side's offsprings were
# built only at a tracked near end: each count is the calls of
# `_criterion_cell`, one per side of each reading derived, the only place
# that computes the quotient of a vertex over a base.  The verdict of
# `disparate_cell_vertex` is a classification of a kept reading, made on
# every scan, so its count does not measure work.  When each cell first
# read itself at a vertex once, through `ParamCell.at`, and the closure
# was a second scan that also read a cell at its own ends, these counts
# were 138, 224 and 114; while each cell kept only its verdicts, they were
# 174, 304 and 127
READINGS_DERIVED = [110, 176, 90]


def test_envelope_verdict_count(monkeypatch):
    counts = _install_counters(monkeypatch, [("pipeline", "_criterion_cell")])
    got = []
    for draw in DRAWS:
        before = counts["_criterion_cell"]
        envelope([parse_cluster_line(part) for part in draw.split("||")])
        got.append(counts["_criterion_cell"] - before)
    assert got == READINGS_DERIVED


# the cells built (the entries of the cell memo, which drops none here)
# and the readings derived (`_criterion_cell` calls) over the envelopes of
# the first pool draws, in one process.  While every construction built a
# new cell, with a table of readings of its own, the draws made 2,420 cells
# and derived 4,298 readings
SHARED_CELL_DRAWS = 100
SHARED_CELL_WORK = {"cells": 542, "_criterion_cell": 3258}


def test_shared_cell_work_count(monkeypatch):
    counts = _install_counters(monkeypatch, [("pipeline", "_criterion_cell")])
    for draw in _pool_draws()[:SHARED_CELL_DRAWS]:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    info = pipeline._cell.cache_info()
    counts["cells"] = info.currsize
    assert info.currsize < info.maxsize
    assert counts == SHARED_CELL_WORK


# the pair tests of decoupling over the three hash-seed draws.  There were
# 108 while `cubulate`'s freeness check searched every pair again on the
# system whose last decoupling round had just found no coupled vertex; that
# system now carries the verdict of its search
DISPARATE_PAIRS = 54


def test_envelope_disparate_pair_count(monkeypatch):
    counts = _install_counters(monkeypatch, [("pipeline", "disparate_pair")])
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    assert counts["disparate_pair"] == DISPARATE_PAIRS


# the balance scans (`_undecided`) and the cell-vertex classifications of
# the envelopes of the three hash-seed draws.  There were 13 scans and 572
# classifications while decoupling's entry check and `cubulate`'s freeness
# check scanned again the system that the previous phase had just found
# balanced; each system now carries the verdict of its scan
BALANCE_SCANS = {"_undecided": 7, "disparate_cell_vertex": 278}


def test_envelope_balance_scan_count(monkeypatch):
    counts = _install_counters(monkeypatch, [
        ("pipeline", "_undecided"), ("pipeline", "disparate_cell_vertex")])
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    assert counts == BALANCE_SCANS


# the misses and hits of the memos under the envelope pipeline over the
# envelopes of the three hash-seed draws, from cold memos, as `cache_info()`
# reads them: the products of `thompson.compose`; the normal forms of
# `rewrite._normal_form`, keyed by merged word alone, so that each miss
# makes one reduction; the steps of
# `normalize_onto` that `rewrite._onto` keeps; the quotients of a vertex
# over a base that `_quotient_cones` keeps; and the canonical parameters
# that `param_form_at` reads at the ends of cells.  While each miss merged
# its own word, and before corners, cell tops and `cubulate`'s ends took
# their letters onto a known normal form, the counts were 16 and 114
# products, 419 misses, 429 hits, 419 merges and 171 reductions of normal
# forms; while the memo kept a reduced word under the word as given too,
# they were 322 misses and 222 merges for the same 317 hits and 132
# reductions.  Each miss then merged its key again in `_ListWord`, 132
# merges; it now reduces the merged key as it is.  Before the quotients
# dropped the shared letters that commute out, the counts were 98 product
# hits and 132 misses, 317 hits and 132 reductions of normal forms.  While
# the bases of cells and spans at a coset vertex were normalized again,
# not built as the normal form they already are (see `rewrite.GNormal`),
# there were 96 misses, 334 hits and 96 reductions of normal forms
MEMO_WORK = {
    "compose": {"misses": 16, "hits": 79},
    "normal_form": {"misses": 87, "hits": 128, "reductions": 87},
    "onto": {"misses": 73, "hits": 113},
    "quotient": {"misses": 140, "hits": 236},
    "param_form": {"misses": 52, "hits": 110},
}


def test_envelope_memo_work(monkeypatch):
    _clear_normalize_memos()
    thompson.compose.cache_clear()
    cells = record_cells(monkeypatch)
    counts = _install_counters(monkeypatch, [
        ("rewrite", "reduce_word"), ("pipeline", "param_form_at")])
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    compose = thompson.compose.cache_info()
    normal = rewrite._normal_form.cache_info()
    onto = rewrite._onto.cache_info()
    quotient = pipeline._quotient_cones.cache_info()
    params = sum(len(cell.params) for cell in cells.values())
    assert {
        "compose": {"misses": compose.misses, "hits": compose.hits},
        "normal_form": {"misses": normal.misses, "hits": normal.hits,
                        "reductions": counts["reduce_word"]},
        "onto": {"misses": onto.misses, "hits": onto.hits},
        "quotient": {"misses": quotient.misses, "hits": quotient.hits},
        "param_form": {"misses": params,
                       "hits": counts["param_form_at"] - params},
    } == MEMO_WORK


# the output clusters whose edge sets were built, over the envelopes of the
# three hash-seed draws and of the golden squares file, whose 11 clusters
# meet pairwise and share 52 vertices three or more at a time, so that
# `meet_in_face` and the flag check both run.  While every `Cluster` stored
# its edges on construction, all 14 had them
EDGE_SETS_BUILT = 0


def test_envelope_builds_no_output_edge_set():
    inputs = [[parse_cluster_line(p) for p in draw.split("||")]
              for draw in DRAWS]
    inputs.append(read_cluster_file(os.path.join(GOLDEN, "squares.txt")))
    built = 0
    for clusters in inputs:
        built += sum("edges" in vars(c) for c in envelope(clusters).clusters)
    assert built == EDGE_SETS_BUILT


# the 22 clusters, as (base, parameters), that the envelopes of the three
# hash-seed draws built, in order, while `cubulate` built one cluster per
# span and then dropped the repeats and the clusters inside others; it now
# builds 8 of them, and the corner count and the whole-word corner check
# of `test_cluster_oracles` are kept on the 22
CORNER_CLUSTERS = [
    ("y[10]^2", ("y[01]", "y[100] y[101]^-1")),
    ("y[10]^2", ("y[100]",)),
    ("y[01] y[10]^2", ("y[01]^-1", "y[100]", "y[101]^-1")),
    ("y[01] y[100]^2 y[10100]^-1 y[10101] y[1010]^-1 y[10]",
     ("y[01]^-1", "y[100]^-1 y[10100] y[10101]^-1", "y[1011]")),
    ("y[10]^2", ("y[01]", "y[100]", "y[101]^-1")),
    ("y[100] y[10]^2", ("y[01]", "y[100]^-1", "y[101]^-1")),
    ("y[100]^2 y[10100]^-1 y[10101] y[1010]^-1 y[10]",
     ("y[01]", "y[100]^-1 y[10100] y[10101]^-1", "y[1011]")),
    ("y[10]", ("y[0010]", "y[01]", "y[10]^-1")),
    ("", ("y[0010]", "y[01]", "y[10]")),
    ("y[0010]", ("y[0010]^-1", "y[01]", "y[10]")),
    ("y[0010] y[01]", ("y[0010]^-1", "y[01]^-1", "y[10]")),
    ("y[0010] y[01] y[10]", ("y[0010]^-1", "y[01]^-1", "y[10]^-1")),
    ("y[0010] y[10]", ("y[0010]^-1", "y[01]", "y[10]^-1")),
    ("y[01]", ("y[0010]", "y[01]^-1", "y[10]")),
    ("y[01] y[10]", ("y[0010]", "y[01]^-1", "y[10]^-1")),
    ("", ("y[01]", "y[100]")),
    ("", ("y[100] y[101]^-1",)),
    ("", ("y[01]", "y[100]", "y[101]^-1")),
    ("y[01]", ("y[01]^-1", "y[100]", "y[101]^-1")),
    ("y[01] y[100]", ("y[01]^-1", "y[100]^-1", "y[101]^-1")),
    ("y[100]", ("y[01]", "y[100]^-1", "y[101]^-1")),
    ("y[100] y[101]^-1", ("y[01]", "y[100]^-1", "y[101]")),
]

# measured when each corner became the normal form of its lowest parameter
# times the corner one parameter smaller; normalizing the whole word of
# every corner made 156 calls on 140 distinct words, and normalizing the
# parameter's letters followed by the smaller corner's items made 134 on
# 76.  Each corner is now `normalize_onto` of the parameter's letters onto
# the smaller corner: `onto_misses` counts its steps, and the `normalize`
# calls are those of the steps that needed the engine
CORNER_NORMALIZE = {"normalize": 10, "distinct_words": 10,
                    "onto_misses": 82}


def test_cluster_corner_normalize_count(monkeypatch):
    clusters = [
        (normalize(parse_word(base)),
         tuple(from_letters(parse_word(p)) for p in params))
        for base, params in CORNER_CLUSTERS
    ]
    _clear_normalize_memos()
    words = []
    real = rewrite.normalize

    def recording(word):
        words.append(tuple(word))
        return real(word)

    rebind(monkeypatch, real, recording)
    for base, params in clusters:
        Cluster(base, params)
    counts = {"normalize": len(words), "distinct_words": len(set(words)),
              "onto_misses": rewrite._onto.cache_info().misses}
    assert counts == CORNER_NORMALIZE


# the clusters built over the envelopes of the three hash-seed draws and of
# the golden squares file, which output 14 clusters.  While `cubulate`
# built a cluster for every span and then dropped the repeats and the
# clusters inside others, it built 48
CUBULATE_BUILDS = 14


def test_cubulate_builds_only_output_clusters(monkeypatch):
    inputs = [[parse_cluster_line(p) for p in draw.split("||")]
              for draw in DRAWS]
    inputs.append(read_cluster_file(os.path.join(GOLDEN, "squares.txt")))
    built = []
    init = Cluster.__init__

    def recording(self, base, params):
        built.append(params)
        init(self, base, params)

    monkeypatch.setattr(Cluster, "__init__", recording)
    kept = sum(len(envelope(clusters).clusters) for clusters in inputs)
    assert len(built) == kept == CUBULATE_BUILDS


# the clusters built by the golden `cluster ... --cells` call.  While the
# filling read the parameters of the type-1 balanced parametrization, which
# `balanced_parametrizations` builds together with the other one, it built 3
CELLS_CLUSTER_BUILDS = 1


def test_cluster_cells_builds_one_cluster(monkeypatch):
    built = []
    init = Cluster.__init__

    def recording(self, base, params):
        built.append(params)
        init(self, base, params)

    monkeypatch.setattr(Cluster, "__init__", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert commands.run(CALLS["cluster_diagonals_cells"]) == 0
    assert len(built) == CELLS_CLUSTER_BUILDS


# the inputs of the golden `intersect` call whose edge sets the intersection
# built.  While it collected the shared edges from the first cluster's full
# edge set, it built that one; it now reads the edges at its pivot alone
def test_intersect_builds_no_edge_set():
    clusters = [parse_cluster_line(spec)
                for spec in CALLS["intersect"][1:]]
    assert intersect_clusters(*clusters) is not None
    assert ["edges" in vars(c) for c in clusters] == [False, False]
