"""Differential tests of the rewriter, the cell verdict and the balance
scan against the versions in `rederive_oracles`, which re-derive the
y-letters of a standard form, the far side of a cell and every verdict of
the scan instead of reading them."""

import random

from hypothesis import given, settings, strategies as st

import rederive_oracles as oracle
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg import pipeline
from cantorg.pipeline import (
    DISPARATE,
    EQUIVALENT_AT,
    NEITHER,
    CellSystem,
    ParamCell,
    cubulate,
    disparate_cell_vertex,
    envelope,
    equivariant_decoupling,
    separation_procedure,
)
from cantorg.rewrite import (
    BudgetExceeded,
    _Budget,
    remove_potential_cancellations,
)
from test_hash_seed import DRAWS
from test_pipeline import TRIV, pc, v
from test_rewrite import word_with_cancellation
from test_work_counts import WORDS


def _removal(fn, word):
    """The rewritten items and the budget left, or None when the budget ran
    out.  These words need fewer than 2,000 steps, so a rewriter that stops
    converging runs out of 5,000 within a second instead of the default
    500,000."""
    budget = _Budget(5_000)
    try:
        items = fn(list(word), budget)
    except BudgetExceeded:
        return None
    return items, budget.left


def test_removal_matches_oracle_on_fixed_words():
    for text in WORDS:
        word = parse_word(text)
        got = _removal(remove_potential_cancellations, word)
        assert got is not None
        assert got == _removal(oracle.remove_potential_cancellations, word)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_removal_matches_oracle_on_random_words(seed):
    word = word_with_cancellation(random.Random(seed))
    assert _removal(remove_potential_cancellations, word) == _removal(
        oracle.remove_potential_cancellations, word
    )


def _draw_cells():
    """The cells of the three hash-seed draws' one-skeletons, before and
    after separation, and the union of their tracked vertices.  Crossing
    every draw's cells with every draw's vertices gives all three
    verdicts."""
    cells = set()
    vertices = set()
    for draw in DRAWS:
        system_cells = set()
        system_vertices = set()
        for c in (parse_cluster_line(part) for part in draw.split("||")):
            system_vertices |= c.vertices
            for edge in c.edges:
                a, b = sorted(edge)
                system_cells.add(ParamCell.from_edge(b, a))
        balanced = separation_procedure(
            CellSystem(system_cells, system_vertices))
        cells |= system_cells | balanced.cells
        vertices |= system_vertices
    return sorted(cells, key=lambda e: sorted(e.vertices)), sorted(vertices)


def _parametrization(cell):
    if cell is None:
        return None
    return cell.form, cell.tau, cell.bottom, cell.top


def test_cell_verdict_matches_oracle():
    cells, vertices = _draw_cells()
    kinds = set()
    for e in cells:
        assert e.sides[1][1] == oracle.top_base(e)
        for v in vertices:
            kind, cand = disparate_cell_vertex(e, v)
            want_kind, want = oracle.disparate_cell_vertex(e, v)
            assert kind == want_kind
            assert _parametrization(cand) == _parametrization(want)
            kinds.add(kind)
    assert kinds == {DISPARATE, EQUIVALENT_AT, NEITHER}


def _mirror_system():
    """The balanced system of `test_equivariant_decoupling_mirrors_at_partners`:
    two nested cells at the base and the cells the criterion matches them
    with at y_01."""
    e = pc("y[10]")
    short = pc("y[100]")
    _, mate = disparate_cell_vertex(e, v("y[01]"))
    _, mate2 = disparate_cell_vertex(short, v("y[01]"))
    return e, CellSystem({e, short, mate, mate2}, {TRIV, v("y[01]")})


def test_balance_scan_matches_oracle(monkeypatch):
    """Every scan of the pipeline, reading the verdicts kept on the cells,
    finds the same undecided cells and the same missing flag as a scan that
    decides every pair again."""
    scans = []
    library = pipeline._undecided

    def compared(cells, vertices):
        bad, missing = library(cells, vertices)
        want_bad, want_missing = oracle._undecided(cells, vertices)
        assert {id(e) for e in bad} == {id(e) for e in want_bad}
        assert missing == want_missing
        scans.append(len(cells))
        return bad, missing

    monkeypatch.setattr(pipeline, "_undecided", compared)
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    _, system = _mirror_system()
    cubulate(equivariant_decoupling(system))
    assert len(scans) >= 4 * (len(DRAWS) + 1)


def test_verdicts_are_kept_per_parametrization():
    """A cell and an equal cell parametrized over its other end keep
    separate tables, each holding its own verdicts."""
    e, system = _mirror_system()
    twin = ParamCell(*e.sides[1][:2])
    assert twin == e and twin.form != e.form
    assert pipeline.is_balanced_system(system)
    assert e.verdicts and not twin.verdicts
    pipeline._undecided({twin}, system.vertices)
    assert twin.verdicts.keys() == e.verdicts.keys()
    for u, (kind, cand) in twin.verdicts.items():
        want_kind, want = disparate_cell_vertex(twin, u)
        assert kind == want_kind
        assert _parametrization(cand) == _parametrization(want)
    assert twin.verdicts is not e.verdicts
