"""Differential tests of the rewriter, the reading of a cell at a vertex
and the balance scan against the versions in `rederive_oracles`, which
re-derive the y-letters of a standard form, the far side of a cell, the
quotient of a vertex over each side's base and every verdict of the scan
instead of reading them."""

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


def _parametrizations(cells):
    """Each cell, by its endpoints, with the parametrization it carries."""
    return {e.vertices: _parametrization(e) for e in cells}


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


def test_equivalence_pairs_match_oracle():
    cells, _ = _draw_cells()
    pairs = 0
    for e1 in cells:
        for e2 in cells:
            got = pipeline.equivalent_cells(e1, e2)
            assert got == oracle.equivalent_cells(e1, e2)
            pairs += got is not None
    assert pairs > len(cells)


def _scan_matches_oracle(scan, cells, vertices):
    """One separation scan against the oracle's two: the same undecided
    cells, and, added to the other cells as a round of `separation_procedure`
    adds them, criterion cells that keep, of equal cells, the same
    parametrization as the oracle's closure of the other cells.  When no
    cell is undecided, the oracle finds a missing criterion cell exactly
    when the scan does."""
    bad, found = scan(cells, vertices)
    want_bad, want_missing = oracle._undecided(cells, vertices)
    assert {id(e) for e in bad} == {id(e) for e in want_bad}
    kept = [e for e in cells if e not in bad]
    got = set(kept)
    got.update(found)
    assert _parametrizations(got) == _parametrizations(
        oracle._closure(kept, vertices))
    if not bad:
        assert want_missing == (len(got) > len(kept))
    return bad, found


def test_closure_matches_oracle():
    cells, vertices = _draw_cells()
    bad, found = _scan_matches_oracle(pipeline._undecided, cells, vertices)
    assert bad and set(found) - set(cells)


def test_offsprings_match_oracle():
    """The offsprings of every side whose near end is tracked, which are
    those the oracle builds at a tracked vertex."""
    cells, vertices = _draw_cells()
    untracked = 0
    for e in cells:
        got = pipeline._two_sided_offsprings(e, vertices)
        every = oracle._two_sided_offsprings(e, vertices)
        want = [c for c in every if c.bottom in vertices]
        assert list(map(_parametrization, got)) == list(
            map(_parametrization, want))
        untracked += len(every) - len(want)
    assert untracked


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
    """Every scan of the pipeline, classifying the readings kept on the
    cells, matches the oracle's scan and closure, which decide every pair
    again (see `_scan_matches_oracle`).  Each phase hands over a system
    that carries its balance verdict, so the output of separation and of
    decoupling is scanned again, as a new system over the same cells and
    vertices, which must be balanced too."""
    scans = []
    library = pipeline._undecided

    def compared(cells, vertices):
        scans.append(len(cells))
        return _scan_matches_oracle(library, cells, vertices)

    def rescanned(phase):
        def run(system):
            out = phase(system)
            assert pipeline.is_balanced_system(
                CellSystem(out.cells, out.vertices))
            return out
        return run

    monkeypatch.setattr(pipeline, "_undecided", compared)
    for name in ("separation_procedure", "equivariant_decoupling"):
        monkeypatch.setattr(pipeline, name, rescanned(getattr(pipeline, name)))
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    _, system = _mirror_system()
    cubulate(pipeline.equivariant_decoupling(system))
    assert len(scans) >= 4 * (len(DRAWS) + 1)


def test_verdicts_are_kept_per_parametrization():
    """A cell and an equal cell parametrized over its other end keep
    separate tables of readings, each entry equal to a fresh reading."""
    e, system = _mirror_system()
    twin = ParamCell(*e.sides[1][:2])
    assert twin == e and twin.form != e.form
    assert pipeline.is_balanced_system(system)
    assert e.readings and not twin.readings
    pipeline._undecided({twin}, system.vertices)
    assert twin.readings.keys() == e.readings.keys()
    assert twin.readings is not e.readings
    for cell in (e, twin):
        for u, reading in cell.readings.items():
            fresh = [
                pipeline._criterion_cell(cell.support, form, base, u)
                for form, base, _, _ in cell.sides
            ]
            assert [(cones, _parametrization(cand))
                    for cones, cand in reading] == [
                (cones, _parametrization(cand)) for cones, cand in fresh]
