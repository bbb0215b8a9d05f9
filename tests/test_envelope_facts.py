"""Facts that the envelope pipeline decides once, decided again here.

A parametrized cell's ends are joined by a one-cell because its form is
special, so `ParamCell` does not test it.  Separation returns the first
system whose balance scan passes, and decoupling the first whose
coupled-vertex search finds nothing; each system keeps both verdicts, and
the next phase reads them instead of deciding again.  These tests
re-derive the facts from scratch: the one-cell test on each cell's ends,
and balance and freeness on a new system over the same cells and
vertices, which carries no verdict.

A process also builds each parametrization into a cell once, and hands
out that cell, with the readings it has derived, to every later
construction of the same form and base.  `test_shared_cells_match_fresh`
compares envelopes and cells built through one shared memo with those
built from an empty one.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorg import pipeline
from cantorg.commands import parse_cluster_line
from cantorg.complexes import is_one_cell
from cantorg.pipeline import (
    CellSystem,
    ParamCell,
    envelope,
    is_balanced_system,
    is_free_system,
)
from cantorg.rewrite import normalize
from test_canonical_oracles import random_special_form
from test_envelope_digest import _pool_draws
from test_hash_seed import DRAWS
from test_rewrite import random_word

POOL_DRAWS = 50


def _clusters(draw):
    return [parse_cluster_line(part) for part in draw.split("||")]


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_cells_span_one_cells(seed):
    rng = random.Random(seed)
    form = random_special_form(rng)
    cell = ParamCell(form, normalize(random_word(rng)))
    assert is_one_cell(cell.bottom, cell.top)


def test_envelope_cells_span_one_cells(monkeypatch):
    built = []
    new = ParamCell.__new__

    def recording(cls, form, tau):
        built.append(new(cls, form, tau))
        return built[-1]

    monkeypatch.setattr(ParamCell, "__new__", staticmethod(recording))
    for draw in DRAWS:
        envelope(_clusters(draw))
    assert built
    for cell in built:
        assert is_one_cell(cell.bottom, cell.top)


class _Decoupled(Exception):
    """Stops an envelope once decoupling has returned its system."""


def decoupled_systems(monkeypatch, draws):
    """The system that decoupling hands to `cubulate` in the envelope of
    each draw; the clusters themselves are not built."""
    systems = []

    def stop(system, max_dim=None):
        systems.append(system)
        raise _Decoupled

    monkeypatch.setattr(pipeline, "cubulate", stop)
    for draw in draws:
        with pytest.raises(_Decoupled):
            envelope(_clusters(draw))
    return systems


def test_decoupled_systems_are_free(monkeypatch):
    draws = DRAWS + _pool_draws()[:POOL_DRAWS]
    systems = decoupled_systems(monkeypatch, draws)
    assert len(systems) == len(draws)
    for free in systems:
        assert is_free_system(CellSystem(free.cells, free.vertices))


# the decoupling rounds over the envelopes of the hash-seed draws and the
# first `POOL_DRAWS` pool draws, each of which ends with a separation of
# its own
DECOUPLING_SEPARATIONS = 4


def test_handed_balance_verdicts_hold(monkeypatch):
    """The balance verdict that the systems out of separation, inside
    decoupling too, and out of decoupling carry equals a fresh scan of
    their cells."""
    handed = []

    def recording(name, phase):
        def run(system):
            handed.append((name, phase(system)))
            return handed[-1][1]
        return run

    for name in ("separation_procedure", "equivariant_decoupling"):
        monkeypatch.setattr(pipeline, name,
                            recording(name, getattr(pipeline, name)))
    draws = DRAWS + _pool_draws()[:POOL_DRAWS]
    decoupled_systems(monkeypatch, draws)
    names = [name for name, _ in handed]
    assert names.count("equivariant_decoupling") == len(draws)
    assert (names.count("separation_procedure")
            == len(draws) + DECOUPLING_SEPARATIONS)
    for _, out in handed:
        assert "undecided" in vars(out)
        fresh = CellSystem(out.cells, out.vertices)
        assert is_balanced_system(out) == is_balanced_system(fresh)


def _outline(out):
    return ({(c.vertices, c.edges) for c in out.clusters}, out.flag_report)


def test_shared_cells_match_fresh(monkeypatch):
    """The envelopes of the first pool draws are the same whether their
    cells come from one memo or from an empty memo per draw, and every
    cell handed out again equals one built anew from its arguments."""
    draws = _pool_draws()[:2 * POOL_DRAWS]
    fresh = []
    for draw in draws:
        pipeline._cell.cache_clear()
        fresh.append(_outline(envelope(_clusters(draw))))

    pipeline._cell.cache_clear()
    handed = []
    new = ParamCell.__new__

    def recording(cls, form, tau):
        hits = pipeline._cell.cache_info().hits
        cell = new(cls, form, tau)
        if pipeline._cell.cache_info().hits > hits:
            handed.append((form, tau, cell))
        return cell

    monkeypatch.setattr(ParamCell, "__new__", staticmethod(recording))
    shared = [_outline(envelope(_clusters(draw))) for draw in draws]
    info = pipeline._cell.cache_info()
    assert info.currsize < info.maxsize
    assert shared == fresh
    assert handed
    for form, tau, cell in handed:
        pipeline._cell.cache_clear()
        built = new(ParamCell, form, tau)
        assert built is not cell
        assert (built.form, built.tau, built.sides, built.vertices) == (
            cell.form, cell.tau, cell.sides, cell.vertices)
