"""Versions of the rewriter, the cell verdict and the balance scan that
re-derive what is already computed, kept as test oracles.

`remove_potential_cancellations` finds the letter to expand by counting
the y-items before it.  The verdict of a cell against a vertex normalizes
the cell's top element again (`top_base`) and inverts each side's base
again for the criterion (`_criterion_cell(form, tau, v)`).  The balance scan
`_undecided` decides every cell against every vertex again on each call.
The library reads the y-items by position, keeps both sides of a cell in
`ParamCell.sides` and each verdict of the scan in `ParamCell.verdicts`.
"""

from cantorg.calculus import supp_y
from cantorg.pipeline import DISPARATE, EQUIVALENT_AT, NEITHER, ParamCell, supp
from cantorg.rewrite import (
    FToken,
    _Budget,
    _expand_end,
    _is_y,
    has_potential_cancellation,
    inverse_word,
    normalize,
    split_standard,
    standardize,
)
from cantorg.special import invert_form, to_letters


def remove_potential_cancellations(items, budget=None):
    """Rewrite a word so that no neighboring pair admits a cancellation.
    Flagged pairs are resolved by expanding the shallow letter; the expansion
    offspring either separate from or exactly cancel against the deep one."""
    if budget is None:
        budget = _Budget(500_000)
    items = standardize(items, budget)
    while True:
        _, ys = split_standard(items)
        found = has_potential_cancellation(ys)
        if found is None:
            return items
        j, _ = found
        budget.spend()
        # expand the outer (shallow, later) letter of the tightest pair
        target = ys[j]
        pos = next(
            k
            for k, item in enumerate(items)
            if _is_y(item)
            and sum(_is_y(x) for x in items[:k]) == j
        )
        items[pos:pos + 1] = _expand_end(target, True)
        items = standardize(items, budget)


def top_base(cell):
    """The exact element whose coset is the top endpoint."""
    return normalize(to_letters(cell.form) + cell.tau.to_items())


def _orientations(cell):
    """The two exact parametrizations of a cell: over its base, and over
    the opposite endpoint with the inverted form."""
    yield cell.form, cell.tau, cell.bottom, cell.top
    yield invert_form(cell.form), top_base(cell), cell.top, cell.bottom


def _criterion_cell(form, tau, v):
    """The unique candidate cell at vertex v sharing the parameter, built
    whenever the parameter support misses the percolating support of the
    coset quotient; None when the supports meet."""
    g = normalize(list(v) + inverse_word(tau.to_items()))
    if not supp(form).intersect(supp_y(g)).is_null():
        return None
    tau3 = normalize([FToken(g.f.invert())] + list(v))
    return ParamCell(form, tau3)


def disparate_cell_vertex(cell, u):
    """Classify a cell against a coset vertex: (DISPARATE, None) when the
    parameter support percolates through both coset quotients,
    (EQUIVALENT_AT, cell-at-u) when the criterion applies, else
    (NEITHER, None)."""
    if not isinstance(u, tuple):
        raise TypeError("vertices are letter tuples")
    cones = supp(cell.form)
    g1 = normalize(list(u) + inverse_word(cell.tau.to_items()))
    g2 = normalize(list(u) + inverse_word(top_base(cell).to_items()))
    if cones.subset_of(supp_y(g1)) and cones.subset_of(supp_y(g2)):
        return DISPARATE, None
    for form, tau, _, _ in _orientations(cell):
        cand = _criterion_cell(form, tau, u)
        if cand is not None:
            return EQUIVALENT_AT, cand
    return NEITHER, None


def _undecided(cells, vertices):
    """Scan every cell against the tracked vertices it misses: the cells
    neither disparate from nor matched at some vertex, and whether the
    criterion produced a cell that is missing from `cells`.  A cell's scan
    stops at its first such vertex, so the vertices go in sorted order to
    make the work the same under every hash seed."""
    vertices = sorted(vertices)
    bad = set()
    missing = False
    for e in cells:
        for v in vertices:
            if e.incident(v):
                continue
            kind, cand = disparate_cell_vertex(e, v)
            if kind == DISPARATE:
                continue
            if kind == EQUIVALENT_AT:
                missing = missing or cand not in cells
                continue
            bad.add(e)
            break
    return bad, missing
