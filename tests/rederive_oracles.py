"""Versions of the rewriter, the reading of a cell at a vertex and the
balance scan that re-derive what is already computed, kept as test
oracles.

`remove_potential_cancellations` finds the letter to expand by counting
the y-items before it.  `disparate_cell_vertex`, `equivalent_cells`,
`_closure` and `_two_sided_offsprings` each compute the quotient of a
vertex over every side's base again, and `_criterion_cell(form, g, v)`
takes its support again; `top_base` normalizes a cell's top element again.
The balance scan `_undecided` decides every cell against every vertex
again on each call, and `_closure` is a second scan that adds the
criterion cells; the library finds both in one scan.  The library expands
the first item that has the flagged subscript, keeps both sides of a cell
in `ParamCell.sides` and reads a cell at a vertex once per
parametrization, through `ParamCell.at`.  `_two_sided_offsprings` expands
both sides of a cell, also a side whose near end is not tracked.
"""

from cantorg.calculus import supp_y
from cantorg.complexes import quotient
from cantorg.pipeline import (
    DISPARATE,
    EQUIVALENT_AT,
    NEITHER,
    ParamCell,
    _deep_singles,
    supp,
)
from cantorg.rewrite import (
    _Budget,
    _expand_end,
    _is_y,
    has_potential_cancellation,
    normalize,
    split_standard,
    standardize,
)
from cantorg.special import to_letters


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


def _criterion_cell(form, g, v):
    """The unique candidate cell at vertex v sharing the parameter, built
    whenever the parameter support misses the percolating support of the
    quotient g of v over the parameter's base; else None."""
    if not supp(form).intersect(supp_y(g)).is_null():
        return None
    tau3 = normalize([g.f.invert()] + list(v))
    return ParamCell(form, tau3)


def equivalent_cells(e1, e2):
    """Associated vertex pairs when the two cells are equivalent, else None.
    Returns ((a, b), (c, d)) with a, c endpoints of e1 and b, d the matching
    endpoints of e2."""
    for form, base, near, far in e1.sides:
        for u in (e2.bottom, e2.top):
            cand = _criterion_cell(form, quotient(u, base.to_items()), u)
            if cand is not None and cand == e2:
                return ((near, u), (far, e2.other(u)))
    return None


def disparate_cell_vertex(cell, u):
    """Classify a cell against a coset vertex: (DISPARATE, None) when the
    parameter support percolates through both coset quotients,
    (EQUIVALENT_AT, cell-at-u) when the criterion applies, else
    (NEITHER, None)."""
    if not isinstance(u, tuple):
        raise TypeError("vertices are letter tuples")
    cones = supp(cell.form)
    quotients = [quotient(u, base.to_items()) for _, base, _, _ in cell.sides]
    if all(cones.subset_of(supp_y(g)) for g in quotients):
        return DISPARATE, None
    for (form, _, _, _), g in zip(cell.sides, quotients):
        cand = _criterion_cell(form, g, u)
        if cand is not None:
            return EQUIVALENT_AT, cand
    return NEITHER, None


def _two_sided_offsprings(cell, vertices):
    """Two-sided expansion of a cell into single letters deep enough to be
    decided against every tracked vertex on both sides."""
    supports = [
        supp_y(quotient(v, base.to_items()))
        for v in vertices
        for _, base, _, _ in cell.sides
    ]
    letters = _deep_singles(cell, supports)
    top = cell.sides[1][1]
    out = [ParamCell((lt,), cell.tau) for lt in letters]
    out.extend(ParamCell(((s, -t),), top) for s, t in letters)
    return out


def _closure(cells, vertices):
    """Add, for every cell and tracked vertex, the equivalent cell there
    whenever the criterion produces one.  Equal cells may differ in their
    parametrization; the scan is sorted so that the one kept does not
    depend on the hash seed."""
    out = set(cells)
    vertices = sorted(vertices)
    for e in sorted(cells, key=lambda c: sorted(c.vertices)):
        for form, base, _, _ in e.sides:
            for v in vertices:
                cand = _criterion_cell(form, quotient(v, base.to_items()), v)
                if cand is not None:
                    out.add(cand)
    return out


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
            if v in e.vertices:
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
