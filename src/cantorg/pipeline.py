"""Parametrized one-cells, cell systems, and the cubulation pipeline.

A one-cell of the coset complex is recorded together with a parametrization:
a special form acting over an explicit base element.  Equivalence of cells,
disparateness against vertices and against other cells, expansions, and
decoupling are all decided by exact cone combinatorics.  A system of cells is
driven through separation (making it balanced) and equivariant decoupling
(making it free), after which the incident parameters at each vertex span
clusters that assemble into a nonpositively curved cube complex.  Each phase
reads the balance and coupled-vertex verdicts of the system it is handed.
A parametrization is built into a cell once per process, so what a cell
reads at a vertex, and its parameter at each end, is derived once for every
envelope that meets it; the quotient of a vertex over a base, which cells
with one base share, is kept too.  Both are bounded least-recently-used
memos (`functools.lru_cache`), as every process-global memo of the package
is.
"""

import functools
import itertools

from .binseq import ConeSet, incompatible
from .calculus import supp_y
from .complexes import (
    Cluster,
    link_flag_check,
    maximal_cliques,
    meet_in_face,
    quotient,
    quotient_word,
)
from .rewrite import GNormal, normalize, normalize_onto
from .special import (
    cancellation_free,
    check_sorted_forms,
    check_special,
    descends,
    from_letters,
    independent,
    invert_form,
    is_special,
    minimal_form,
    split_while,
    to_letters,
)
from .thompson import IDENTITY, InternalError

DISPARATE = "Disparate"
EQUIVALENT_AT = "EquivalentCellAt"
NEITHER = "Neither"

# rounds of separation and of decoupling before a NonConvergenceError
SEPARATION_ROUNDS = 8
DECOUPLING_ROUNDS = 100


class NonConvergenceError(RuntimeError):
    """An iterative procedure hit its round limit without stabilizing."""


def _by_vertices(item):
    """The order in which cells are scanned: by their sorted vertices, so
    that no scan depends on the hash seed.  Clusters are taken in the order
    `cubulate` builds them."""
    return sorted(item.vertices)


# ---------------------------------------------------------------------------
# supports and the nullset test


def supp(form):
    """Union of the letter cones of a special form.  Expanding a letter
    replaces its cone by the three child cones covering it exactly, so the
    support is shared by all equivalent forms."""
    return ConeSet([s for s, _ in check_special(form)])


def null_intersect(cones, g):
    """Whether a group element pointwise-fixes every cone of the set: no
    percolating letter of its normal form meets a cone, and the tree-pair
    part restricts to the identity on each cone (the paper's nullset)."""
    if not isinstance(cones, ConeSet):
        raise TypeError("null_intersect takes a ConeSet")
    if not isinstance(g, GNormal):
        raise TypeError("null_intersect takes a normal form")
    for c in cones.cones:
        if any(not incompatible(c, lt.sub) for lt in g.ys):
            return False
        if not g.f.fixes_cone(c):
            return False
    return True


# ---------------------------------------------------------------------------
# parametrized one-cells


# the cells that `_cell` keeps, by parametrization (form, normalized base)
CELL_CACHE_SIZE = 4096


class ParamCell:
    """A one-cell with a chosen parametrization: a special form over an
    explicit base element.  Cells compare equal when their endpoint pairs
    agree, whichever parametrization either carries.

    A process holds one object per parametrization: the constructor hands
    out the cell already built for the same form and base, from the memo
    `_cell` of the `CELL_CACHE_SIZE` most recently used, and builds and
    checks only a new one.

    `sides` holds both exact parametrizations as (form, base normal form,
    near end, far end): the form over `tau` from `bottom` to `top`, then
    the inverted form over the top's exact element back to `bottom`.  Both
    forms have the cones of `support` (see `supp`).  Distinct ends span a
    one-cell: their quotient is the inverted form moved by the top's
    F-factor, and F keeps cones adjacent, in order and nonconstant.

    `readings` maps a vertex to what `at` read there.  The reading depends
    only on the parametrization, so every holder of the object shares it:
    an equal cell with another parametrization keeps its own table.
    `params` maps an end to the canonical parameter there, which
    `param_form_at` computes once per end."""

    def __new__(cls, form, tau):
        if not isinstance(tau, GNormal):
            tau = normalize(list(tau))
        return _cell(tuple(form), tau)

    @classmethod
    def from_edge(cls, u, v):
        """The cell joining two coset vertices, based at the second."""
        return cls(from_letters(quotient(u, v).ys), GNormal(IDENTITY, v))

    def __eq__(self, other):
        return isinstance(other, ParamCell) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"ParamCell({self.form!r} over {self.tau.render()})"

    def other(self, v):
        for _, _, near, far in self.sides:
            if v == near:
                return far
        raise ValueError("not an endpoint of the cell")

    def at(self, v):
        """The cell read at a coset vertex, once: for each of `sides`, the
        cones of the quotient of v over the side's base and the criterion
        cell at v or None (see `_criterion_cell`)."""
        reading = self.readings.get(v)
        if reading is None:
            reading = self.readings[v] = tuple(
                _criterion_cell(self.support, form, base, v)
                for form, base, _, _ in self.sides
            )
        return reading


@functools.lru_cache(maxsize=CELL_CACHE_SIZE)
def _cell(form, tau):
    """Build and check the cell of one parametrization (see `ParamCell`)."""
    cell = object.__new__(ParamCell)
    cell.form = check_special(form)
    cell.support = supp(cell.form)
    cell.tau = tau
    cell.bottom = tau.ys
    top = normalize_onto(to_letters(cell.form), tau)
    cell.top = top.ys
    if cell.top == cell.bottom:
        raise ValueError("parameter does not move the base coset")
    cell.vertices = frozenset((cell.bottom, cell.top))
    cell.sides = (
        (cell.form, tau, cell.bottom, cell.top),
        (invert_form(cell.form), top, cell.top, cell.bottom),
    )
    cell.readings = {}
    cell.params = {}
    return cell


def param_form_at(cell, v):
    """Canonical parameter of a cell at one of its endpoints: the quotient
    of the opposite endpoint over it, kept in the cell's `params`."""
    form = cell.params.get(v)
    if form is None:
        form = cell.params[v] = from_letters(quotient(cell.other(v), v).ys)
    return form


# the quotients of a vertex over a base that `_quotient_cones` keeps.  The
# envelope of the 14-dimensional draw `y[01] ; y[01100] ; y[10] || y[01] ;
# y[011]` keeps 1,714
QUOTIENT_CACHE_SIZE = 16_384


@functools.lru_cache(maxsize=QUOTIENT_CACHE_SIZE)
def _quotient_cones(base, v):
    """The quotient g of vertex v over a base normal form, with the cones
    of its percolating support.  It is the only reader of each pair, so
    the quotient is computed here and not kept under the pair as well."""
    g = normalize(quotient_word(v, base.to_items()))
    return g, supp_y(g)


def _criterion_cell(support, form, base, v):
    """The cones of the percolating support of the quotient g of vertex v
    over a parameter's base, and the unique candidate cell at v sharing
    the parameter, built whenever the parameter's support misses those
    cones; else None in its place.  The cells of an envelope share bases,
    so g and its cones come from `_quotient_cones`."""
    g, cones = _quotient_cones(base, v)
    if not support.intersect(cones).is_null():
        return cones, None
    return cones, ParamCell(form, GNormal(g.f.invert(), v))


def equivalent_cells(e1, e2):
    """Associated vertex pairs when the two cells are equivalent, else None.
    Returns ((a, b), (c, d)) with a, c endpoints of e1 and b, d the matching
    endpoints of e2."""
    for side, (_, _, near, far) in enumerate(e1.sides):
        for u in (e2.bottom, e2.top):
            _, cand = e1.at(u)[side]
            if cand is not None and cand == e2:
                return ((near, u), (far, e2.other(u)))
    return None


def disparate_cell_vertex(cell, u):
    """Classify a cell against a coset vertex by its reading there:
    (DISPARATE, None) when the parameter support percolates through both
    coset quotients, (EQUIVALENT_AT, cell-at-u) when the criterion
    applies, else (NEITHER, None)."""
    if not isinstance(u, tuple):
        raise TypeError("vertices are letter tuples")
    reading = cell.at(u)
    if all(cell.support.subset_of(cones) for cones, _ in reading):
        return DISPARATE, None
    for _, cand in reading:
        if cand is not None:
            return EQUIVALENT_AT, cand
    return NEITHER, None


def disparate_pair(e1, e2):
    """Whether two cells at a shared vertex are disparate: their parameter
    cosets there must be cancellation free.  Cells compare by their ends,
    so two distinct cells share at most one, which fixes the vertex; a
    cell is coupled with itself."""
    if e1 == e2:
        return False
    shared = e1.vertices & e2.vertices
    if not shared:
        raise ValueError("cells share no vertex")
    (v,) = shared
    return cancellation_free(param_form_at(e1, v), param_form_at(e2, v))


# ---------------------------------------------------------------------------
# expansions


def check_decomposition(forms, target):
    """A decomposition of a parameter: sorted, pairwise independent special
    forms whose concatenation is a special form equivalent to the target."""
    forms = check_sorted_forms(forms)
    flat = tuple(lt for f in forms for lt in f)
    if not is_special(flat):
        raise ValueError("decomposition does not concatenate to a special form")
    if minimal_form(flat) != minimal_form(tuple(target)):
        raise ValueError("decomposition does not multiply to the parameter")
    return forms


def _decomposition_at(cell, at, decomposition):
    """The checked decomposition of the parameter based at endpoint `at`,
    together with that base."""
    for form, base, near, _ in cell.sides:
        if at == near:
            return check_decomposition(decomposition, form), base
    raise ValueError("expansion base is not an endpoint of the cell")


def expand_cell(cell, at, decomposition):
    """Facial one-cells of the expansion of a cell at one of its endpoints;
    the decomposition splits the parameter based there, and spans there the
    cluster of the paper's expansion of the cell."""
    forms, tau = _decomposition_at(cell, at, decomposition)
    return [ParamCell(f, tau) for f in forms]


def op_expand_cell(cell, at, decomposition):
    """The mirrored expansion at the endpoint opposite to `at`: each factor
    cancels against its copy in the full product, so the i-th offspring is
    the factor based over the product of the remaining ones: the expansion's
    cluster at the cell's far end."""
    forms, tau = _decomposition_at(cell, at, decomposition)
    out = []
    for i, f in enumerate(forms):
        rest = [
            lt
            for j, g in enumerate(forms)
            if j != i
            for lt in to_letters(g)
        ]
        out.append(ParamCell(f, normalize_onto(rest, tau)))
    return out


# ---------------------------------------------------------------------------
# decoupling at a vertex


def _refine_letters(seqs):
    """The sequences with letters expanded until none strictly descends to
    a letter of another sequence as given.  This expands the same letters
    as expanding across the current letters: an expansion elsewhere only
    adds descendants of letters as given, so a letter that strictly
    descends to one keeps doing so until it is expanded, and a letter that
    descends to none never needs expanding, since the letters of one
    special form have pairwise disjoint cones."""
    out = []
    for i, seq in enumerate(seqs):
        others = [b for j, bs in enumerate(seqs) if j != i for b in bs]
        out.append(split_while(
            seq, lambda a: any(a != b and descends(a, b) for b in others)))
    return out


def _merge_blocks(by_cell):
    """Merge adjacent blocks of each sequence in one left-to-right pass
    while the merged block stays cancellation free from every block of the
    other sequences; blocks of one sequence have incompatible cones.  The
    pass stays at a block after a merge and moves on after a failure, as a
    failed merge never succeeds later: minimal_form(A + B) contracts
    minimal_form(A) + B, so each letter of minimal_form(A) descends from
    one of its letters, and an ancestor of a letter related to another
    letter is still related to it."""
    for i, blocks in enumerate(by_cell):
        others = [b for j, bs in enumerate(by_cell) if j != i for b in bs]
        k = 0
        while k < len(blocks) - 1:
            cand = blocks[k] + blocks[k + 1]
            if all(cancellation_free(cand, o) for o in others):
                blocks[k:k + 2] = [cand]
            else:
                k += 1


def decouple(cells, at):
    """Pairwise disparate offsprings of the given cells at a common
    vertex: each parameter there is split into blocks that are cancellation
    free from every block of the other parameters."""
    ordered = sorted(set(cells), key=_by_vertices)
    if any(at not in e.vertices for e in ordered):
        raise ValueError("cell is not incident to the vertex")
    tau = GNormal(IDENTITY, at)
    seqs = _refine_letters([param_form_at(e, at) for e in ordered])
    blocks_by_cell = [[(lt,) for lt in seq] for seq in seqs]
    _merge_blocks(blocks_by_cell)
    out = list(dict.fromkeys(
        ParamCell(tuple(b), tau) for blocks in blocks_by_cell for b in blocks
    ))
    for a, b in itertools.combinations(out, 2):
        if not disparate_pair(a, b):
            raise InternalError("decoupling left a coupled pair")
    return out


# ---------------------------------------------------------------------------
# systems of cells


class CellSystem:
    """A finite set of parametrized one-cells together with the finite set
    of coset vertices against which they are tracked.  A system decides its
    balance (`undecided`) and its coupled vertex (`coupled`) once each."""

    def __init__(self, cells, vertices):
        cells = frozenset(cells)
        vertices = frozenset(vertices)
        for e in cells:
            if not isinstance(e, ParamCell):
                raise TypeError("system cells must be parametrized cells")
            if not (e.vertices & vertices):
                raise ValueError("system cell misses the vertex set")
        for v in vertices:
            if not isinstance(v, tuple):
                raise TypeError("system vertices are letter tuples")
        self.cells = cells
        self.vertices = vertices

    def __eq__(self, other):
        return (isinstance(other, CellSystem) and self.cells == other.cells
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.cells, self.vertices))

    def __repr__(self):
        return f"CellSystem({len(self.cells)} cells, {len(self.vertices)} vertices)"

    def incident_cells(self, v):
        return sorted((e for e in self.cells if v in e.vertices),
                      key=_by_vertices)

    @functools.cached_property
    def undecided(self):
        """One separation scan of the system (see `_undecided`)."""
        return _undecided(self.cells, self.vertices)

    @functools.cached_property
    def coupled(self):
        """The first tracked vertex, in sorted order, whose coupling graph
        has an edge, with a coupled component there; else None."""
        for v in sorted(self.vertices):
            comp = _coupled_component(self.incident_cells(v))
            if comp is not None:
                return v, comp
        return None


def _undecided(cells, vertices):
    """One separation scan of every cell against the tracked vertices it
    misses: the cells neither disparate from nor matched at some vertex,
    and the criterion cells that the other cells give at those vertices,
    side by side.  At a cell's own ends the criterion gives the cell itself
    or nothing.  A cell's scan stops at its first undecided vertex, so cells
    and vertices go in sorted order to make the work, and which of equal
    criterion cells comes first, the same under every hash seed."""
    vertices = sorted(vertices)
    bad = []
    found = []
    for e in sorted(cells, key=_by_vertices):
        readings = []
        for v in vertices:
            if v in e.vertices:
                continue
            if disparate_cell_vertex(e, v)[0] == NEITHER:
                bad.append(e)
                break
            readings.append(e.at(v))
        else:
            found.extend(cand for on_side in zip(*readings)
                         for _, cand in on_side if cand is not None)
    return bad, found


def is_balanced_system(system):
    """No cell is undecided against a tracked vertex it misses, and every
    criterion cell there is already in the system."""
    bad, found = system.undecided
    return not bad and system.cells.issuperset(found)


def is_free_system(system):
    """Balanced, with pairwise disparate cells at every tracked vertex."""
    return is_balanced_system(system) and system.coupled is None


# ---------------------------------------------------------------------------
# separation: make a system balanced


def _deep_singles(cell, supports):
    """Single-letter decomposition of the parameter, expanded until no
    letter cone strictly contains a cone of any support; every letter is
    then inside or disjoint from each support."""
    cones = [u for sup in supports for u in sup.cones]
    return split_while(cell.form, lambda lt: any(
        len(u) > len(lt[0]) and u.startswith(lt[0]) for u in cones))


def _two_sided_offsprings(cell, vertices):
    """Two-sided expansion of a cell into single letters deep enough to be
    decided against every tracked vertex on both sides.  A side's offsprings
    end at its near end, so they are built only where that end is tracked."""
    supports = [cones for v in vertices for cones, _ in cell.at(v)]
    letters = _deep_singles(cell, supports)
    return [
        ParamCell(((s, sign * t),), base)
        for sign, (_, base, near, _) in zip((1, -1), cell.sides)
        if near in vertices
        for s, t in letters
    ]


def separation_procedure(system):
    """Split every undecided cell two-sidedly along the support boundaries
    of the tracked vertices and add the criterion cells the others give
    there, one scan a round, until the system is balanced; balanced input
    is returned as it is."""
    for _ in range(SEPARATION_ROUNDS):
        if is_balanced_system(system):
            return system
        bad, found = system.undecided
        cells = set(system.cells)
        for e in bad:
            cells.discard(e)
            cells.update(_two_sided_offsprings(e, system.vertices))
        cells.update(found)
        system = CellSystem(cells, system.vertices)
    raise NonConvergenceError("separation rounds exceeded without balance")


# ---------------------------------------------------------------------------
# equivariant decoupling: make a balanced system free


def _coupled_component(cells_at_v):
    """A connected component of the coupling graph containing an edge, as a
    list of cells, or None when the graph is edgeless."""
    n = len(cells_at_v)
    adj = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if not disparate_pair(cells_at_v[i], cells_at_v[j]):
            adj[i].add(j)
            adj[j].add(i)
    for i in range(n):
        if adj[i]:
            seen, queue = {i}, [i]
            while queue:
                for m in adj[queue.pop()] - seen:
                    seen.add(m)
                    queue.append(m)
            return [cells_at_v[k] for k in sorted(seen)]
    return None


def equivariant_decoupling(system):
    """Decouple every coupled component, mirroring each decomposition at
    every tracked vertex carrying an equivalent cell, until all coupling
    graphs are edgeless."""
    if not is_balanced_system(system):
        raise ValueError("system is not balanced")
    for _ in range(DECOUPLING_ROUNDS):
        if system.coupled is None:
            return system
        v, comp = system.coupled
        offsprings = decouple(comp, v)
        stale = {
            p
            for p in system.cells
            if p not in comp
            and any(equivalent_cells(p, e) is not None for e in comp)
        }
        cells = (system.cells - set(comp) - stale) | set(offsprings)
        system = separation_procedure(CellSystem(cells, system.vertices))
    raise NonConvergenceError("decoupling rounds exceeded")


# ---------------------------------------------------------------------------
# cubulation of a free system


class ClusterCubeComplex:
    """A union of clusters with pairwise facial intersections and flag
    links: the data of a nonpositively curved cube complex."""

    def __init__(self, clusters):
        self.clusters = frozenset(clusters)

    @functools.cached_property
    def vertices(self):
        return frozenset().union(*(c.vertices for c in self.clusters))

    @property
    def flag_report(self):
        """The flag verdict at every vertex, always (True, None): `cubulate`
        raises at the first link that is not flag, so a complex it returns
        has flag links only.  The table stays because the benchmark
        workloads, the envelope digest test and `cantorg cubulate` read
        it."""
        return dict.fromkeys(self.vertices, (True, None))

    def __repr__(self):
        return (f"ClusterCubeComplex({len(self.clusters)} clusters, "
                f"{len(self.vertices)} vertices)")


def _independent_subsets(forms):
    """The maximal pairwise independent subsets of the forms, the empty
    subset when there are no forms: the maximal cliques of the graph "two
    forms are independent", by size and then by index."""
    adj = [0] * len(forms)
    for i, j in itertools.combinations(range(len(forms)), 2):
        if independent(forms[i], forms[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cliques = sorted(
        ([i for i in range(len(forms)) if mask >> i & 1]
         for mask in maximal_cliques(adj)),
        key=lambda ids: (len(ids), ids),
    )
    return [tuple(forms[i] for i in ids) for ids in cliques]


def cubulate(system, max_dim=None):
    """Span clusters by the parameters of the system at each tracked
    vertex, build only the maximal ones, and index them by vertex, in the
    order of the sorted spans and of each one's corners, which no hash seed
    changes.  Every two clusters that share a vertex must meet in a common
    face (the face criterion, see `complexes`), and the link at every
    vertex, over the clusters there, must be a flag complex.  The largest
    cluster is checked against `max_dim` before any is built.  Each cluster
    holds every ambient edge among its vertices, so meets and links are
    read off vertex sets and corner indices: no cluster's `edges` is ever
    built.

    A span is a tracked vertex v with a maximal independent set of its
    parameters.  Spans are taken by descending size, with a stable sort, so
    each vertex keeps its own order.  A span is skipped when a cluster C
    built before it has v and every f.v (f in the span) as vertices; it is
    then a subcluster of C.  C holds every ambient edge among its vertices,
    so each {v, f.v} is an index interval I_f of C at v's corner (the
    interval lemma), and independent forms give disjoint intervals, so
    every subset-product of the span at v is a corner of C.  The test is
    exact, and a larger span comes first, so no kept cluster lies in
    another.  Spans of one vertex set have one size, and of them the first
    in scan order is built."""
    if not is_free_system(system):
        raise ValueError("system is not free")
    spans = sorted(
        ((v, combo)
         for v in sorted(system.vertices)
         for combo in _independent_subsets(
             sorted({param_form_at(e, v) for e in system.incident_cells(v)})
         )),
        key=lambda span: -len(span[1]),
    )
    dim = len(spans[0][1]) if spans else 0
    if max_dim is not None and dim > max_dim:
        raise ValueError(f"a cluster of dimension {dim} exceeds the bound "
                         f"of {max_dim}")
    clusters = []
    for v, combo in spans:
        base = GNormal(IDENTITY, v)
        ends = [v] + [normalize_onto(to_letters(f), base).ys for f in combo]
        if any(all(w in c.mask_of for w in ends) for c in clusters):
            continue
        try:
            clusters.append(Cluster(base, combo))
        except ValueError as exc:
            raise InternalError(f"parameters failed to span: {exc}")
    at_vertex = {}
    for i, c in enumerate(clusters):
        for v in c.corners:
            at_vertex.setdefault(v, []).append(i)
    pairs = {pair for ids in at_vertex.values()
             for pair in itertools.combinations(ids, 2)}
    for i, j in sorted(pairs):
        if not meet_in_face(clusters[i], clusters[j]):
            raise InternalError("cluster intersection is not a common face")
    for v, ids in at_vertex.items():
        ok, witness = link_flag_check([clusters[i] for i in ids], v)
        if not ok:
            raise InternalError(
                "vertex link is not a flag complex at "
                f"{GNormal(IDENTITY, v).render()}: a witness of "
                f"{len(witness)} edges spans no corner")
    return ClusterCubeComplex(clusters)


# ---------------------------------------------------------------------------
# the envelope of a subcomplex


def envelope(clusters, max_dim=None):
    """Run separation, decoupling and cubulation on the one-skeleton of a
    finite union of clusters, and verify the union embeds in the output."""
    clusters = list(clusters)
    if not clusters:
        return ClusterCubeComplex(())
    cells = set()
    vertices = set()
    for c in clusters:
        vertices |= c.vertices
        for edge in c.edges:
            a, b = sorted(edge)
            cells.add(ParamCell.from_edge(b, a))
    system = CellSystem(cells, vertices)
    balanced = separation_procedure(system)
    free = equivariant_decoupling(balanced)
    complex_ = cubulate(free, max_dim=max_dim)
    for c in clusters:
        if not any(c.vertices <= d.vertices for d in complex_.clusters):
            raise InternalError("input cluster missing from the output complex")
    return complex_
