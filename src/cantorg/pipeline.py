"""Parametrized one-cells, cell systems, and the cubulation pipeline.

A one-cell of the coset complex is recorded together with a parametrization:
a special form acting over an explicit base element.  Equivalence of cells,
disparateness against vertices and against other cells, expansions, and
decoupling are all decided by exact cone combinatorics.  A system of cells is
driven through separation (making it balanced) and equivariant decoupling
(making it free), after which the incident parameters at each vertex span
clusters that assemble into a nonpositively curved cube complex.
"""

import itertools

from .binseq import ConeSet, incompatible
from .calculus import supp_y
from .complexes import (
    Cluster,
    is_one_cell,
    link_flag_check,
    maximal_cliques,
    meet_in_face,
    quotient,
    quotient_form,
    vertex_of,
)
from .rewrite import FToken, GNormal, normalize
from .special import (
    cancellation_free,
    check_sorted_forms,
    check_special,
    descends,
    expand_letter,
    from_letters,
    independent,
    invert_form,
    is_special,
    minimal_form,
    to_letters,
)
from .thompson import InternalError

DISPARATE = "Disparate"
EQUIVALENT_AT = "EquivalentCellAt"
NEITHER = "Neither"

MAX_ROUNDS = 100_000


class NonConvergenceError(RuntimeError):
    """An iterative procedure hit its round limit without stabilizing."""


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
    part restricts to the identity on each cone."""
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


class ParamCell:
    """A one-cell with a chosen parametrization: a special form over an
    explicit base element.  Cells compare equal when their endpoint pairs
    agree, whichever parametrization either carries.

    `sides` holds both exact parametrizations as (form, base normal form,
    near end, far end): the form over `tau` from `bottom` to `top`, then
    the inverted form over the top's exact element back to `bottom`.

    `verdicts` maps a vertex to what `disparate_cell_vertex` returned for
    this cell there, filled by the balance scan.  The verdict depends only
    on the parametrization, so it lives on the object: an equal cell with
    another parametrization keeps its own table."""

    def __init__(self, form, tau):
        if not isinstance(tau, GNormal):
            tau = normalize(list(tau))
        self.form = check_special(tuple(form))
        self.tau = tau
        self.bottom = vertex_of(tau.to_items())
        top = normalize(to_letters(self.form) + tau.to_items())
        self.top = top.ys
        if self.top == self.bottom:
            raise ValueError("parameter does not move the base coset")
        if not is_one_cell(self.bottom, self.top):
            raise ValueError("endpoints are not joined by a one-cell")
        self.vertices = frozenset((self.bottom, self.top))
        self.sides = (
            (self.form, tau, self.bottom, self.top),
            (invert_form(self.form), top, self.top, self.bottom),
        )
        self.verdicts = {}

    @classmethod
    def from_edge(cls, u, v):
        """The cell joining two coset vertices, based at the second."""
        return cls(from_letters(quotient_form(u, v)), normalize(list(v)))

    def __eq__(self, other):
        return isinstance(other, ParamCell) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"ParamCell({self.form!r} over {self.tau.render()})"

    def incident(self, v):
        return v in self.vertices

    def other(self, v):
        for _, _, near, far in self.sides:
            if v == near:
                return far
        raise ValueError("not an endpoint of the cell")


def param_form_at(cell, v):
    """Canonical parameter of a cell at one of its endpoints: the quotient
    of the opposite endpoint over it."""
    return from_letters(quotient_form(cell.other(v), v))


def _criterion_cell(form, g, v):
    """The unique candidate cell at vertex v sharing the parameter, built
    whenever the parameter support misses the percolating support of the
    quotient g of v over the parameter's base; else None."""
    if not supp(form).intersect(supp_y(g)).is_null():
        return None
    tau3 = normalize([FToken(g.f.invert())] + list(v))
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


def _shared_vertex(e1, e2, at):
    shared = e1.vertices & e2.vertices
    if at is not None:
        if at not in shared:
            raise ValueError("cells are not both incident to the vertex")
        return at
    if not shared:
        raise ValueError("cells share no vertex")
    return min(shared)


def disparate_pair(e1, e2, at=None):
    """Whether two cells at a shared vertex are disparate: their parameter
    cosets there must be cancellation free.  A cell is coupled with
    itself."""
    v = _shared_vertex(e1, e2, at)
    if e1 == e2:
        return False
    return cancellation_free(param_form_at(e1, v), param_form_at(e2, v))


def orthogonal_pair(e1, e2, at=None):
    """Whether the parameter supports at a shared vertex are disjoint;
    orthogonal cells are always disparate."""
    v = _shared_vertex(e1, e2, at)
    a = supp(param_form_at(e1, v))
    b = supp(param_form_at(e2, v))
    return a.intersect(b).is_null()


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
    the decomposition splits the parameter based there."""
    forms, tau = _decomposition_at(cell, at, decomposition)
    return [ParamCell(f, tau) for f in forms]


def op_expand_cell(cell, at, decomposition):
    """The mirrored expansion at the endpoint opposite to `at`: each factor
    cancels against its copy in the full product, so the i-th offspring is
    the factor based over the product of the remaining ones."""
    forms, tau = _decomposition_at(cell, at, decomposition)
    out = []
    for i, f in enumerate(forms):
        rest = [
            lt
            for j, g in enumerate(forms)
            if j != i
            for lt in to_letters(g)
        ]
        out.append(ParamCell(f, normalize(rest + tau.to_items())))
    return out


# ---------------------------------------------------------------------------
# decoupling at a vertex


def _refine_letters(seqs):
    """Expand letters across the sequences until every cross pair of
    distinct letters is free of descendant relations.  Always expanding the
    globally shallowest coupled letter keeps the round count finite:
    freeness of a pair is inherited by the children, and the gap along the
    unique descending branch shrinks each round."""
    for _ in range(MAX_ROUNDS):
        best = None
        for i, a_seq in enumerate(seqs):
            for j, b_seq in enumerate(seqs):
                if i == j:
                    continue
                for ai, a in enumerate(a_seq):
                    for b in b_seq:
                        if a != b and descends(a, b):
                            key = (len(a[0]), a[0], a[1], i, ai)
                            if best is None or key < best:
                                best = key
        if best is None:
            return
        _, sub, sign, i, ai = best
        seqs[i][ai:ai + 1] = list(expand_letter(sub, sign))
    raise InternalError("letter refinement did not terminate")


def _merge_blocks(blocks_by_cell):
    """Greedily merge adjacent blocks within each sequence while every
    merged block stays cancellation free from all blocks of the other
    sequences.  Blocks of a single sequence occupy incompatible cones, so
    they never constrain each other."""
    changed = True
    while changed:
        changed = False
        for i, blocks in enumerate(blocks_by_cell):
            for k in range(len(blocks) - 1):
                cand = blocks[k] + blocks[k + 1]
                others = [
                    b
                    for j, bl in enumerate(blocks_by_cell)
                    if j != i
                    for b in bl
                ]
                if all(cancellation_free(cand, o) for o in others):
                    blocks[k:k + 2] = [cand]
                    changed = True
                    break
            if changed:
                break


def decouple(cells, at):
    """Pairwise disparate offsprings of the given cells at a common
    vertex: each parameter there is split into blocks that are cancellation
    free from every block of the other parameters."""
    ordered = sorted(set(cells), key=lambda e: sorted(e.vertices))
    for e in ordered:
        if not e.incident(at):
            raise ValueError("cell is not incident to the vertex")
    tau = normalize(list(at))
    seqs = [list(param_form_at(e, at)) for e in ordered]
    _refine_letters(seqs)
    blocks_by_cell = [[(lt,) for lt in seq] for seq in seqs]
    _merge_blocks(blocks_by_cell)
    out = list(dict.fromkeys(
        ParamCell(tuple(b), tau) for blocks in blocks_by_cell for b in blocks
    ))
    for a, b in itertools.combinations(out, 2):
        if not disparate_pair(a, b, at):
            raise InternalError("decoupling left a coupled pair")
    return out


# ---------------------------------------------------------------------------
# systems of cells


class CellSystem:
    """A finite set of parametrized one-cells together with the finite set
    of coset vertices against which they are tracked."""

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
        return (
            isinstance(other, CellSystem)
            and self.cells == other.cells
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.cells, self.vertices))

    def __repr__(self):
        return f"CellSystem({len(self.cells)} cells, {len(self.vertices)} vertices)"

    def incident_cells(self, v):
        return sorted(
            (e for e in self.cells if e.incident(v)),
            key=lambda e: sorted(e.vertices),
        )


def _undecided(cells, vertices):
    """Scan every cell against the tracked vertices it misses: the cells
    neither disparate from nor matched at some vertex, and whether the
    criterion produced a cell that is missing from `cells`.  A cell's scan
    stops at its first such vertex, so the vertices go in sorted order to
    make the work the same under every hash seed.  Each verdict is kept per
    cell object in `verdicts` (see `ParamCell`) for the envelope's later
    scans, which see the same cell objects."""
    vertices = sorted(vertices)
    bad = set()
    missing = False
    for e in cells:
        for v in vertices:
            if e.incident(v):
                continue
            verdict = e.verdicts.get(v)
            if verdict is None:
                verdict = e.verdicts[v] = disparate_cell_vertex(e, v)
            kind, cand = verdict
            if kind == DISPARATE:
                continue
            if kind == EQUIVALENT_AT:
                missing = missing or cand not in cells
                continue
            bad.add(e)
            break
    return bad, missing


def is_balanced_system(system):
    """Every cell is, against every tracked vertex it misses, either
    disparate or matched by an equivalent cell of the system there."""
    bad, missing = _undecided(system.cells, system.vertices)
    return not bad and not missing


def is_free_system(system):
    """Balanced, with pairwise disparate cells at every tracked vertex."""
    if not is_balanced_system(system):
        return False
    for v in system.vertices:
        at_v = system.incident_cells(v)
        for a, b in itertools.combinations(at_v, 2):
            if not disparate_pair(a, b, v):
                return False
    return True


# ---------------------------------------------------------------------------
# separation: make a system balanced


def _deep_singles(cell, supports):
    """Single-letter decomposition of the parameter, expanded until no
    letter cone strictly contains a cone of any support; every letter is
    then inside or disjoint from each support."""
    letters = list(cell.form)
    for _ in range(MAX_ROUNDS):
        idx = None
        for i, (s, _) in enumerate(letters):
            if any(
                len(u) > len(s) and u.startswith(s)
                for sup in supports
                for u in sup.cones
            ):
                idx = i
                break
        if idx is None:
            return letters
        s, t = letters[idx]
        letters[idx:idx + 1] = list(expand_letter(s, t))
    raise InternalError("support unwinding did not terminate")


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


def _make_balanced(cells, vertices, max_iters=8):
    """Close the cells under equivalence at the tracked vertices, expanding
    two-sidedly exactly those cells that stay undecided against some vertex,
    until the system is balanced.  Balanced input is a fixpoint."""
    cells = set(cells)
    for _ in range(max_iters):
        bad, missing = _undecided(cells, vertices)
        if not bad and not missing:
            return cells
        if bad:
            for e in sorted(bad, key=lambda c: sorted(c.vertices)):
                cells.discard(e)
                cells.update(_two_sided_offsprings(e, vertices))
        cells = _closure(cells, vertices)
    raise NonConvergenceError("separation rounds exceeded without balance")


def separation_procedure(system, max_iters=8):
    """Split every undecided cell two-sidedly along the support boundaries
    of the tracked vertices and close under equivalence at those vertices,
    repeating until the system is balanced."""
    cells = _make_balanced(system.cells, system.vertices, max_iters)
    return CellSystem(cells, system.vertices)


# ---------------------------------------------------------------------------
# equivariant decoupling: make a balanced system free


def _coupled_component(cells_at_v, at):
    """A connected component of the coupling graph containing an edge, as a
    list of cells, or None when the graph is edgeless."""
    n = len(cells_at_v)
    adj = {i: set() for i in range(n)}
    for i, j in itertools.combinations(range(n), 2):
        if not disparate_pair(cells_at_v[i], cells_at_v[j], at):
            adj[i].add(j)
            adj[j].add(i)
    for i in range(n):
        if not adj[i]:
            continue
        seen = {i}
        queue = [i]
        while queue:
            k = queue.pop()
            for m in adj[k]:
                if m not in seen:
                    seen.add(m)
                    queue.append(m)
        return [cells_at_v[k] for k in sorted(seen)]
    return None


def equivariant_decoupling(system, max_iters=100):
    """Decouple every coupled component, mirroring each decomposition at
    every tracked vertex carrying an equivalent cell, until all coupling
    graphs are edgeless."""
    if not is_balanced_system(system):
        raise ValueError("system is not balanced")
    cells = set(system.cells)
    vertices = system.vertices
    for _ in range(max_iters):
        ordered = sorted(cells, key=lambda c: sorted(c.vertices))
        for v in sorted(vertices):
            comp = _coupled_component([e for e in ordered if e.incident(v)], v)
            if comp is not None:
                break
        else:
            out = CellSystem(cells, vertices)
            if not is_free_system(out):
                raise InternalError("edgeless coupling graphs but not free")
            return out
        offsprings = decouple(comp, v)
        stale = {
            p
            for p in cells
            if p not in comp
            and any(equivalent_cells(p, e) is not None for e in comp)
        }
        cells = (cells - set(comp) - stale) | set(offsprings)
        cells = _make_balanced(cells, vertices)
    raise NonConvergenceError("decoupling rounds exceeded")


# ---------------------------------------------------------------------------
# cubulation of a free system


class ClusterCubeComplex:
    """A union of clusters with pairwise facial intersections and flag
    links: the data of a nonpositively curved cube complex."""

    def __init__(self, clusters, flag_report):
        self.clusters = frozenset(clusters)
        self.flag_report = dict(flag_report)

    @property
    def vertices(self):
        return frozenset().union(*(c.vertices for c in self.clusters))

    def __repr__(self):
        return (
            f"ClusterCubeComplex({len(self.clusters)} clusters, "
            f"{len(self.vertices)} vertices)"
        )


def _independent_subsets(forms, cap=16):
    """The maximal pairwise independent subsets of the forms, none when
    there are none: the maximal cliques of the graph "two forms are
    independent", by size and then by index."""
    if len(forms) > cap:
        raise InternalError("too many parameters at one vertex")
    adj = [0] * len(forms)
    for i, j in itertools.combinations(range(len(forms)), 2):
        if independent(forms[i], forms[j]):
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    cliques = sorted(
        ([i for i in range(len(forms)) if mask >> i & 1]
         for mask in maximal_cliques(adj) if mask),
        key=lambda ids: (len(ids), ids),
    )
    return [tuple(forms[i] for i in ids) for ids in cliques]


def cubulate(system, max_dim=None):
    """Span clusters by the parameters of the system at each tracked
    vertex, keep the maximal ones, and index them by vertex.  Every two
    clusters that share a vertex must meet in a common face (the face
    criterion, see `complexes`), and the link at every vertex, over the
    clusters there, must be a flag complex."""
    if not is_free_system(system):
        raise ValueError("system is not free")
    clusters = set()
    for v in sorted(system.vertices):
        forms = sorted(
            {param_form_at(e, v) for e in system.incident_cells(v)}
        )
        for combo in _independent_subsets(forms):
            params = tuple(sorted(combo, key=lambda f: f[0][0]))
            if max_dim is not None and len(params) > max_dim:
                raise ValueError("cluster dimension exceeds the bound")
            try:
                clusters.add(Cluster(normalize(list(v)), params))
            except ValueError as exc:
                raise InternalError(f"parameters failed to span: {exc}")
    clusters = {
        c
        for c in clusters
        if not any(
            c is not d and c.vertices <= d.vertices and c.edges <= d.edges
            for d in clusters
        )
    }
    ordered = sorted(clusters, key=lambda c: sorted(c.vertices))
    at_vertex = {}
    for i, c in enumerate(ordered):
        for v in c.vertices:
            at_vertex.setdefault(v, []).append(i)
    pairs = {pair for ids in at_vertex.values()
             for pair in itertools.combinations(ids, 2)}
    for i, j in sorted(pairs):
        if not meet_in_face(ordered[i], ordered[j]):
            raise InternalError("cluster intersection is not a common face")
    flag_report = {}
    for v in sorted(at_vertex):
        ok, witness = link_flag_check([ordered[i] for i in at_vertex[v]], v)
        flag_report[v] = (ok, witness)
        if not ok:
            raise InternalError("vertex link is not a flag complex")
    return ClusterCubeComplex(clusters, flag_report)


# ---------------------------------------------------------------------------
# the envelope of a subcomplex


def envelope(clusters, max_sep_iters=8, max_dec_iters=100, max_dim=None):
    """Run separation, decoupling and cubulation on the one-skeleton of a
    finite union of clusters, and verify the union embeds in the output."""
    clusters = list(clusters)
    if not clusters:
        return ClusterCubeComplex((), {})
    cells = set()
    vertices = set()
    for c in clusters:
        vertices |= c.vertices
        for edge in c.edges:
            a, b = sorted(edge)
            cells.add(ParamCell.from_edge(b, a))
    system = CellSystem(cells, vertices)
    balanced = separation_procedure(system, max_iters=max_sep_iters)
    free = equivariant_decoupling(balanced, max_iters=max_dec_iters)
    complex_ = cubulate(free, max_dim=max_dim)
    for c in clusters:
        if not any(
            c.vertices <= d.vertices and c.edges <= d.edges
            for d in complex_.clusters
        ):
            raise InternalError("input cluster missing from the output complex")
    return complex_
