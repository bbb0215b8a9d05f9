import itertools

import pytest

from cantorg.binseq import ConeSet
from cantorg.cli import parse_word
from cantorg.complexes import Cluster, vertex_of
from cantorg.pipeline import (
    DISPARATE,
    EQUIVALENT_AT,
    NEITHER,
    CellSystem,
    ParamCell,
    check_decomposition,
    cubulate,
    decouple,
    disparate_cell_vertex,
    disparate_pair,
    envelope,
    equivalent_cells,
    equivariant_decoupling,
    expand_cell,
    is_balanced_system,
    is_free_system,
    null_intersect,
    op_expand_cell,
    orthogonal_pair,
    separation_procedure,
    supp,
)
from cantorg.rewrite import normalize
from cantorg.special import from_letters


def form_of(text):
    return from_letters(parse_word(text))


def pc(form_text, tau_text=""):
    return ParamCell(form_of(form_text), normalize(parse_word(tau_text)))


def v(text):
    return vertex_of(parse_word(text))


def cl(base_text, *param_texts):
    return Cluster(
        normalize(parse_word(base_text)),
        tuple(form_of(p) for p in param_texts),
    )


TRIV = v("")


def test_null_intersect_examples():
    cones = ConeSet(["10"])
    assert null_intersect(cones, normalize(parse_word("y[01]")))
    assert not null_intersect(cones, normalize(parse_word("y[100]")))
    assert null_intersect(cones, normalize(parse_word("x[01]")))
    assert not null_intersect(cones, normalize(parse_word("x[1]")))


def test_supp_invariant_under_expansion():
    assert supp(form_of("y[10]")) == supp(form_of("y[100] y[1010]^-1 y[1011]"))


def test_param_cell_basics():
    e = pc("y[10]")
    assert e.bottom == TRIV and e.top == v("y[10]")
    assert e == ParamCell.from_edge(v("y[10]"), TRIV)
    assert e.other(e.top) == e.bottom
    with pytest.raises(ValueError):
        pc("y[10] y[10]^-1")  # not a special form


def test_equivalent_cells_example():
    e1 = pc("y[10]")
    e2 = pc("y[10]", "y[01]")
    got = equivalent_cells(e1, e2)
    assert got == ((TRIV, v("y[01]")), (v("y[10]"), v("y[10] y[01]")))
    # symmetric
    assert equivalent_cells(e2, e1) is not None


def test_equivalent_cells_negative_and_reflexive():
    # distinct cells sharing a vertex are never equivalent
    assert equivalent_cells(pc("y[01]"), pc("y[10]")) is None
    e = pc("y[10]")
    assert equivalent_cells(e, e) == ((TRIV, TRIV), (v("y[10]"), v("y[10]")))


def test_doteq_is_equivalence_on_samples():
    e = pc("y[10]")
    family = [e]
    for base in ("y[01]", "y[011]", "y[01]^2"):
        kind, cand = disparate_cell_vertex(e, v(base))
        assert kind == EQUIVALENT_AT
        family.append(cand)
    for a, b in itertools.permutations(family, 2):
        assert equivalent_cells(a, b) is not None


def test_disparate_cell_vertex_examples():
    e = pc("y[10]")
    assert disparate_cell_vertex(e, v("y[10]^2")) == (DISPARATE, None)
    kind, cand = disparate_cell_vertex(e, v("y[01]"))
    assert kind == EQUIVALENT_AT
    assert cand.vertices == {v("y[01]"), v("y[10] y[01]")}
    assert disparate_cell_vertex(e, v("y[100]")) == (NEITHER, None)


def test_disparateness_is_a_class_property():
    e = pc("y[10]")
    u = v("y[10]^2")
    _, mate = disparate_cell_vertex(e, v("y[01]"))
    assert disparate_cell_vertex(mate, u) == (DISPARATE, None)


def test_disparate_and_orthogonal_pairs():
    a, b = pc("y[01]"), pc("y[10]")
    assert orthogonal_pair(a, b) and disparate_pair(a, b)
    c, d = pc("y[10]"), pc("y[100]")
    assert not disparate_pair(c, d)  # coupled
    f = pc("y[100]^-1")
    assert disparate_pair(c, f) and not orthogonal_pair(c, f)
    assert not disparate_pair(c, c)
    with pytest.raises(ValueError):
        disparate_pair(pc("y[01]", "y[10]^2"), pc("y[10]"))


def test_expand_cell_example():
    e = pc("y[10]")
    decomp = [form_of("y[100]"), form_of("y[1010]^-1 y[1011]")]
    got = expand_cell(e, TRIV, decomp)
    assert {c.vertices for c in got} == {
        frozenset({TRIV, v("y[100]")}),
        frozenset({TRIV, v("y[1010]^-1 y[1011]")}),
    }
    op = op_expand_cell(e, TRIV, decomp)
    assert {c.vertices for c in op} == {
        frozenset({v("y[10]"), v("y[1010]^-1 y[1011]")}),
        frozenset({v("y[10]"), v("y[100]")}),
    }
    assert expand_cell(e, TRIV, [form_of("y[10]")]) == [e]


def test_expand_cell_rejects_bad_decompositions():
    e = pc("y[10]")
    with pytest.raises(ValueError):
        expand_cell(e, TRIV, [form_of("y[100]")])  # wrong product
    with pytest.raises(ValueError):
        expand_cell(e, TRIV, [form_of("y[1010]^-1 y[1011]"), form_of("y[100]")])
    with pytest.raises(ValueError):
        expand_cell(e, v("y[01]"), [form_of("y[10]")])  # not an endpoint
    with pytest.raises(ValueError):
        check_decomposition([form_of("y[100]"), form_of("y[1011]")], form_of("y[10]"))


def test_expansion_preserves_equivalence_with_inherited_pair():
    e1 = pc("y[10]")
    _, e2 = disparate_cell_vertex(e1, v("y[01]"))
    decomp = [form_of("y[100]"), form_of("y[1010]^-1 y[1011]")]
    off1 = expand_cell(e1, TRIV, decomp)
    off2 = expand_cell(e2, v("y[01]"), decomp)
    for a, b in zip(off1, off2):
        pairs = equivalent_cells(a, b)
        assert pairs is not None
        assert (TRIV, v("y[01]")) in pairs


def test_expansions_have_common_refinements():
    # the single-letter decomposition refines the two-block one
    e = pc("y[10]")
    singles = [form_of("y[100]"), form_of("y[1010]^-1"), form_of("y[1011]")]
    coarse = [form_of("y[100]"), form_of("y[1010]^-1 y[1011]")]
    fine_cells = set(expand_cell(e, TRIV, singles))
    block_cells = expand_cell(e, TRIV, coarse)
    refined = {block_cells[0]}
    refined.update(
        expand_cell(
            block_cells[1],
            TRIV,
            [form_of("y[1010]^-1"), form_of("y[1011]")],
        )
    )
    assert refined == fine_cells


def test_decouple_example():
    got = decouple([pc("y[10]"), pc("y[100]")], TRIV)
    assert {c.vertices for c in got} == {
        frozenset({TRIV, v("y[100]")}),
        frozenset({TRIV, v("y[1010]^-1 y[1011]")}),
    }
    for a, b in itertools.combinations(got, 2):
        assert disparate_pair(a, b, TRIV)


def test_decouple_keeps_disparate_input():
    cells = [pc("y[01]"), pc("y[10]^-1")]
    assert set(decouple(cells, TRIV)) == set(cells)


def test_cell_system_validation():
    with pytest.raises(ValueError):
        CellSystem({pc("y[10]")}, {v("y[01]")})
    with pytest.raises(TypeError):
        CellSystem({"cell"}, {TRIV})


def test_balanced_and_free_predicates():
    sys_coupled = CellSystem({pc("y[10]"), pc("y[100]")}, {TRIV})
    assert is_balanced_system(sys_coupled)
    assert not is_free_system(sys_coupled)
    sys_open = CellSystem({pc("y[10]")}, {TRIV, v("y[01]")})
    assert not is_balanced_system(sys_open)
    sys_far = CellSystem({pc("y[10]")}, {TRIV, v("y[10]^2")})
    assert is_balanced_system(sys_far) and is_free_system(sys_far)


def test_separation_procedure_adds_equivalent_cells():
    sys_open = CellSystem({pc("y[10]")}, {TRIV, v("y[01]")})
    out = separation_procedure(sys_open)
    assert is_balanced_system(out)
    assert out.vertices == sys_open.vertices
    mate = frozenset({v("y[01]"), v("y[10] y[01]")})
    assert any(c.vertices == mate for c in out.cells)


def test_equivariant_decoupling_example():
    sys_coupled = CellSystem({pc("y[10]"), pc("y[100]")}, {TRIV})
    out = equivariant_decoupling(sys_coupled)
    assert is_free_system(out)
    assert {c.vertices for c in out.cells} == {
        frozenset({TRIV, v("y[100]")}),
        frozenset({TRIV, v("y[1010]^-1 y[1011]")}),
    }


def test_equivariant_decoupling_rejects_unbalanced():
    sys_open = CellSystem({pc("y[10]")}, {TRIV, v("y[01]")})
    with pytest.raises(ValueError):
        equivariant_decoupling(sys_open)


def test_equivariant_decoupling_mirrors_at_partners():
    e = pc("y[10]")
    short = pc("y[100]")
    _, mate = disparate_cell_vertex(e, v("y[01]"))
    _, mate2 = disparate_cell_vertex(short, v("y[01]"))
    sys2 = CellSystem(
        {e, short, mate, mate2}, {TRIV, v("y[01]")}
    )
    assert is_balanced_system(sys2)
    out = equivariant_decoupling(sys2)
    assert is_free_system(out)
    # the split of y_10 at the base is mirrored at the equivalent cell
    assert any(
        c.vertices == frozenset({v("y[01]"), v("y[100] y[01]")})
        for c in out.cells
    )


def test_cubulate_free_system():
    system = CellSystem({pc("y[01]"), pc("y[10]^-1")}, {TRIV})
    out = cubulate(system)
    assert cl("", "y[01]", "y[10]^-1") in out.clusters
    assert all(ok for ok, _ in out.flag_report.values())
    with pytest.raises(ValueError):
        cubulate(CellSystem({pc("y[10]"), pc("y[100]")}, {TRIV}))


def test_envelope_of_a_cluster():
    y = [cl("", "y[01]", "y[10]^-1")]
    out = envelope(y)
    assert any(
        y[0].vertices <= d.vertices and y[0].edges <= d.edges
        for d in out.clusters
    )


def test_envelope_decouples_overlapping_edges():
    y = [cl("", "y[10]"), cl("", "y[100]")]
    out = envelope(y)
    for c in y:
        assert any(
            c.vertices <= d.vertices and c.edges <= d.edges
            for d in out.clusters
        )
    # the filled square on the decoupled pair embeds in the output
    square = cl("", "y[100]", "y[1010]^-1 y[1011]")
    assert any(
        square.vertices <= d.vertices and square.edges <= d.edges
        for d in out.clusters
    )
    assert all(ok for ok, _ in out.flag_report.values())


def test_envelope_of_empty_is_empty():
    out = envelope([])
    assert not out.clusters and not out.vertices


def test_separation_fixpoint_on_balanced_input():
    free = CellSystem({pc("y[10]")}, {TRIV, v("y[10]^2")})
    assert separation_procedure(free) == free
