"""Predicates that only check what another function computed, kept as test
oracles: no command or pipeline phase asks them."""

from cantorg.pipeline import param_form_at, supp
from cantorg.rewrite import normalize_product
from cantorg.special import (
    check_sorted_forms,
    check_special,
    coset_vertex,
    from_letters,
    is_special,
    pair_consecutive,
    to_letters,
)


def is_balanced(params):
    """Whether the parameter list has alternating signs across junctions."""
    return all(a[-1][1] == -b[0][1] for a, b in zip(params, params[1:]))


def is_proper(params):
    """Consecutive junctions must alternate in sign."""
    return all(a[-1][1] == -b[0][1] for a, b in zip(params, params[1:])
               if pair_consecutive(a[-1][0], b[0][0]))


def orthogonal_pair(e1, e2):
    """Whether the supports at the least shared vertex are disjoint."""
    v = min(e1.vertices & e2.vertices)
    a, b = (supp(param_form_at(e, v)) for e in (e1, e2))
    return a.intersect(b).is_null()


def product_is_special(forms):
    """Whether the concatenation of sorted independent forms is special."""
    return is_special(tuple(lt for f in check_sorted_forms(forms) for lt in f))


def vertex_in_gamma(vertex):
    """Whether a coset representative is a special form (an edge label)."""
    return is_special(from_letters(vertex))


def stabilizes_coset(f, form):
    """Whether right multiplication by the pair fixes the form's coset."""
    letters = to_letters(check_special(form))
    return coset_vertex(letters) == coset_vertex(normalize_product(letters, f))


def contains_seq(cones, xi):
    """Whether the point lies in the union of the cone set."""
    return any(xi.starts_with(b) for b in cones.cones)
