import random

import pytest

from cantorg.cli import parse_word
from cantorg.rewrite import normalize_product
from cantorg.special import (
    act_f,
    cancellation_free,
    complete_tree,
    contract_at,
    coset_vertex,
    descends,
    expand_at,
    find_carrier,
    from_letters,
    independent,
    is_special,
    list_checks,
    minimal_form,
    parity_of,
    product_is_special,
    stabilizes_coset,
    to_letters,
    type_of,
    vertex_in_gamma,
)
from cantorg.thompson import IDENTITY, TreePair, compose, x_gen


def form_of(text):
    return from_letters(parse_word(text))


def random_form(rng, max_expansions=3):
    sub = ""
    while sub.count("0") == 0 or sub.count("1") == 0:
        sub = "".join(rng.choice("01") for _ in range(rng.randint(2, 4)))
    form = ((sub, rng.choice([1, -1])),)
    for _ in range(rng.randint(0, max_expansions)):
        form = expand_at(form, rng.randrange(len(form)))
    return form


def test_is_special_examples():
    f = form_of("y[100] y[1010]^-1 y[1011]")
    assert is_special(f) and type_of(f) == 2 and parity_of(f) == 1
    assert not is_special(form_of("y[01] y[10]"))
    f = form_of("y[10]^-1")
    assert is_special(f) and type_of(f) == 1 and parity_of(f) == 1


def test_expand_contract_examples():
    assert expand_at(form_of("y[10]"), 0) == form_of("y[100] y[1010]^-1 y[1011]")
    assert contract_at(form_of("y[100] y[1010]^-1 y[1011]"), 0) == form_of("y[10]")
    assert expand_at(form_of("y[10]^-1"), 0) == form_of(
        "y[1000]^-1 y[1001] y[101]^-1"
    )
    with pytest.raises(ValueError):
        contract_at(form_of("y[100] y[1010]^-1 y[1011]"), 1)


def test_expand_then_contract_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        form = random_form(rng)
        i = rng.randrange(len(form))
        assert contract_at(expand_at(form, i), i) == form
        assert is_special(expand_at(form, i))


def test_minimal_form_examples():
    assert minimal_form(form_of("y[100] y[1010]^-1 y[1011]")) == form_of("y[10]")
    assert minimal_form(form_of("y[10]")) == form_of("y[10]")


def test_minimal_form_matches_word_problem():
    rng = random.Random(9)
    for _ in range(25):
        base = random_form(rng, max_expansions=0)
        a = base
        b = base
        for _ in range(rng.randint(0, 3)):
            a = expand_at(a, rng.randrange(len(a)))
        for _ in range(rng.randint(0, 3)):
            b = expand_at(b, rng.randrange(len(b)))
        assert minimal_form(a) == minimal_form(b) == base
        # same coset per the word-problem oracle: a b^-1 has trivial y-part
        assert coset_vertex(to_letters(a)) == coset_vertex(to_letters(b))


def test_independent_and_list_checks():
    assert independent(form_of("y[01]"), form_of("y[10]"))
    assert not independent(form_of("y[01]"), form_of("y[011]"))
    assert list_checks(form_of("y[01] y[10]^-1")) == (True, True, True)
    s, c, a = list_checks(form_of("y[01] y[110]"))
    assert s and not c


def test_product_is_special():
    assert product_is_special([form_of("y[01]"), form_of("y[10]^-1")])
    assert not product_is_special([form_of("y[01]"), form_of("y[10]")])
    assert not product_is_special([form_of("y[01]"), form_of("y[110]")])
    with pytest.raises(ValueError):
        product_is_special([form_of("y[10]"), form_of("y[01]")])
    with pytest.raises(ValueError):
        product_is_special([form_of("y[01]"), form_of("y[011]")])


def test_act_f_examples():
    assert act_f(form_of("y[01]"), x_gen("")) == form_of("y[10]")
    f = form_of("y[100] y[1010]^-1 y[1011]")
    assert act_f(f, IDENTITY) == f
    assert act_f(f, x_gen("1")) == form_of("y[10] y[1100]^-1 y[1101]")


def test_act_f_expands_when_needed():
    # the pair splits cone(10), so the letter must expand first
    out = act_f(form_of("y[10]"), x_gen("1"))
    assert is_special(out)
    assert coset_vertex(
        normalize_product(to_letters(form_of("y[10]")), x_gen("1"))
    ) == coset_vertex(to_letters(out))


def test_act_f_preserves_type_parity_and_is_action():
    rng = random.Random(21)
    pairs = [x_gen(""), x_gen("1"), x_gen("10"), x_gen("0").invert()]
    for _ in range(25):
        form = random_form(rng)
        f = rng.choice(pairs)
        g = rng.choice(pairs)
        out = act_f(form, f)
        assert is_special(out)
        assert type_of(out) == type_of(form)
        assert parity_of(out) == parity_of(form)
        two_step = act_f(out, g)
        one_step = act_f(form, compose(f, g))
        assert minimal_form(two_step) == minimal_form(one_step)


def test_stabilizes_coset():
    assert stabilizes_coset(IDENTITY, form_of("y[01]"))
    assert stabilizes_coset(x_gen("10"), form_of("y[01]"))
    # x-generator at 1 is supported away from cone(01), so it commutes past
    assert stabilizes_coset(x_gen("1"), form_of("y[01]"))
    # the generator at 0 moves the subscript 01 to 011
    assert not stabilizes_coset(x_gen("0"), form_of("y[01]"))


def test_descendant_automaton():
    assert descends(("10", 1), ("10", 1))
    assert not descends(("10", 1), ("10", -1))
    assert descends(("10", 1), ("100", 1))
    assert descends(("10", 1), ("1010", -1))
    assert not descends(("10", 1), ("1010", 1))
    assert not descends(("10", 1), ("101", 1))  # strictly between levels
    assert descends(("10", -1), ("101", -1))
    assert not descends(("100", 1), ("10", 1))


def test_descends_matches_repeated_expansion():
    rng = random.Random(13)
    for _ in range(30):
        form = random_form(rng, max_expansions=0)
        root = form[0]
        reachable = {root}
        frontier = [form]
        for _ in range(3):
            nxt = []
            for f in frontier:
                for i in range(len(f)):
                    e = expand_at(f, i)
                    reachable.update(e)
                    nxt.append(e)
            frontier = nxt[:6]
        for lt in reachable:
            assert descends(root, lt)
            assert not descends(root, (lt[0], -lt[1])) or lt[0] == root[0]


def test_cancellation_free_examples():
    assert not cancellation_free(form_of("y[10]"), form_of("y[100]"))
    assert cancellation_free(form_of("y[10]"), form_of("y[100]^-1"))
    assert cancellation_free(form_of("y[01]"), form_of("y[10]"))


def test_vertex_in_gamma():
    assert vertex_in_gamma(coset_vertex(parse_word("y[10]")))
    assert vertex_in_gamma(coset_vertex(parse_word("x[1] y[01]^-1")))
    assert not vertex_in_gamma(coset_vertex(parse_word("")))
    assert not vertex_in_gamma(coset_vertex(parse_word("y[01] y[10]")))


def test_complete_tree():
    assert complete_tree(["01", "10"]) == ["00", "01", "10", "11"]
    assert complete_tree(["10"]) == ["0", "10", "11"]


def test_four_orbits_with_explicit_carriers():
    rng = random.Random(17)
    for _ in range(20):
        a = random_form(rng)
        b = random_form(rng)
        f = find_carrier(a, b)
        same_class = (type_of(a), parity_of(a)) == (type_of(b), parity_of(b))
        if not same_class:
            assert f is None
            continue
        assert isinstance(f, TreePair)
        assert minimal_form(act_f(a, f)) == minimal_form(b)
        # and as cosets, via the word problem
        assert coset_vertex(
            normalize_product(to_letters(a), f)
        ) == coset_vertex(to_letters(b))


def test_independence_preserved_by_coset_change():
    rng = random.Random(29)
    for _ in range(25):
        a = form_of("y[01]")
        b = form_of("y[10]^-1")
        for _ in range(rng.randint(0, 3)):
            a = expand_at(a, rng.randrange(len(a)))
        for _ in range(rng.randint(0, 3)):
            b = expand_at(b, rng.randrange(len(b)))
        assert independent(a, b)
