import itertools
import random

import pytest
from hypothesis import given, strategies as st

from cantorg.binseq import RationalSeq
from cantorg.thompson import IDENTITY, TreePair, compose, power, x_gen

bits4 = st.text(alphabet="01", max_size=4)

# every x_s with |s| <= 4 and its inverse, the inverse built by the
# validating constructor
X_GENS = [
    x_gen("".join(bits)) for n in range(5)
    for bits in itertools.product("01", repeat=n)
]
UNITS = X_GENS + [TreePair(g.range, g.domain) for g in X_GENS]


def random_pair(rng, max_leaves=5):
    """A random element built from generators, for property tests."""
    out = IDENTITY
    for _ in range(rng.randint(0, 4)):
        s = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        g = x_gen(s)
        if rng.random() < 0.5:
            g = g.invert()
        out = compose(out, g)
    return out


def test_x_gen_action_examples():
    assert x_gen("").act_on_word("00") == "0"
    assert x_gen("1").act_on_word("100") == "10"
    assert x_gen("").act_on_word("0") is None
    assert x_gen("1").act_on_word("1010") == "1100"
    assert x_gen("1").act_on_word("10") is None
    assert IDENTITY.act_on_word("0101") == "0101"


def test_x_gen_on_sequences():
    assert x_gen("").act_on_seq(RationalSeq("00", "1")) == RationalSeq("0", "1")
    assert x_gen("").act_on_seq(RationalSeq("", "0")) == RationalSeq("", "0")
    assert x_gen("1").act_on_seq(RationalSeq("1011", "0")) == RationalSeq("1101", "0")


def test_identity_and_inverse():
    f = x_gen("")
    assert compose(f, f.invert()) == IDENTITY
    assert compose(f.invert(), f) == IDENTITY
    assert IDENTITY.is_identity()
    assert not f.is_identity()


def test_square_splits_into_localized_copies():
    # x_s^2 equals x_{s0} x_s x_{s1} as tree pairs
    for s in ["", "1", "01"]:
        lhs = compose(x_gen(s), x_gen(s))
        rhs = compose(compose(x_gen(s + "0"), x_gen(s)), x_gen(s + "1"))
        assert lhs == rhs


def test_conjugation_relation():
    # x_t x_s = x_s x_{t'} where t' is the image of t under x_s
    lhs = compose(x_gen("11"), x_gen(""))
    rhs = compose(x_gen(""), x_gen("111"))
    assert lhs == rhs


def test_fixes_cone():
    assert x_gen("1").fixes_cone("0")
    assert not x_gen("1").fixes_cone("10")
    assert not x_gen("1").fixes_cone("")
    assert IDENTITY.fixes_cone("")


def test_reduction_of_unreduced_input():
    p = TreePair(("0", "10", "11"), ("0", "10", "11"))
    assert p == IDENTITY


def test_rejects_bad_leaves():
    with pytest.raises(ValueError):
        TreePair(("0",), ("0",))  # not a complete code
    with pytest.raises(ValueError):
        TreePair(("0", "1"), ("0", "10", "11"))


def test_rejects_extra_leaves_before_pairing_them():
    # pairing the leaves first would drop the extra one and give the
    # identity
    with pytest.raises(ValueError, match="leaf counts differ"):
        TreePair(("0", "1"), ("0", "1", "junk"))
    with pytest.raises(ValueError, match="leaf counts differ"):
        TreePair(("0", "1", "10"), ("0", "1"))
    with pytest.raises(ValueError, match="binary"):
        TreePair(("0", "1"), ("0", "junk"))


@given(st.integers(min_value=0, max_value=10_000))
def test_action_is_right_action(seed):
    rng = random.Random(seed)
    f = random_pair(rng)
    g = random_pair(rng)
    xi = RationalSeq(
        "".join(rng.choice("01") for _ in range(rng.randint(0, 5))),
        "".join(rng.choice("01") for _ in range(rng.randint(1, 3))),
    )
    assert compose(f, g).act_on_seq(xi) == g.act_on_seq(f.act_on_seq(xi))


@given(st.integers(min_value=0, max_value=10_000))
def test_inverse_undoes(seed):
    rng = random.Random(seed)
    f = random_pair(rng)
    xi = RationalSeq("", rng.choice(["01", "1", "0", "110"]))
    assert f.invert().act_on_seq(f.act_on_seq(xi)) == xi


@given(st.integers(min_value=0, max_value=10_000))
def test_reduction_confluent_under_composition_order(seed):
    # composing the same generator list in different association orders
    # lands on the same reduced pair
    rng = random.Random(seed)
    gens = []
    for _ in range(rng.randint(1, 5)):
        g = x_gen("".join(rng.choice("01") for _ in range(rng.randint(0, 3))))
        gens.append(g.invert() if rng.random() < 0.5 else g)
    left = IDENTITY
    for g in gens:
        left = compose(left, g)
    right = gens[0]
    for g in gens[1:]:
        right = compose(right, g)
    assert left == right


def test_power():
    f = x_gen("")
    assert power(f, 0) == IDENTITY
    assert power(f, 2) == compose(f, f)
    assert power(f, -1) == f.invert()


def _assert_inverse_is_validated_swap(p):
    inv = p.invert()
    want = TreePair(p.range, p.domain)
    assert type(inv) is TreePair
    assert inv.domain == want.domain
    assert inv.range == want.range


def test_invert_matches_validated_swap_on_units():
    for p in UNITS:
        _assert_inverse_is_validated_swap(p)
    # pairs that permute their leaves are elements of Thompson's group V,
    # not of F, and are rejected
    for domain, rng in ((("0", "1"), ("1", "0")),
                        (("0", "10", "11"), ("11", "0", "10"))):
        with pytest.raises(ValueError, match="out of order"):
            TreePair(domain, rng)


@given(st.sampled_from(UNITS), st.sampled_from(UNITS))
def test_invert_matches_validated_swap_on_composites(f, g):
    _assert_inverse_is_validated_swap(compose(f, g))
