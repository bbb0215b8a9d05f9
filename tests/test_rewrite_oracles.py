"""Differential tests of the one rewriting engine against the two rewriters
it replaced (`rewrite_oracles`): the list rewriter of `normalize` and the
move-emitting rewriters of `contract_loop`."""

import random

from hypothesis import given, settings, strategies as st

import rewrite_oracles as oracle
from cantorg import rewrite
from cantorg.cli import parse_word
from cantorg.loops import contract_loop
from cantorg.rewrite import (
    BudgetExceeded,
    GNormal,
    Letter,
    _Budget,
    _ListWord,
    reduce_word,
    remove_potential_cancellations,
    split_standard,
    standardize,
)
from test_rewrite import random_word
from test_work_counts import _loop_of


def _library_normalize(word, budget):
    items = _ListWord(word, budget)
    reduce_word(items)
    f, ys = split_standard(items.items)
    return GNormal(f, tuple(ys))


def _run(fn, word):
    """What fn makes of the word and the budget it leaves, or None when
    the budget ran out.  A 5,000-step budget stops a rewriter that no
    longer converges within a second, where the default 500,000 steps
    could take minutes."""
    budget = _Budget(5_000)
    try:
        out = fn(list(word), budget)
    except BudgetExceeded:
        return None
    return out, budget.left


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalize_matches_oracle(seed):
    word = random_word(random.Random(seed), max_len=6, max_sub=3)
    rewrite._NORMALIZE_CACHE.pop(tuple(word), None)
    assert rewrite.normalize(word) == oracle.normalize(word)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_budget_matches_oracle(seed):
    """The same normal form and the same steps spent, or BudgetExceeded on
    both sides; likewise for the two public passes on their own."""
    word = random_word(random.Random(seed))
    for lib, old in ((_library_normalize, oracle.normalize),
                     (standardize, oracle.standardize),
                     (remove_potential_cancellations,
                      oracle.remove_potential_cancellations)):
        assert _run(lib, word) == _run(old, word)


def test_both_run_out_on_a_slow_round_trip():
    """No random draw above needs 5,000 steps; the product of a normal
    form and its inverse, for the word below, needs hundreds of
    thousands."""
    n = rewrite.normalize(
        parse_word("y[01]^2 y[011]^-2 y[01]^-1 y[011]^2 y[010]^-2"))
    word = n.to_items() + rewrite.invert_normal(n).to_items()
    assert _run(_library_normalize, word) is None
    assert _run(oracle.normalize, word) is None


SUBS = ["01", "10", "001", "010", "011", "100", "101", "110",
        "0010", "0110", "1010", "1011"]


@st.composite
def loop_words(draw):
    letters = draw(st.lists(
        st.tuples(st.sampled_from(SUBS), st.sampled_from([1, -1])),
        min_size=1, max_size=5))
    return [Letter("y", s, e) for s, e in letters]


def _certificate(fn, loop):
    """The certificate, or the message of a contraction that ran past
    `loops.MAX_MOVES` moves; any other error propagates."""
    try:
        return fn(loop)
    except RuntimeError as exc:
        if type(exc) is not RuntimeError:
            raise
        return str(exc)


@settings(deadline=None, max_examples=40)
@given(loop_words())
def test_loop_certificates_match_oracle(word):
    loop = _loop_of(word)
    assert _certificate(contract_loop, loop) == _certificate(
        oracle.contract_loop, loop)
