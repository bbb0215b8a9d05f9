"""Differential tests of the one rewriting engine against the two rewriters
it replaced (`rewrite_oracles`): the list rewriter of `normalize` and the
move-emitting rewriters of `contract_loop`; and of the engine's passes
that resume at the rewritten window and its memo of cancellation answers
against the full scans and the automaton they replaced."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import rewrite_oracles as oracle
from cantorg import loops, rewrite
from cantorg.cli import parse_word
from cantorg.loops import TRIVIAL, check_certificate, contract_loop, path_of
from cantorg.rewrite import (
    BudgetExceeded,
    GNormal,
    Letter,
    _Budget,
    _is_y,
    _ListWord,
    _merge,
    find_merge,
    find_misordered,
    inverse_word,
    neighboring_pairs,
    normalize,
    pair_potential_cancellation,
    reduce_word,
    remove_potential_cancellations,
    split_standard,
    standardize,
)
from cantorg.thompson import expand_letter
from substitution_oracles import pair_cancellation_bruteforce
from test_rewrite import random_word
from test_loops import FORGED_WORD
from test_work_counts import _loop_of


def _library_normalize(word, budget):
    items = _ListWord(_merge(word), budget)
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
    rewrite._normal_form.cache_clear()
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


def test_unrecorded_rewrites_spend_the_move_budget(monkeypatch):
    """A rearrangement records no move but spends a step of `MAX_MOVES`:
    at a bound that the certificate's entries alone meet, the library and
    the oracle both raise, with the same message."""
    loop = _loop_of(parse_word(FORGED_WORD))
    monkeypatch.setattr(loops, "MAX_MOVES", len(contract_loop(loop)))
    message = _certificate(contract_loop, loop)
    assert message.startswith("loop contraction exceeded the move budget")
    assert _certificate(oracle.contract_loop, loop) == message


# where planted expansion triples sit: all three subscripts nonconstant
TRIPLE_AT = ["01", "10", "010", "011", "100", "101"]


def f_valued_word(rng, plant):
    """u Y^-1 for a seeded word u of at most six unit y-letters, where Y is
    the y-part of u's normal form, so that the word lies in F.  A planted
    u carries an expansion triple, which its normal form may contract."""
    u = [Letter("y", rng.choice(SUBS), rng.choice((1, -1)))
         for _ in range(rng.randint(1, 3 if plant else 6))]
    if plant:
        k = rng.randint(0, len(u))
        u[k:k] = [Letter("y", s, e) for s, e in expand_letter(
            rng.choice(TRIPLE_AT), rng.choice((1, -1)))]
    return u + inverse_word(list(normalize(u).ys))


def test_f_valued_loop_words_reduce_by_cancellation_alone():
    """The cancellation pass leaves no y-letter on a word in F, so the
    loop contraction, which runs that pass alone, makes the certificate
    of the oracle, which still sorts and contracts."""
    rng = random.Random(1408)
    for n in range(120):
        word = f_valued_word(rng, plant=n % 3 == 0)
        assert not any(_is_y(it)
                       for it in remove_potential_cancellations(word))
        path = path_of(word)
        loop = [TRIVIAL] + path if path[0] != TRIVIAL else path
        cert = contract_loop(loop)
        assert cert == oracle.contract_loop(loop)
        assert check_certificate(loop, cert)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_worklist_matches_full_scan(seed):
    """The passes that resume at the rewritten window leave the items the
    full scans leave and spend the same steps, or both run out."""
    word = random_word(random.Random(seed))
    for lib, old in ((standardize, oracle.scan_standardize),
                     (remove_potential_cancellations,
                      oracle.scan_remove_potential_cancellations)):
        assert _run(lib, word) == _run(old, word)


def _hits(subs, is_hit):
    return [(i, j) for i, j in itertools.combinations(range(len(subs)), 2)
            if subs[i] is not None and subs[j] is not None
            and is_hit(subs, i, j)]


def _merges(subs, i, j):
    between = subs[i + 1:j]
    return (subs[i] == subs[j] and j > i + 1 and None not in between
            and not any(u.startswith(subs[i]) or subs[i].startswith(u)
                        for u in between))


def _misordered(subs, i, j):
    return subs[j] != subs[i] and subs[j].startswith(subs[i])


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_scans_match_full_scan(seed):
    """On raw words, x-letters standing between the y-letters: the first
    merge pair is the full scan's for every low up to the end of the
    earliest-ending pair, which is all a caller may know to hold none; the
    first misordered letter and the neighboring pairs are the full scans'.
    Letters over a few subscripts make repeats, and so merge pairs,
    common."""
    rng = random.Random(seed)
    items = random_word(rng) + [Letter("y", rng.choice(SUBS), rng.choice(
        [1, -1])) for _ in range(rng.randint(0, 12))]
    rng.shuffle(items)
    subs = [it.sub if _is_y(it) else None for it in items]
    want = oracle.find_merge(items)
    hits = _hits(subs, _merges)
    assert (want is None) == (not hits)
    for lo in range(min([j for _, j in hits], default=len(items)) + 1):
        assert find_merge(items, lo) == want
    assert find_misordered(items) == oracle.find_misordered(items)
    assert (find_misordered(items) is None) == (not _hits(subs, _misordered))
    ys = [it for it in items if _is_y(it)]
    assert neighboring_pairs(ys) == oracle.scan_neighboring_pairs(ys)


OUTER = ["1", "01", "110"]


def test_cancellation_table_matches_automaton():
    """Every inner suffix of up to 8 digits and every sign pair, under
    several outer subscripts: the answer the memo keeps for the first
    outer serves the others, and equals the automaton's under each and the
    simulation over all 8-digit tails."""
    rewrite._cancels.cache_clear()
    for n in range(1, 9):
        for digits in map("".join, itertools.product("01", repeat=n)):
            for t, v in itertools.product((1, -1), repeat=2):
                want = pair_cancellation_bruteforce(
                    (OUTER[0], t), (OUTER[0] + digits, v))
                for s in OUTER:
                    outer, inner = (s, t), (s + digits, v)
                    assert oracle.pair_potential_cancellation(
                        outer, inner) == want
                    assert pair_potential_cancellation(outer, inner) == want
    assert rewrite._cancels.cache_info().currsize == 4 * (2 ** 9 - 2)


@pytest.mark.parametrize("outer, inner", [
    (("10", 1), ("01", -1)),
    (("10", 1), ("10", -1)),
    (("10", 2), ("100", 1)),
    (("10", 1), ("100", 0)),
])
def test_cancellation_table_keeps_the_checks(outer, inner):
    """Bad subscripts and signs raise before the memo is read, also when
    the memo holds the key they would make.  The automaton answers only
    signs ±1 and raises under another sign, storing nothing, so only the
    keys of the bad subscripts are put in the memo first."""
    (s, t), (u, v) = outer, inner
    if {t, v} <= {1, -1}:
        rewrite._cancels(t, u[len(s):], v)
    before = rewrite._cancels.cache_info()
    with pytest.raises(ValueError):
        pair_potential_cancellation(outer, inner)
    assert rewrite._cancels.cache_info() == before


def test_automaton_refuses_bad_signs():
    """Under a sign outside ±1 a symbol reads no digit, so the automaton's
    digit buffer would grow until memory ran out: it raises at once."""
    with pytest.raises(ValueError):
        rewrite._cancels(2, "0", 1)
    with pytest.raises(ValueError):
        rewrite._cancels(1, "0", 0)

