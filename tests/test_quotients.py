"""Differential tests of the quotients of two words against the slow path
they replace, `normalize(list(u) + inverse_word(list(v)))`.

`complexes.quotient_word` drops the letters two y-words share that commute
out of u * v^-1 (its docstring gives the argument), `complexes.quotient`
keeps the normal form per pair, and `pipeline._quotient_cones` normalizes
the stripped word of a vertex over a base.  Each is compared with the slow
path on every quotient that the hash-seed envelopes make, on those of every
edge of every path of the certificates of the loops of `LOOP_WORDS` (the
whole-path checker of `loop_oracles` asks for them all), and on
hypothesis-drawn pairs: sorted y-words over a small tree, whose shared
letters often nest in the ones where they differ, and arbitrary words,
which may repeat a letter, hold x-letters or stand in another order.
"""

import random

from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from cantorg import complexes
from cantorg.binseq import is_constant, lex_key
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import (
    _commuting_shared,
    is_one_cell,
    quotient,
    quotient_word,
)
from cantorg.loops import check_certificate, contract_loop
from cantorg.pipeline import envelope
from cantorg.rewrite import Letter, inverse_word, normalize
from cantorg.special import from_letters, is_special
from test_hash_seed import DRAWS
from test_rewrite import random_word
from test_work_counts import LOOP_WORDS, _loop_of, rebind


def _slow(u, v):
    return normalize(list(u) + inverse_word(list(v)))


def _whole(u, v):
    return list(u) + inverse_word(list(v))


def _dropped(u, v):
    """Whether `quotient_word` drops a letter of u or v."""
    return len(quotient_word(u, v)) < len(u) + len(v)


def _recorded(monkeypatch, run):
    """The (u, v) pairs that `quotient_word` is asked for while `run`
    runs, from cold memos."""
    pairs = []
    real = quotient_word

    def recording(u, v):
        pairs.append((tuple(u), tuple(v)))
        return real(u, v)

    rebind(monkeypatch, real, recording)
    run()
    monkeypatch.undo()
    complexes._quotient.cache_clear()
    complexes.is_one_cell.cache_clear()
    return pairs


def _agrees(pairs):
    for u, v in pairs:
        want = _slow(u, v)
        assert normalize(quotient_word(u, v)) == want
        assert quotient(u, v) == want


def test_hash_seed_envelope_quotients_match_slow_path(monkeypatch):
    def run():
        for draw in DRAWS:
            envelope([parse_cluster_line(part) for part in draw.split("||")])

    pairs = _recorded(monkeypatch, run)
    assert len(pairs) > 100
    _agrees(pairs)
    assert any(_dropped(u, v) for u, v in pairs)


def test_loop_certificate_quotients_match_slow_path(monkeypatch):
    loops = [_loop_of(parse_word(w)) for w in LOOP_WORDS]

    def run():
        for loop in loops:
            cert = contract_loop(loop)
            assert check_certificate(loop, cert)
            assert oracle.check_certificate(loop, cert)

    pairs = _recorded(monkeypatch, run)
    assert len(pairs) > 50
    _agrees(pairs)
    assert any(_dropped(u, v) for u, v in pairs)
    # the edge verdicts, from cold, against the special-form test of the
    # slow quotient
    for u, v in pairs:
        want = u != v and is_special(from_letters(_slow(u, v).ys))
        assert is_one_cell(u, v) == want


# subscripts of depth 2 to 4 below one small tree, so that the letters of
# two words often nest
SUBS = [s for n in (2, 3, 4) for s in
        ("".join("01"[b >> k & 1] for k in range(n)) for b in range(1 << n))
        if not is_constant(s)]


def _sorted_word(exps):
    return tuple(Letter("y", s, e)
                 for s, e in sorted(exps.items(), key=lambda p: lex_key(p[0])))


def _sorted_pair(rng):
    """Two sorted y-words over `SUBS` with some letters in common."""
    def letters():
        return {s: rng.choice([-2, -1, 1, 2])
                for s in rng.sample(SUBS, rng.randint(0, 5))}

    shared = letters()
    return (_sorted_word({**shared, **letters()}),
            _sorted_word({**shared, **letters()}))


def _arbitrary_pair(rng):
    """Two words of x- and y-letters that share some letters, in an order
    of their own."""
    u = random_word(rng, max_len=5, max_sub=3)
    v = random_word(rng, max_len=5, max_sub=3)
    common = random_word(rng, max_len=3, max_sub=3)
    return u + common, rng.sample(common, len(common)) + v


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=10**6))
def test_sorted_y_words_match_slow_path(seed):
    u, v = _sorted_pair(random.Random(seed))
    assert normalize(quotient_word(u, v)) == _slow(u, v)
    # what is dropped is shared and disjoint from every letter kept
    drop = _commuting_shared(u, v)
    kept = [lt.sub for lt in u + v if lt not in drop]
    assert drop <= set(u) & set(v)
    assert not any(a.sub.startswith(b) or b.startswith(a.sub)
                   for a in drop for b in kept)


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=0, max_value=10**6))
def test_arbitrary_words_match_slow_path(seed):
    u, v = _arbitrary_pair(random.Random(seed))
    assert normalize(quotient_word(u, v)) == _slow(u, v)
    if (len(set(u)) < len(u) or len(set(v)) < len(v)
            or any(lt.kind == "x" for lt in u + v)):
        assert quotient_word(u, v) == _whole(u, v)


def test_drawn_pairs_drop_letters():
    """Both shapes of drawn pairs drop letters, on the first seeds."""
    for draw in (_sorted_pair, _arbitrary_pair):
        assert any(_dropped(*draw(random.Random(seed)))
                   for seed in range(200))


def test_keep_step_repeats_until_nothing_changes():
    """y[1011] is where the words differ; y[10] prefixes it, so it is kept
    first, and y[100] extends y[10] though it is disjoint from y[1011], so
    only a second round keeps it.  y[01] is disjoint from all three."""
    u = _sorted_word({"01": 1, "100": -1, "1011": 1, "10": 1, "110": 1})
    v = _sorted_word({"01": 1, "100": -1, "10": 1, "110": -1})
    assert _commuting_shared(u, v) == {Letter("y", "01", 1)}
    assert quotient_word(u, v) == [
        Letter("y", "100", -1), Letter("y", "1011", 1), Letter("y", "10", 1),
        Letter("y", "110", 1), Letter("y", "110", 1), Letter("y", "10", -1),
        Letter("y", "100", 1)]
    assert normalize(quotient_word(u, v)) == _slow(u, v)


def test_words_that_must_fall_back():
    a, b, c = (Letter("y", s, 1) for s in ("01", "100", "1011"))
    cases = [
        # the shared letters in two orders
        ((a, b, c), (b, a)),
        # a repeated letter
        ((a, c, a), (a,)),
        ((a, c, a), (a, a)),
        ((c,), (a, b, a)),
        # an x-letter, and a tree pair in u
        ((a, Letter("x", "1", 1), c), (a,)),
        (tuple(normalize([Letter("x", "1", 1), a]).to_items()), (a,)),
    ]
    for u, v in cases:
        assert quotient_word(u, v) == _whole(u, v)
        assert normalize(quotient_word(u, v)) == _slow(u, v)
    # a tree pair that v starts with goes to the end, inverted
    base = normalize([Letter("x", "1", 1), a, c])
    word = quotient_word((a, b), base.to_items())
    assert word[:2] == [b, c.inverse()] and len(word) == 3
    assert normalize(word) == _slow((a, b), base.to_items())
