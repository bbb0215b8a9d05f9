"""Differential tests of `rewrite.normalize_onto` against the engine.

Every step of `normalize_onto` is checked against normalizing its letters
followed by the normal form's items from scratch, with `reduce_word` on a
fresh `_ListWord` and no memo: on hypothesis-drawn letters onto drawn normal
forms, on every corner step of the clusters that envelopes build, and on
every suffix that a loop contraction splices.  Each source must take the
fast path (a y-letter merged into the y-part without the engine) at least
once, so the comparison is not vacuous."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from cantorg import loops, rewrite
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import Cluster
from cantorg.loops import check_certificate, contract_loop
from cantorg.pipeline import envelope
from cantorg.rewrite import (
    IDENTITY_NORMAL,
    GNormal,
    Letter,
    _ListWord,
    _merge,
    normalize_onto,
    reduce_word,
    split_standard,
)
from cantorg.special import from_letters, to_letters
from cantorg.thompson import power, x_gen
from test_envelope_digest import _pool_draws
from test_rewrite import random_word
from test_loop_oracles import _lines
from test_work_counts import CORNER_CLUSTERS, LOOP_WORDS, _loop_of


def _engine(letters, g):
    """The normal form of the letters times g, reduced from scratch."""
    f, ys = split_standard(
        reduce_word(_ListWord(_merge(list(letters) + g.to_items()))).items)
    return GNormal(f, tuple(ys))


def _count_fast_steps(monkeypatch):
    """Count, from cold, the y-letters that `_onto` merges without the
    engine."""
    rewrite._onto.cache_clear()
    tally = {"fast": 0}
    real = rewrite._merge_letter

    def counting(t, exp, ys):
        out = real(t, exp, ys)
        tally["fast"] += out is not None
        return out

    monkeypatch.setattr(rewrite, "_merge_letter", counting)
    return tally


# ---------------------------------------------------------------------------
# drawn letters onto drawn normal forms


SUBSCRIPTS = st.text("01", min_size=0, max_size=5)
Y_LETTERS = st.builds(
    lambda sub, exp: Letter("y", sub + "01", exp),
    SUBSCRIPTS, st.sampled_from([-2, -1, 1, 2]))
X_LETTERS = st.builds(
    lambda sub, exp: Letter("x", sub, exp),
    SUBSCRIPTS, st.sampled_from([-1, 1]))
TOKENS = st.builds(
    lambda sub, exp: power(x_gen(sub), exp),
    SUBSCRIPTS, st.sampled_from([-2, -1, 1]))
LETTERS = st.lists(st.one_of(Y_LETTERS, Y_LETTERS, X_LETTERS, TOKENS),
                   min_size=1, max_size=4)


def test_onto_matches_engine_on_drawn_letters():
    tallies = []

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(LETTERS, st.integers(min_value=0, max_value=10**6))
    def check(letters, seed):
        g = _engine(random_word(random.Random(seed), max_len=6, max_sub=4),
                    IDENTITY_NORMAL)
        with pytest.MonkeyPatch.context() as mp:
            tallies.append(_count_fast_steps(mp))
            assert normalize_onto(letters, g) == _engine(letters, g)

    check()
    assert sum(t["fast"] for t in tallies) > 0


# ---------------------------------------------------------------------------
# corners


def _check_corners(clusters):
    """Each corner step of each (base, parameters) against the engine, from
    corners that the engine computed; returns the steps checked."""
    steps = 0
    for base, params in clusters:
        forms = [base]
        for mask in range(1, 1 << len(params)):
            low = mask & -mask
            word = to_letters(params[low.bit_length() - 1])
            want = _engine(word, forms[mask ^ low])
            assert normalize_onto(word, forms[mask ^ low]) == want
            forms.append(want)
            steps += 1
    return steps


def test_onto_matches_engine_on_corner_clusters(monkeypatch):
    clusters = [
        (_engine(parse_word(base), IDENTITY_NORMAL),
         tuple(from_letters(parse_word(p)) for p in params))
        for base, params in CORNER_CLUSTERS
    ]
    tally = _count_fast_steps(monkeypatch)
    assert _check_corners(clusters) > 100
    assert tally["fast"] > 0


def test_onto_matches_engine_on_pool_envelope_corners(monkeypatch):
    built = []
    init = Cluster.__init__

    def recording(self, base, params):
        init(self, base, params)
        built.append((self.base, self.params))

    monkeypatch.setattr(Cluster, "__init__", recording)
    for draw in _pool_draws()[:100]:
        envelope([parse_cluster_line(part) for part in draw.split("||")])
    tally = _count_fast_steps(monkeypatch)
    assert _check_corners(built) > 1000
    assert tally["fast"] > 0


# ---------------------------------------------------------------------------
# loop splices


def test_onto_matches_engine_on_loop_splices(monkeypatch):
    """Every suffix normal form that a splice computes, against the letter
    it starts with times the next suffix's normal form, on the loops of
    the work-count loop words and the first 20 words of the benchmark's
    loop pool."""
    tally = _count_fast_steps(monkeypatch)
    splice = loops._Word.splice
    checked = [0]

    def checked_splice(word, lo, hi, new):
        splice(word, lo, hi, new)
        for k in range(lo, lo + len(new)):
            assert word.sfx[k] == _engine([word.items[k]], word.sfx[k + 1])
            checked[0] += 1

    monkeypatch.setattr(loops._Word, "splice", checked_splice)
    pool = [line.split(None, 1)[1] for line in _lines("loop_pool.txt")]
    for text in LOOP_WORDS + pool[:20]:
        loop = _loop_of(parse_word(text))
        assert check_certificate(loop, contract_loop(loop))
    assert checked[0] > 500
    assert tally["fast"] > 0


# ---------------------------------------------------------------------------
# a word the engine does not finish


def test_onto_finds_a_short_normal_form_the_engine_misses():
    """The quotient of the two ends of seed 37156's cell in
    `test_envelope_facts.test_random_cells_span_one_cells`.  Its normal
    form is one letter, but `normalize` spends 762,463 steps on it, past
    `REWRITE_STEPS` (758,885 of them rearrangements), so only
    `normalize_onto` runs here."""
    word = parse_word(
        "y[1011111111111111]^-1 y[1011]^-2 y[101]^-2 y[10] y[1011]^2 "
        "y[101111]^2 y[101111111111111111111111111111]")
    assert normalize_onto(word, IDENTITY_NORMAL).render() == "y[10]"
