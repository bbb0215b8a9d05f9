"""Differential tests of the memos under the envelope pipeline against the
computations they keep: `thompson.compose` against its unmemoized merge,
`normalize` against the reduction of the merged word, the criterion
readings against the whole quotient word normalized and `supp_y`, the
canonical parameters of a cell against the y-part of `quotient`, and
the verdicts and minimal forms of special forms against the unmemoized
verdict and `canonical_oracles.minimal_form`.  Each is compared from a
cold memo and then from a warm one.  Every process-global memo is a
`functools.lru_cache` bounded by its named size."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import canonical_oracles
from cantorg import calculus, complexes, pipeline, rewrite, special, thompson
from cantorg.binseq import RationalSeq
from cantorg.calculus import evaluate, supp_y
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import quotient
from cantorg.loops import check_certificate, contract_loop
from cantorg.pipeline import ParamCell, envelope, param_form_at
from cantorg.rewrite import (
    GNormal,
    Letter,
    _ListWord,
    _merge,
    inverse_word,
    normalize,
    reduce_word,
    split_standard,
)
from cantorg.special import from_letters, is_special, minimal_form
from test_canonical_oracles import random_special_form
from test_hash_seed import DRAWS
from test_rewrite import random_word
from test_work_counts import LOOP_WORDS, _loop_of, rebind, record_cells


def _hash_seed_envelopes():
    """Run the envelopes of the hash-seed draws from cold normalize
    memos, so every product and reading is computed."""
    rewrite._normal_form.cache_clear()
    rewrite._onto.cache_clear()
    for draw in DRAWS:
        envelope([parse_cluster_line(part) for part in draw.split("||")])


def _loop_certificates():
    """Contract and check the loops of `LOOP_WORDS`, which test edges
    with `is_one_cell`, as no envelope does."""
    for word in LOOP_WORDS:
        loop = _loop_of(parse_word(word))
        assert check_certificate(loop, contract_loop(loop))


# ---------------------------------------------------------------------------
# tree-pair products


def test_compose_memo_matches_merge_on_envelope_products(monkeypatch):
    pairs = []
    real = thompson.compose

    def recording(f, g):
        pairs.append((f, g))
        return real(f, g)

    rebind(monkeypatch, real, recording)
    _hash_seed_envelopes()
    _loop_certificates()
    assert len(pairs) > 100
    real.cache_clear()
    cold = [real(f, g) for f, g in pairs]
    warm = [real(f, g) for f, g in pairs]
    for (f, g), a, b in zip(pairs, cold, warm):
        want = real.__wrapped__(f, g)
        assert a == want and b == want
        # equal products are one object
        assert b is a


# ---------------------------------------------------------------------------
# normal forms by merged word


def _reduced(word):
    f, ys = split_standard(reduce_word(_ListWord(_merge(word))).items)
    return GNormal(f, tuple(ys))


def _with_merges(rng, word):
    """The word with a cancelling pair and a split power inserted, which
    only the merge removes."""
    word = list(word)
    sub = rng.choice(["10", "01", "100", "0110"])
    at = rng.randint(0, len(word))
    word[at:at] = [Letter("y", sub, 1), Letter("y", sub, -1)]
    if word:
        at = rng.randrange(len(word))
        lt = word[at]
        if isinstance(lt, Letter) and abs(lt.exp) == 2:
            unit = Letter(lt.kind, lt.sub, lt.exp // 2)
            word[at:at + 1] = [unit, unit]
    return word


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_normalize_matches_merged_word_and_reduction(seed):
    rng = random.Random(seed)
    word = tuple(_with_merges(rng, random_word(rng, max_len=5, max_sub=3)))
    merged = tuple(_merge(word))
    want = _reduced(word)
    assert want == _reduced(merged)
    # cold: the word first, whose one reduction is kept under its merged
    # word alone, so that the merged word and the word are then hits
    rewrite._normal_form.cache_clear()
    assert normalize(word) == want
    before = rewrite._normal_form.cache_info()
    assert before.currsize == 1
    assert normalize(merged) == want and normalize(word) == want
    after = rewrite._normal_form.cache_info()
    assert (after.hits, after.misses) == (before.hits + 2, before.misses)
    # cold: the merged word first, then the word, whose merged word is
    # found
    rewrite._normal_form.cache_clear()
    assert normalize(merged) == want
    assert normalize(word) == want


def test_a_miss_merges_its_word_once(monkeypatch):
    """`normalize` merges the word to make the memo key, and a miss reduces
    that key as it is.  A normal word takes no rewrite that would merge."""
    merges = []
    real = rewrite._merge

    def counting(items):
        merges.append(items)
        return real(items)

    monkeypatch.setattr(rewrite, "_merge", counting)
    rewrite._normal_form.cache_clear()
    word = parse_word("y[01] y[10]")
    assert normalize(word).ys == tuple(word)
    assert rewrite._normal_form.cache_info().misses == 1
    assert len(merges) == 1


# ---------------------------------------------------------------------------
# criterion readings and canonical parameters


def _criterion_oracle(support, form, base, v):
    g = normalize(list(v) + inverse_word(base.to_items()))
    cones = supp_y(g)
    if not support.intersect(cones).is_null():
        return cones, None
    return cones, ParamCell(form, normalize([g.f.invert()] + list(v)))


def test_readings_and_parameters_match_quotients(monkeypatch):
    cells = record_cells(monkeypatch)
    _hash_seed_envelopes()
    cells = list(cells.values())
    read = [(cell, v) for cell in cells for v in cell.readings]
    ends = [(cell, v) for cell in cells for v in cell.params]
    assert len(read) > 100 and len(ends) > 10
    for warm in (False, True):
        if not warm:
            pipeline._quotient_cones.cache_clear()
            for cell in cells:
                cell.params.clear()
        for cell, v in read:
            for form, base, _, _ in cell.sides:
                got = pipeline._criterion_cell(cell.support, form, base, v)
                want = _criterion_oracle(cell.support, form, base, v)
                assert got[0] == want[0]
                assert got[1] is want[1]
        for cell, v in ends:
            assert param_form_at(cell, v) == from_letters(
                quotient(cell.other(v), v).ys)


def test_parameter_of_a_non_end_is_refused():
    cell = ParamCell(from_letters(parse_word("y[10]")), normalize([]))
    with pytest.raises(ValueError):
        param_form_at(cell, tuple(parse_word("y[01]")))
    assert cell.params == {}


# ---------------------------------------------------------------------------
# special forms


def _check_special_memos(forms):
    """From cold memos and then from warm ones, each form's verdict is the
    unmemoized one, and its minimal form the oracle's; a form that is not
    special raises and leaves the minimal-form memo as it was.  The warm
    round is all hits."""
    verdict = special._is_special.__wrapped__
    special._is_special.cache_clear()
    special._minimal_form.cache_clear()
    for warm in (False, True):
        before = (special._is_special.cache_info(),
                  special._minimal_form.cache_info())
        for form in forms:
            want = verdict(form)
            assert is_special(form) is want
            if want:
                key = tuple(map(tuple, form))
                oracle = canonical_oracles.minimal_form(key)
                assert minimal_form(form) == oracle
                continue
            info = special._minimal_form.cache_info()
            with pytest.raises(ValueError):
                minimal_form(form)
            assert special._minimal_form.cache_info() == info
        if warm:
            after = (special._is_special.cache_info(),
                     special._minimal_form.cache_info())
            assert [a.misses for a in after] == [b.misses for b in before]


def test_special_memos_match_on_checked_forms(monkeypatch):
    """Every form whose verdict or minimal form the hash-seed envelopes and
    the loop certificates ask for; all of them are special."""
    forms = set()
    with monkeypatch.context() as m:
        for name in ("_is_special", "_minimal_form"):
            real = getattr(special, name)

            def recording(form, _real=real):
                forms.add(form)
                return _real(form)

            m.setattr(special, name, recording)
        _hash_seed_envelopes()
        _loop_certificates()
    assert len(forms) > 30
    _check_special_memos(sorted(forms))


DRAWN_FORM = st.lists(
    st.tuples(st.text("01", max_size=4), st.sampled_from([1, -1, 2, 0])),
    max_size=5,
)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=10**6), DRAWN_FORM)
def test_special_memos_match_on_drawn_forms(seed, drawn):
    """Drawn forms: constant subscripts and bad signs among them, and
    special forms built of lists, reversed or with a sign flipped."""
    rng = random.Random(seed)
    form = random_special_form(rng)
    flipped = list(form)
    s, t = flipped[-1]
    flipped[-1] = (s, -t)
    forms = [drawn, form, list(form), [list(lt) for lt in form],
             form[::-1], flipped]
    _check_special_memos(forms)


# ---------------------------------------------------------------------------
# bounds


MEMOS = [
    (thompson, "x_gen", "X_GEN_CACHE_SIZE"),
    (thompson, "compose", "COMPOSE_CACHE_SIZE"),
    (calculus, "_apply_in_cone", "APPLY_CACHE_SIZE"),
    (rewrite, "_cancels", "CANCELLATION_CACHE_SIZE"),
    (rewrite, "_normal_form", "NORMALIZE_CACHE_SIZE"),
    (rewrite, "_onto", "ONTO_CACHE_SIZE"),
    (pipeline, "_cell", "CELL_CACHE_SIZE"),
    (pipeline, "_quotient_cones", "QUOTIENT_CACHE_SIZE"),
    (complexes, "_quotient", "PAIR_QUOTIENT_CACHE_SIZE"),
    (complexes, "is_one_cell", "ONE_CELL_CACHE_SIZE"),
    (special, "_is_special", "SPECIAL_CACHE_SIZE"),
    (special, "_minimal_form", "SPECIAL_CACHE_SIZE"),
]


@pytest.mark.parametrize("module, memo, size", MEMOS,
                         ids=[memo for _, memo, _ in MEMOS])
def test_memo_is_a_bounded_lru_cache(module, memo, size):
    """Each memo is bounded by its named size and holds entries after the
    hash-seed envelopes, the loop certificates and one evaluation, which
    no envelope makes."""
    _hash_seed_envelopes()
    _loop_certificates()
    evaluate(parse_word("y[10] x[1]"), RationalSeq("1", "0"))
    info = getattr(module, memo).cache_info()
    assert info.maxsize == getattr(module, size)
    assert 0 < info.currsize <= info.maxsize


def test_cell_memo_keeps_built_cells_only():
    base = normalize([])
    form = from_letters(parse_word("y[10]"))
    cell = ParamCell(form, base)
    assert ParamCell(list(form), []) is cell
    # a construction that raises stores nothing
    size = pipeline._cell.cache_info().currsize
    with pytest.raises(ValueError):
        ParamCell((("10", 2),), base)
    assert pipeline._cell.cache_info().currsize == size
    # a cleared parametrization is built again
    pipeline._cell.cache_clear()
    again = ParamCell(form, base)
    assert again is not cell and again.sides == cell.sides
