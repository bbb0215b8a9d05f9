"""Differential tests of the suffix normal forms that `contract_loop`
carries against normalizing every suffix from scratch (`loop_oracles`).

Each splice of the contracted word is checked in full: every suffix normal
form, the path, and every window's cluster parameters, on the loops of
`test_work_counts`, the benchmark's `loop.txt` and every twelfth word of its
loop pool."""

import os

import pytest

import loop_oracles as oracle
from cantorg import loops
from cantorg.cli import parse_word
from cantorg.complexes import vertex_of
from cantorg.loops import check_certificate, contract_loop
from cantorg.rewrite import normalize
from test_work_counts import LOOP_WORDS, _loop_of

INPUTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "inputs"
)


def _lines(name):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return [line.strip() for line in fh
                if line.strip() and not line.startswith("#")]


@pytest.fixture
def checked(monkeypatch):
    """Wrap `_Word.splice` and `_Word.params` with full re-derivations;
    returns the number of checked splices and parameter windows."""
    splice, params = loops._Word.splice, loops._Word.params
    calls = {"splice": 0, "params": 0}

    def checked_splice(word, lo, hi, new):
        splice(word, lo, hi, new)
        calls["splice"] += 1
        assert len(word.sfx) == len(word.items) + 1
        for k, nf in enumerate(word.sfx):
            assert nf == normalize(word.items[k:])
        assert word.path() == oracle.path_of(word.items)

    def checked_params(word, lo, hi):
        got = params(word, lo, hi)
        calls["params"] += 1
        assert got == oracle.params(word.items, lo, hi)
        return got

    monkeypatch.setattr(loops._Word, "splice", checked_splice)
    monkeypatch.setattr(loops._Word, "params", checked_params)
    return calls


def _contract(loop):
    cert = contract_loop(loop)
    assert check_certificate(loop, cert)
    return cert


def test_suffix_forms_on_work_count_loops(checked):
    for text in LOOP_WORDS:
        _contract(_loop_of(parse_word(text)))
    assert checked["splice"] and checked["params"]


def test_suffix_forms_on_bench_loop(checked):
    loop = [vertex_of(parse_word("" if line == "1" else line))
            for line in _lines("loop.txt")]
    cert = _contract(loop)
    assert len(cert) > 20
    assert checked["splice"] >= len(cert) - 1


def test_suffix_forms_on_pool_words(checked):
    words = [line.split(None, 1)[1] for line in _lines("loop_pool.txt")]
    for text in words[::12]:
        _contract(_loop_of(parse_word(text)))
    assert checked["splice"] and checked["params"]
