"""Differential tests of the suffix normal forms that `contract_loop`
carries against normalizing every suffix from scratch (`loop_oracles`).

Each splice of the contracted word is checked in full: every suffix normal
form, the path, and every window's cluster parameters, on the loops of
`test_work_counts`, the benchmark's `loop.txt` and every twelfth word of its
loop pool.

`check_certificate`, which checks a later path's edges in the move's window
only, is compared with the check of every edge of every path on the same
certificates and on forgeries of them."""

import os

import pytest

import loop_oracles as oracle
from cantorg import loops
from cantorg.cli import parse_word
from cantorg.complexes import vertex_of
from cantorg.loops import (
    CANCELLATION,
    _window,
    check_certificate,
    contract_loop,
)
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


# ---------------------------------------------------------------------------
# certificate checks


def _forgeries(loop, cert, bad):
    """Certificates that differ from a valid one in one vertex, `bad`: in
    the start loop, and in each later path at the first vertex of the
    move's window and at a vertex outside it."""
    loop = [tuple(u) for u in loop]
    out = []
    if len(loop) > 2:
        forged = loop[:1] + [bad] + loop[2:]
        out.append((forged, [("start", forged, None)] + cert[1:]))
    for i in range(1, len(cert)):
        kind, q, params = cert[i]
        a = _window(cert[i - 1][1], q)[0]
        for at in {min(a, len(q) - 2), 1}:
            if 0 < at < len(q) - 1:
                forged = list(cert)
                forged[i] = (kind, q[:at] + [bad] + q[at + 1:], params)
                out.append((loop, forged))
    return out


def _certificates():
    words = [line.split(None, 1)[1] for line in _lines("loop_pool.txt")]
    for text in LOOP_WORDS + words[::24]:
        loop = _loop_of(parse_word(text))
        yield loop, contract_loop(loop)


def test_window_checks_match_whole_path_checks():
    """Valid certificates pass both checks, and every forgery gets one
    verdict from both: a vertex that no one-cell joins to the path, and
    one that steps back to its neighbour."""
    checked = rejected = 0
    for loop, cert in _certificates():
        assert check_certificate(loop, cert)
        assert oracle.check_certificate(loop, cert)
        path = cert[0][1]
        for bad in (vertex_of(parse_word("y[01] y[10]")), path[1]):
            for forged_loop, forged in _forgeries(loop, cert, bad):
                want = oracle.check_certificate(forged_loop, forged)
                assert check_certificate(forged_loop, forged) == want
                checked += 1
                rejected += not want
    assert checked > 500 and rejected > 500


def test_a_non_edge_in_the_start_loop_is_refused():
    """A start loop with a step that no one-cell joins, cancelled back as
    if it were a backtrack, fails on its start loop alone."""
    triv = vertex_of([])
    loop = [triv, vertex_of(parse_word("y[01] y[10]")), triv]
    cert = [("start", loop, None), (CANCELLATION, [triv], None)]
    assert not oracle.check_certificate(loop, cert)
    assert not check_certificate(loop, cert)
    # the same move from a loop that is joined passes
    loop[1] = vertex_of(parse_word("y[10]"))
    cert[0] = ("start", loop, None)
    assert oracle.check_certificate(loop, cert)
    assert check_certificate(loop, cert)


def test_window_checks_reach_every_edge(monkeypatch):
    """Every edge of every path of a certificate is among the pairs that
    `check_certificate` tests: the start loop's, and then the edges of
    each move's window."""
    for loop, cert in _certificates():
        asked = set()
        real = loops.is_one_cell

        def recording(u, v):
            asked.add((u, v))
            return real(u, v)

        with monkeypatch.context() as m:
            m.setattr(loops, "is_one_cell", recording)
            assert check_certificate(loop, cert)
        edges = {(u, v) for _, path, _ in cert for u, v in zip(path, path[1:])}
        assert edges <= asked
