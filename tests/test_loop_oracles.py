"""Differential tests of the suffix normal forms that `contract_loop`
carries against normalizing every suffix from scratch (`loop_oracles`).

Each splice of the contracted word is checked in full: every suffix normal
form, the path, and every window's cluster parameters, on the loops of
`test_work_counts`, the benchmark's `loop.txt` and every twelfth word of its
loop pool.

`check_certificate`, which proves a later path's new edges from its move's
parameters, is compared with the check of every edge of every path on the
same certificates, on forgeries of them and on random single edits."""

import os
import random

import pytest

import loop_oracles as oracle
from cantorg import loops
from cantorg.cli import parse_word
from cantorg.complexes import is_one_cell, vertex_of
from cantorg.loops import (
    CANCELLATION,
    COMMUTING,
    _window,
    check_certificate,
    contract_loop,
)
from cantorg.rewrite import normalize, normalize_onto
from cantorg.special import to_letters
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
    assert len(cert) - 1 == 8
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
    for text in LOOP_WORDS + words[::12]:
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


def test_a_start_vertex_is_normalized_as_a_base():
    """A start loop vertex may be any word of its coset's element, here
    y[100] y[100]^-1 y[10].  A commuting move over it is accepted, as the
    oracle accepts it: the checker normalizes the base word and does not
    take it for a normal form's y-part."""
    triv, w = vertex_of([]), tuple(parse_word("y[100] y[100]^-1 y[10]"))
    params = ((("0100", 1),), (("0101", -1),))
    g = normalize(list(w))
    c0, c1 = (normalize_onto(to_letters(f), g) for f in params)
    top = normalize_onto(to_letters(params[0]), c1).ys
    loop = [triv, w, c1.ys, top, c0.ys, w, triv]
    cert = [("start", loop, None),
            (COMMUTING, [triv, w, c1.ys, top, c1.ys, w, triv], params),
            (CANCELLATION, [triv, w, c1.ys, w, triv], None),
            (CANCELLATION, [triv, w, triv], None),
            (CANCELLATION, [triv], None)]
    assert w != g.ys
    assert oracle.check_certificate(loop, cert)
    assert check_certificate(loop, cert)


def _single_edit(rng, loop, cert):
    """One seeded edit of a valid certificate: an interior vertex of one
    path (inside or next to its move's window, or anywhere) becomes another
    vertex of the certificate or its neighbour in that path, or one recorded
    parameter becomes another form of the certificate.  An edit of the start
    loop is made to the loop too."""
    cert = list(cert)
    moved = [i for i, (_, _, params) in enumerate(cert) if params]
    if moved and rng.random() < 0.25:
        i = rng.choice(moved)
        kind, q, params = cert[i]
        k = rng.randrange(len(params))
        forms = {f for _, _, ps in cert if ps for f in ps} - {params[k]}
        if not forms:
            return None
        params = params[:k] + (rng.choice(sorted(forms)),) + params[k + 1:]
        cert[i] = (kind, q, params)
        return loop, cert
    i = rng.randrange(len(cert))
    kind, q, params = cert[i]
    if len(q) < 3:
        return None
    j = rng.randrange(1, len(q) - 1)
    if len(cert) > 1 and rng.random() < 0.5:
        if i == 0:
            a, window, _ = _window(q, cert[1][1])
        else:
            a, _, window = _window(cert[i - 1][1], q)
        j = min(max(rng.randint(a - 1, a + len(window)), 1), len(q) - 2)
    if rng.random() < 0.25:
        bad = q[j + rng.choice((-1, 1))]
    else:
        bad = rng.choice(sorted({v for _, path, _ in cert for v in path}
                                - {q[j]}))
    q = q[:j] + [bad] + q[j + 1:]
    cert[i] = (kind, q, params)
    return (q, cert) if i == 0 else (loop, cert)


def test_single_edits_get_the_oracles_verdict():
    """Every edge of every path of a valid certificate is a one-cell,
    checked here edge by edge; and on seeded random single edits of those
    certificates `check_certificate`, which re-derives no window edge,
    gives the whole-path oracle's verdict, accepting some and refusing
    others."""
    certs = list(_certificates())
    for _, cert in certs:
        for _, path, _ in cert:
            assert all(is_one_cell(u, v) for u, v in zip(path, path[1:]))
    rng = random.Random(41)
    verdicts = []
    while len(verdicts) < 2_000:
        edit = _single_edit(rng, *rng.choice(certs))
        if edit is not None:
            want = oracle.check_certificate(*edit)
            assert check_certificate(*edit) == want
            verdicts.append(want)
    assert any(verdicts) and not all(verdicts)
