import random

import pytest

import loop_oracles as oracle
from cantorg.cli import parse_word
from cantorg.complexes import vertex_of
from cantorg.loops import (
    CANCELLATION,
    COMMUTING,
    EXPANSION,
    SPLIT,
    check_certificate,
    contract_loop,
    path_of,
)
from cantorg.rewrite import inverse_word
from cantorg.special import invert_form
from test_work_counts import _loop_of


def v(text):
    return vertex_of(parse_word(text))


TRIV = v("")


def kinds(cert):
    return [k for k, _, _ in cert[1:]]


def test_trivial_loop():
    cert = contract_loop([TRIV])
    assert cert == [("start", [TRIV], None)]
    assert check_certificate([TRIV], cert)


def test_backtrack_loop():
    loop = [TRIV, v("y[10]"), TRIV]
    cert = contract_loop(loop)
    assert kinds(cert) == [CANCELLATION]
    assert check_certificate(loop, cert)


def test_expansion_relation_loop():
    loop = [
        TRIV,
        v("y[1011]"),
        v("y[1010]^-1 y[1011]"),
        v("y[10]"),
        TRIV,
    ]
    cert = contract_loop(loop)
    assert check_certificate(loop, cert)
    assert EXPANSION in kinds(cert)


def test_commuting_square_loop():
    loop = [TRIV, v("y[10]"), v("y[01] y[10]"), v("y[01]"), TRIV]
    cert = contract_loop(loop)
    assert check_certificate(loop, cert)
    assert COMMUTING in kinds(cert)


def test_rejects_open_path():
    with pytest.raises(ValueError):
        contract_loop([TRIV, v("y[10]")])
    with pytest.raises(ValueError):
        contract_loop([v("y[10]"), TRIV, v("y[10]")])


def test_rejects_non_edge_step():
    with pytest.raises(ValueError):
        contract_loop([TRIV, v("y[01] y[10]"), TRIV])
    with pytest.raises(ValueError):
        contract_loop([TRIV, TRIV])


def test_checker_rejects_tampering():
    loop = [TRIV, v("y[10]"), TRIV]
    cert = contract_loop(loop)
    assert not check_certificate([TRIV, v("y[01]"), TRIV], cert)
    assert not check_certificate(loop, cert[:1])
    bad = list(cert) + [("cancellation", [TRIV, v("y[10]"), TRIV], None)]
    assert not check_certificate(loop, bad)
    # a later path steps between vertices no earlier path joined: a vertex
    # to itself, and two cosets that no one-cell joins
    for step in ([v("y[10]"), v("y[10]")], [v("y[01] y[10]")]):
        later = [TRIV, *step, TRIV]
        bad = [cert[0], (CANCELLATION, later, None), (CANCELLATION, [TRIV], None)]
        assert not check_certificate(loop, bad)


def random_identity_loop(rng, max_letters=4):
    subs = ["01", "10", "100", "011", "1010"]
    word = []
    for _ in range(rng.randint(1, max_letters)):
        word.extend(
            parse_word(
                "y[%s]%s" % (rng.choice(subs), rng.choice(["", "^-1"]))
            )
        )
    letters = word + inverse_word(word)
    path = path_of(letters)
    return [TRIV] + path if path[0] != TRIV else path


def test_random_identity_loops():
    rng = random.Random(63)
    for _ in range(20):
        loop = random_identity_loop(rng)
        cert = contract_loop(loop)
        assert check_certificate(loop, cert)
        assert all(x == TRIV for x in cert[-1][1])


def test_path_of_reads_powers_as_units():
    assert path_of(parse_word("y[01]^2")) == path_of(parse_word("y[01] y[01]"))
    assert path_of(parse_word("y[01]^-2")) == path_of(
        parse_word("y[01]^-1 y[01]^-1"))


def test_contract_loop_through_a_power():
    loop = _loop_of(parse_word("y[01]^2 y[010]^-1 y[0110]"))
    cert = contract_loop(loop)
    assert check_certificate(loop, cert)


# `check_certificate` reads certificates that may come from outside the
# program.  Each forgery below is one edit of the certificate of a loop
# whose contraction splits, expands, commutes and cancels, and each breaks
# a different condition of the checker.
FORGED_WORD = "y[010] y[0110]^-1 y[100] y[10]"


def _edit(cert, k, **fields):
    """The certificate with fields of its k-th move replaced."""
    move = dict(zip(("kind", "path", "params"), cert[k]))
    move.update(fields)
    return cert[:k] + [tuple(move.values())] + cert[k + 1:]


def _at(kind, forge):
    """A forgery of the first move of the given kind: forge(move, path
    before it) gives the replaced fields."""
    def edit(loop, cert):
        k = next(i for i, m in enumerate(cert) if m[0] == kind)
        return loop, _edit(cert, k, **forge(cert[k], cert[k - 1][1]))
    return edit


def _start_at(path):
    """The certificate started from another loop: path(cert) gives it."""
    def edit(loop, cert):
        start = path(cert)
        return start, _edit(cert, 0, path=start)
    return edit


def _backtrack_at_end(move, before):
    # the expansion's new vertices hang off the end of the path, so its
    # window runs past the last vertex
    return {"path": before + [before[1], TRIV]}


FORGERIES = {
    "move not a triple": lambda loop, cert: (
        loop, cert[:1] + [cert[1][:2]] + cert[2:]),
    "start loop steps in place": _start_at(lambda cert: [TRIV] + cert[0][1]),
    "path ends off the base": _at(
        SPLIT, lambda m, p: {"path": m[1][:-1] + [m[1][1]]}),
    "commuting without parameters": _at(COMMUTING, lambda m, p: {
        "params": ()}),
    "commuting on dependent parameters": _at(COMMUTING, lambda m, p: {
        "params": (m[2][0], m[2][0])}),
    "commuting on one parameter": _at(COMMUTING, lambda m, p: {
        "params": m[2][:1]}),
    "commuting parameters swapped": _at(COMMUTING, lambda m, p: {
        "params": m[2][::-1]}),
    "commuting second parameter inverted": _at(COMMUTING, lambda m, p: {
        "params": (m[2][0], invert_form(m[2][1]))}),
    "expansion on dependent parameters": _at(EXPANSION, lambda m, p: {
        "params": (m[2][0], m[2][0], m[2][2])}),
    "expansion past the path's end": _at(EXPANSION, _backtrack_at_end),
    "expansion recorded as a split": _at(EXPANSION, lambda m, p: {
        "kind": SPLIT}),
    "commuting recorded as an expansion": _at(COMMUTING, lambda m, p: {
        "kind": EXPANSION}),
    # the first move splits; from its path less the base vertex, the split
    # adds the base vertex in front of the loop
    "start loop off the base before a split": _start_at(
        lambda cert: cert[1][1][1:]),
    "unknown move kind": _at(CANCELLATION, lambda m, p: {"kind": "bogus"}),
    "start entry with parameters": lambda loop, cert: (
        loop, _edit(cert, 0, params=(("01", 1),))),
    # a move that leaves its path as it is, in the format that recorded
    # each rearrangement of the loop word
    "rearrangement move": lambda loop, cert: (
        loop, cert[:2] + [("rearrangement", cert[1][1], None)] + cert[2:]),
}


@pytest.mark.parametrize("name", FORGERIES)
def test_checker_refuses_forged_move(name):
    loop = _loop_of(parse_word(FORGED_WORD))
    cert = contract_loop(loop)
    assert check_certificate(loop, cert)
    forged_loop, forged = FORGERIES[name](loop, list(cert))
    assert forged != cert
    assert not check_certificate(forged_loop, forged)


def test_checker_accepts_a_reversed_expansion():
    """A certificate may undo an expansion: it starts from the path after
    a genuine expansion, takes it back, and goes on as the genuine
    certificate does from the path before it."""
    loop = _loop_of(parse_word(FORGED_WORD))
    cert = contract_loop(loop)
    k = next(i for i, m in enumerate(cert) if m[0] == EXPANSION)
    _, expanded, params = cert[k]
    reverse = [("start", expanded, None), (EXPANSION, cert[k - 1][1], params)]
    assert check_certificate(expanded, reverse + cert[k:])


@pytest.mark.parametrize("consecutive", [True, False])
def test_reversed_expansion_is_checked_on_its_diagonal(consecutive):
    """Taking A out of T, A, B, A, T, where A = λ1·T and B = λ0·λ1·T walk
    two independent parameters facially, leaves the step B -> T, the one
    new edge.  It is a one-cell when the parameters are consecutive, and
    not one for y[010], y[101]; putting A back and cancelling are valid
    moves either way, so only the diagonal check refuses the forgery."""
    params = (((("100", 1),), (("101", -1),)) if consecutive
              else ((("010", 1),), (("101", 1),)))
    a = v(" ".join(f"y[{s}]^{t}" for s, t in params[1]))
    b = v(" ".join(f"y[{s}]^{t}" for f in params for s, t in f))
    loop = [TRIV, a, b, a, TRIV]
    cert = [("start", loop, None), (EXPANSION, [TRIV, a, b, TRIV], params),
            (EXPANSION, loop, params), (CANCELLATION, [TRIV, a, TRIV], None),
            (CANCELLATION, [TRIV], None)]
    assert oracle.check_certificate(loop, cert) == consecutive
    assert check_certificate(loop, cert) == consecutive


@pytest.mark.parametrize("genuine", [True, False])
def test_commuting_is_checked_on_the_corner_it_replaces(genuine):
    """Commuting T, A, U, Z, T to T, A, U, A, T in the square of y[0100]
    and y[0101]^-1 over T (A = y[0101]^-1·T, U the top corner) needs Z to
    be the square's other corner.  Z = y[0100] y[0101]^-1 y[011]·T is
    joined to U and to T by one-cells, so only the corner check refuses
    it."""
    params = ((("0100", 1),), (("0101", -1),))
    a, top = v("y[0101]^-1"), v("y[0100] y[0101]^-1")
    z = v("y[0100]") if genuine else v("y[0100] y[0101]^-1 y[011]")
    loop = [TRIV, a, top, z, TRIV]
    cert = [("start", loop, None),
            (COMMUTING, [TRIV, a, top, a, TRIV], params),
            (CANCELLATION, [TRIV, a, TRIV], None),
            (CANCELLATION, [TRIV], None)]
    assert oracle.check_certificate(loop, cert) == genuine
    assert check_certificate(loop, cert) == genuine


def test_checker_refuses_paths_off_the_base_vertex():
    """A start loop that ends off the base vertex, at the vertex a
    commuting move replaces, and an empty later path are refused, not
    read past their ends."""
    x = v("y[10]")
    params = ((("0100", 1),), (("0101", -1),))
    cert = [("start", [TRIV, x], None), (COMMUTING, [TRIV, TRIV], params)]
    assert not check_certificate([TRIV, x], cert)
    loop = [TRIV, x, TRIV]
    assert not check_certificate(
        loop, [("start", loop, None), (CANCELLATION, [], None)])
