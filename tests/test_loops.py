import random

import pytest

from cantorg.cli import parse_word
from cantorg.complexes import vertex_of
from cantorg.loops import (
    CANCELLATION,
    COMMUTING,
    EXPANSION,
    check_certificate,
    contract_loop,
    path_of,
)
from cantorg.rewrite import inverse_word


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
