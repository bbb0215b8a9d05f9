"""One digest over the certificates of every word of the benchmark's loop
pool.

Each word w of `bench/inputs/loop_pool.txt` spells the loop w w^-1, built
as `test_work_counts._loop_of` builds it.  Every move of every certificate
is rendered as its kind, its path and its cluster parameters, and the
SHA-256 of all of them is pinned, so a change to how `contract_loop`
rewrites shows up as a different digest.  Every certificate must check,
and every move must change its path.
"""

import hashlib
import os

from cantorg.cli import parse_word
from cantorg.commands import render_vertex
from cantorg.loops import check_certificate, contract_loop
from test_work_counts import _loop_of

POOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench", "inputs", "loop_pool.txt")

# measured on the 600 words of the pool, whose certificates have 3,437
# moves in all; they had 4,922 while a certificate also recorded the loop
# word's 1,485 rearrangements, which leave the path as it is
WORDS, MOVES = 600, 3437
DIGEST = "449856506916c015dda8c8d7c4b09cec74126ca417b7498de0a6503311c30c59"


def _pool_words():
    with open(POOL, encoding="utf-8") as fh:
        return [line.split(None, 1)[1] for line in map(str.strip, fh)
                if line and not line.startswith("#")]


def _render(kind, path, params):
    return "%s|%s|%r\n" % (kind, " ; ".join(map(render_vertex, path)),
                           params)


def test_loop_pool_certificates_digest():
    digest = hashlib.sha256()
    words = _pool_words()
    moves = 0
    for text in words:
        loop = _loop_of(parse_word(text))
        cert = contract_loop(loop)
        assert check_certificate(loop, cert), text
        moves += len(cert) - 1
        assert all(p != q for (_, p, _), (_, q, _) in zip(cert, cert[1:]))
        for move in cert:
            digest.update(_render(*move).encode())
    assert (len(words), moves) == (WORDS, MOVES)
    assert digest.hexdigest() == DIGEST
