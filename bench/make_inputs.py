#!/usr/bin/env python3
"""Regenerate the benchmark's committed inputs from the acceptance-suite
generators (criterion 11 for envelopes, criterion 12 for loops).

    python3 bench/make_inputs.py

Writes, under bench/inputs/:
  envelope_pool.txt  the first POOL_SIZE criterion-11 draws from seeds
                     1000, 1001, ... whose envelope stays at most
                     MAX_POOL_DIM-dimensional, each line led by the
                     largest cluster dimension;
  loop_pool.txt      the first POOL_SIZE criterion-12 loop words from
                     seeds 2000, 2001, ... whose certificate has at most
                     MAX_POOL_MOVES moves, each line led by the number
                     of moves;
  cubulate.txt       the first criterion-11 draw of seed 17 whose
                     envelope has a 6-dimensional cluster (for `cubulate`);
  loop.txt           the first criterion-12 loop of seed 18 whose
                     certificate has 20 to 40 moves (for `contract-loop`).

The draws of one seed are taken in order; a draw whose envelope or
contraction runs past GUARD_SECONDS is skipped.  Every skipped draw would
fail the dimension or move bound anyway, so the guard only saves time;
the files are the same on any machine that is not several times slower
than the reference box.  A draw on which the program raises is skipped
too and printed, since an operation that fails on some seeds only cannot
be counted steadily.  The workloads sample these pools with their own
seed, because a fresh draw can take minutes (see README.md).
"""

import os
import random
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import generators  # noqa: E402
from cantorg.commands import render_cluster_line, render_vertex  # noqa: E402
from cantorg.loops import contract_loop  # noqa: E402
from cantorg.pipeline import envelope  # noqa: E402

INPUTS = os.path.join(HERE, "inputs")
MAX_POOL_DIM = 5
MAX_POOL_MOVES = 60
GUARD_SECONDS = 8
POOL_SIZE = 600


class _Guard(Exception):
    pass


def _guarded(fn, *args):
    """fn(*args), or None when it runs past GUARD_SECONDS."""

    def stop(signum, frame):
        raise _Guard()

    old = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, GUARD_SECONDS)
    try:
        return fn(*args)
    except _Guard:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _draws(first_seed, make):
    seed = first_seed
    while True:
        rng = random.Random(seed)
        for _ in range(100):
            yield make(rng)
        seed += 1


def _envelope_dim(clusters):
    try:
        out = _guarded(envelope, clusters)
    except (ValueError, RuntimeError) as exc:
        print("envelope raises %r on: %s" % (exc, _draw_line(clusters)))
        return None
    return None if out is None else max(c.n for c in out.clusters)


def _moves(word):
    try:
        cert = _guarded(contract_loop, generators.loop_of(word))
    except (ValueError, RuntimeError) as exc:
        print("contract_loop raises %r on: %s" % (exc, _word_line(word)))
        return None
    return None if cert is None else len(cert) - 1


def _draw_line(clusters):
    return " || ".join(render_cluster_line(c) for c in clusters)


def _word_line(word):
    return render_vertex(word)


def _write(name, lines, header):
    with open(os.path.join(INPUTS, name), "w", encoding="utf-8") as fh:
        fh.write("".join("# %s\n" % h for h in header))
        fh.writelines(line + "\n" for line in lines)


def write_pools(size):
    pool = []
    for draw in _draws(1000, generators.random_subcomplex):
        dim = _envelope_dim(draw)
        if dim is not None and dim <= MAX_POOL_DIM:
            pool.append("%d %s" % (dim, _draw_line(draw)))
            if len(pool) == size:
                break
    _write("envelope_pool.txt", pool,
           ["criterion-11 draws, seeds 1000.., envelope dimension <= %d"
            % MAX_POOL_DIM, "clusters of one draw are separated by ||"])

    pool = []
    for word in _draws(2000, generators.random_loop_word):
        moves = _moves(word)
        if moves is not None and moves <= MAX_POOL_MOVES:
            pool.append("%d %s" % (moves, _word_line(word)))
            if len(pool) == size:
                break
    _write("loop_pool.txt", pool,
           ["criterion-12 loop words w (the loop is w w^-1), seeds 2000..,"
            " at most %d certificate moves" % MAX_POOL_MOVES])


def write_cli_inputs():
    """A `cubulate` input with a 6-dimensional envelope cluster and a
    `contract-loop` input with 20 to 40 certificate moves, slower than the
    single-word calls and faster than `cluster` with 10 parameters."""
    rng = random.Random(17)
    while True:
        draw = generators.random_subcomplex(rng)
        if _envelope_dim(draw) == 6:
            break
    _write("cubulate.txt", [render_cluster_line(c) for c in draw],
           ["first criterion-11 draw of seed 17 with a 6-dimensional"
            " envelope cluster"])

    rng = random.Random(18)
    while True:
        word = generators.random_loop_word(rng)
        moves = _moves(word)
        if moves is not None and 20 <= moves <= 40:
            break
    loop = generators.loop_of(word)
    _write("loop.txt", [render_vertex(v) for v in loop],
           ["first criterion-12 loop of seed 18 with 20 to 40 moves"])


def main():
    os.makedirs(INPUTS, exist_ok=True)
    write_pools(POOL_SIZE)
    write_cli_inputs()


if __name__ == "__main__":
    main()
