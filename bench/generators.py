"""Seeded inputs of the workloads.

The generators follow the acceptance suite's criteria 1, 11 and 12 (same
relation families, point set, bases, form pool and loop alphabet), but the
benchmark keeps its own copy so that a change to the tests never moves the
benchmark's inputs.
"""

import itertools
import os
import random

from cantorg.binseq import RationalSeq, incompatible, is_constant
from cantorg.cli import parse_word
from cantorg.commands import parse_cluster_line
from cantorg.complexes import Cluster, vertex_of
from cantorg.loops import path_of
from cantorg.rewrite import Letter, inverse_word, normalize
from cantorg.special import from_letters
from cantorg.thompson import x_gen

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs")


def read_lines(name):
    """The entries of an input file, without blank and `#` lines."""
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return [line.strip() for line in fh
                if line.strip() and not line.startswith("#")]


def stratified_sample(rng, name, strata):
    """Entries of a pool file whose lines are led by an integer key:
    `count` entries (at most all) with lo <= key <= hi for each
    (lo, hi, count, seeded) of `strata`.  An unseeded stratum gives its
    first `count` entries in file order, and these come first; a seeded
    one draws them without replacement, and these follow, shuffled.
    Fixed counts per stratum keep the share of slow entries the same for
    every seed.  Unseeded entries, at the same places in every run, keep
    the same work too, since the program's caches fill the same way
    before them."""
    pool = [line.split(" ", 1) for line in read_lines(name)]
    fixed, drawn = [], []
    for lo, hi, count, seeded in strata:
        entries = [text for key, text in pool if lo <= int(key) <= hi]
        count = min(count, len(entries))
        if seeded:
            drawn += rng.sample(entries, count)
        else:
            fixed += entries[:count]
    rng.shuffle(drawn)
    return fixed + drawn


def words_upto(n, lo=0):
    out = [""] if lo == 0 else []
    for k in range(max(lo, 1), n + 1):
        out.extend("".join(p) for p in itertools.product("01", repeat=k))
    return out


WORDS4 = words_upto(4)
YSUBS4 = [w for w in WORDS4 if not is_constant(w)]

# ---------------------------------------------------------------------------
# relations: criterion 1


def rational_points(max_pre=6, max_per=3):
    pts = {
        RationalSeq(pre, per)
        for pre in words_upto(max_pre)
        for per in words_upto(max_per, lo=1)
    }
    return sorted(pts, key=lambda x: (x.pre, x.per))


def relation_families():
    """The defining-relation instances over subscripts of length <= 4, by
    relation, each as (lhs, rhs) letter lists."""
    X = lambda s, e=1: Letter("x", s, e)  # noqa: E731
    Y = lambda s, e=1: Letter("y", s, e)  # noqa: E731
    fam = {"x_conj": [], "x_square": [], "y_conj": [], "y_commute": [],
           "y_expand": []}
    for t in WORDS4:
        for s in WORDS4:
            img = x_gen(s).act_on_word(t)
            if img is not None:
                fam["x_conj"].append(([X(t), X(s)], [X(s), X(img)]))
    for s in WORDS4:
        fam["x_square"].append(([X(s, 2)], [X(s + "0"), X(s), X(s + "1")]))
    for t in YSUBS4:
        for s in WORDS4:
            img = x_gen(s).act_on_word(t)
            if img is not None and not is_constant(img):
                fam["y_conj"].append(([Y(t), X(s)], [X(s), Y(img)]))
    for t, s in itertools.combinations(YSUBS4, 2):
        if incompatible(t, s):
            fam["y_commute"].append(([Y(t), Y(s)], [Y(s), Y(t)]))
    for s in YSUBS4:
        fam["y_expand"].append(
            ([Y(s)], [X(s), Y(s + "0"), Y(s + "10", -1), Y(s + "11")])
        )
    return fam


def relation_sample(rng, share):
    """The same share of every relation family, drawn without
    replacement; the per-family counts do not depend on the seed."""
    out = []
    for name, insts in relation_families().items():
        k = max(1, round(share * len(insts)))
        out.extend((name, lhs, rhs) for lhs, rhs in rng.sample(insts, k))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# envelope: criterion 11

ENVELOPE_BASES = ["", "y[01]", "y[10]", "y[10]^2"]
ENVELOPE_FORMS = [
    "y[01]",
    "y[10]",
    "y[100]",
    "y[10]^-1",
    "y[01]^-1",
    "y[011]",
    "y[0010]",
    "y[100] y[101]^-1",
    "y[1010]^-1 y[1011]",
    "y[01100]",
]


def random_subcomplex(rng):
    """One draw of the criterion-11 generator: a cluster of one to three
    independent forms over a base, and sometimes a second one-parameter
    cluster at the same base."""
    base = rng.choice(ENVELOPE_BASES)
    picks = rng.sample(ENVELOPE_FORMS, rng.randint(1, 3))
    forms = []
    for p in picks:
        f = from_letters(parse_word(p))
        if all(incompatible(s, t) for s, _ in f for g in forms for t, _ in g):
            forms.append(f)
    forms.sort()
    clusters = [Cluster(normalize(parse_word(base)), tuple(forms))]
    if rng.random() < 0.4:
        extra = from_letters(parse_word(rng.choice(ENVELOPE_FORMS)))
        try:
            clusters.append(Cluster(normalize(parse_word(base)), (extra,)))
        except ValueError:
            pass
    return clusters


def envelope_draws(rng, strata):
    """Draws of the committed pool (see make_inputs.py), stratified by the
    largest cluster dimension of their envelope."""
    lines = stratified_sample(rng, "envelope_pool.txt", strata)
    return [[parse_cluster_line(c) for c in line.split(" || ")]
            for line in lines]


def envelope_anchor():
    """Draw 12 of seed 17, whose envelope reaches an 8-parameter
    cluster."""
    rng = random.Random(17)
    for _ in range(12):
        random_subcomplex(rng)
    return random_subcomplex(rng)


# ---------------------------------------------------------------------------
# loops: criterion 12

LOOP_SUBS = ["01", "10", "100", "011", "1010", "0010"]


def random_loop_word(rng):
    word = []
    for _ in range(rng.randint(1, 6)):
        word.extend(parse_word(
            "y[%s]%s" % (rng.choice(LOOP_SUBS), rng.choice(["", "^-1"]))
        ))
    return word


def loop_draws(rng, strata):
    """Loop words of the committed pool (see make_inputs.py), stratified
    by the number of moves of their certificate."""
    return [parse_word(line)
            for line in stratified_sample(rng, "loop_pool.txt", strata)]


def loop_of(word):
    """The closed path spelled by word * word^-1 from the base vertex."""
    path = path_of(word + inverse_word(word))
    trivial = vertex_of([])
    return [trivial] + path if path[0] != trivial else path
