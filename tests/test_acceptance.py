"""End-to-end acceptance suite: one test per criterion, each printing a
single pass/fail line (visible with `pytest -v -s` or on failure)."""

import itertools
import random

from cantorg.binseq import RationalSeq, incompatible, is_constant
from cantorg.calculus import calc_string, evaluate, exponent
from cantorg.cli import parse_word
from cantorg.complexes import (
    Cluster,
    a_delta,
    cluster_orbit_invariant,
    enumerate_cells,
    intersect_clusters,
    vertex_of,
)
from cantorg.loops import check_certificate, contract_loop, path_of
from cantorg.pipeline import envelope
from cantorg.rewrite import (
    Letter,
    expand_unit,
    inverse_word,
    invert_normal,
    normalize,
    pair_potential_cancellation,
)
from cantorg.special import (
    expand_at,
    from_letters,
    minimal_form,
    parity_of,
    to_letters,
    type_of,
)
from cantorg.thompson import x_gen
from cluster_oracles import brute_intersection
from substitution_oracles import pair_cancellation_bruteforce


def report(num, ok, detail=""):
    line = "criterion %2d: %s" % (num, "pass" if ok else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert ok, line


def X(s, e=1):
    return Letter("x", s, e)


def Y(s, e=1):
    return Letter("y", s, e)


def words_upto(n, lo=0):
    out = [""] if lo == 0 else []
    for k in range(max(lo, 1), n + 1):
        out.extend("".join(p) for p in itertools.product("01", repeat=k))
    return out


WORDS4 = words_upto(4)
YSUBS4 = [w for w in WORDS4 if not is_constant(w)]


def rational_points(max_pre=6, max_per=3):
    pts = set()
    for pre in words_upto(max_pre):
        for per in words_upto(max_per, lo=1):
            pts.add(RationalSeq(pre, per))
    return sorted(pts, key=lambda x: (x.pre, x.per))


# ---------------------------------------------------------------------------
# corpus of random words and permissible substitutions


def random_word(rng, max_letters=8):
    out = []
    for _ in range(rng.randint(1, max_letters)):
        kind = rng.choice("xy")
        if kind == "x":
            sub = rng.choice(WORDS4)
        else:
            sub = rng.choice(YSUBS4)
        out.append(Letter(kind, sub, rng.choice((-2, -1, 1, 2))))
    return out


def _substitute_once(rng, w):
    """Apply one randomly chosen relation-preserving rewrite, in place on a
    copy; returns the new word (possibly unchanged when no site fits)."""
    w = list(w)
    moves = rng.sample(range(5), 5)
    for move in moves:
        if move == 0:  # expand a unit y-letter
            sites = [i for i, lt in enumerate(w) if lt.kind == "y"]
            if not sites:
                continue
            i = rng.choice(sites)
            lt = w[i]
            sign = 1 if lt.exp > 0 else -1
            rest = ([Letter("y", lt.sub, lt.exp - sign)]
                    if abs(lt.exp) > 1 else [])
            w[i:i + 1] = expand_unit(lt.sub, sign) + rest
            return w
        if move == 1:  # commute incompatible y-neighbours
            sites = [
                i
                for i in range(len(w) - 1)
                if w[i].kind == "y" and w[i + 1].kind == "y"
                and incompatible(w[i].sub, w[i + 1].sub)
            ]
            if not sites:
                continue
            i = rng.choice(sites)
            w[i], w[i + 1] = w[i + 1], w[i]
            return w
        if move == 2:  # rearrange y past a following unit x-letter
            sites = []
            for i in range(len(w) - 1):
                a, b = w[i], w[i + 1]
                if a.kind == "y" and b.kind == "x" and abs(b.exp) == 1:
                    g = x_gen(b.sub)
                    if b.exp < 0:
                        g = g.invert()
                    img = g.act_on_word(a.sub)
                    if img is not None and not is_constant(img):
                        sites.append((i, img))
            if not sites:
                continue
            i, img = rng.choice(sites)
            w[i], w[i + 1] = w[i + 1], Letter("y", img, w[i].exp)
            return w
        if move == 3:  # split an exponent
            sites = [i for i, lt in enumerate(w) if abs(lt.exp) > 1]
            if not sites:
                continue
            i = rng.choice(sites)
            lt = w[i]
            sign = 1 if lt.exp > 0 else -1
            w[i:i + 1] = [
                Letter(lt.kind, lt.sub, sign),
                Letter(lt.kind, lt.sub, lt.exp - sign),
            ]
            return w
        if move == 4:  # insert a cancelling pair
            i = rng.randint(0, len(w))
            sub = rng.choice(YSUBS4)
            w[i:i] = [Letter("y", sub, 1), Letter("y", sub, -1)]
            return w
    return w


def corpus(rng, size):
    return [random_word(rng, 8) for _ in range(size)]


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_relation_soundness():
    points = rational_points()
    instances = []
    # (1) x_t x_s = x_s x_{t.x_s}
    for t in WORDS4:
        for s in WORDS4:
            img = x_gen(s).act_on_word(t)
            if img is not None:
                instances.append(([X(t), X(s)], [X(s), X(img)]))
    # (2) x_s^2 = x_{s0} x_s x_{s1}
    for s in WORDS4:
        instances.append(([X(s, 2)], [X(s + "0"), X(s), X(s + "1")]))
    # (3) y_t x_s = x_s y_{t.x_s}
    skipped = 0
    for t in YSUBS4:
        for s in WORDS4:
            img = x_gen(s).act_on_word(t)
            if img is None:
                continue
            if is_constant(img):
                skipped += 1
                continue
            instances.append(([Y(t), X(s)], [X(s), Y(img)]))
    # (4) commuting incompatible y's
    for t, s in itertools.combinations(YSUBS4, 2):
        if incompatible(t, s):
            instances.append(([Y(t), Y(s)], [Y(s), Y(t)]))
    # (5) y_s = x_s y_{s0} y_{s10}^-1 y_{s11}
    for s in YSUBS4:
        instances.append(
            ([Y(s)], [X(s), Y(s + "0"), Y(s + "10", -1), Y(s + "11")])
        )
    bad = 0
    for lhs, rhs in instances:
        for xi in points:
            if evaluate(lhs, xi) != evaluate(rhs, xi):
                bad += 1
                break
    report(
        1,
        bad == 0 and skipped == 0,
        "%d instances x %d points" % (len(instances), len(points)),
    )


def test_criterion_02_calc_example():
    c = calc_string(parse_word("y[100]^-1 y[10]"), RationalSeq.parse("1001(1)"))
    e = exponent(c)
    report(2, c.render() == "10 y 0 y^-1 (1)" and e == 2 and isinstance(e, int))


def test_criterion_03_normal_form_confluence():
    rng = random.Random(10)
    ok = True
    for w in corpus(rng, 1000):
        n = normalize(w)
        if normalize(n.to_items()) != n:
            ok = False
            break
        w2 = list(w)
        for _ in range(rng.randint(1, 5)):
            w2 = _substitute_once(rng, w2)
        if normalize(w2) != n:
            ok = False
            break
    report(3, ok, "1000 words, <=5 substitutions each")


def test_criterion_04_oracle_agreement():
    rng = random.Random(11)
    points = rational_points(max_pre=4, max_per=3)
    ok = True
    for w in corpus(rng, 1000):
        items = normalize(w).to_items()
        for xi in rng.sample(points, 20):
            if evaluate(w, xi) != evaluate(items, xi):
                ok = False
                break
        if not ok:
            break
    report(4, ok, "1000 words x 20 points")


def test_criterion_05_inverse_normal_forms():
    ok = True
    for s in ("10", "01", "100"):
        case1 = invert_normal(normalize([Y(s + "0"), Y(s)]))
        want1 = normalize(
            [X(s, -1), Y(s + "00", -1), Y(s + "01"), Y(s + "1", -1),
             Y(s + "0", -1)]
        )
        case2 = invert_normal(normalize([Y(s + "0", -1), Y(s)]))
        want2 = normalize(
            [X(s, -1), Y(s + "00", -1), Y(s + "01"), Y(s + "1", -1),
             Y(s + "0")]
        )
        ok = ok and case1 == want1 and case2 == want2
    rng = random.Random(12)
    for w in corpus(rng, 200):
        n = normalize(w)
        if not normalize(w + inverse_word(w)).is_identity():
            ok = False
        if invert_normal(invert_normal(n)) != n:
            ok = False
    report(5, ok)


def test_criterion_06_cancellation_automaton():
    subs = [w for w in words_upto(5) if not is_constant(w)]
    checked = 0
    ok = True
    for s in subs:
        for u in subs:
            if u == s or not u.startswith(s):
                continue
            for t in (1, -1):
                for v in (1, -1):
                    fsa = pair_potential_cancellation((s, t), (u, v))
                    ref = pair_cancellation_bruteforce((s, t), (u, v), depth=8)
                    checked += 1
                    if fsa != ref:
                        ok = False
    report(6, ok, "%d pairs" % checked)


def _random_special(rng):
    roots = [
        (("10", 1),),
        (("10", -1),),
        (("01", 1),),
        (("100", 1), ("101", -1)),
        (("001", -1), ("01", 1)),
    ]
    form = rng.choice(roots)
    for _ in range(rng.randint(0, 3)):
        form = expand_at(form, rng.randrange(len(form)))
    return form


def test_criterion_07_special_form_calculus():
    rng = random.Random(13)
    ok = True
    seen = set()
    for _ in range(500):
        a = _random_special(rng)
        b = _random_special(rng)
        seen.add((type_of(a), parity_of(a)))
        if minimal_form(minimal_form(a)) != minimal_form(a):
            ok = False
        same_min = minimal_form(a) == minimal_form(b)
        same_coset = vertex_of(to_letters(a)) == vertex_of(to_letters(b))
        if same_min != same_coset:
            ok = False
    carriers = [
        (("10", 1),),
        (("10", -1),),
        (("100", 1), ("101", -1)),
        (("100", -1), ("101", 1)),
    ]
    seen.update((type_of(f), parity_of(f)) for f in carriers)
    report(7, ok and len(seen) == 4, "classes: %d" % len(seen))


def _cl(base, *params):
    return Cluster(
        normalize(parse_word(base)),
        tuple(from_letters(parse_word(p)) for p in params),
    )


def test_criterion_08_cluster_combinatorics():
    ok = True
    ok &= enumerate_cells(_cl("", "y[01]", "y[10]^-1")).f_vector() == (4, 5, 2)
    ok &= enumerate_cells(_cl("", "y[01]", "y[110]")).f_vector() == (4, 4, 1)
    piece = enumerate_cells(_cl("", "y[001]", "y[01]^-1", "y[10]"))
    fv = piece.f_vector()
    ok &= fv[0] == 8 and fv[1] == 17 and piece.euler_characteristic() == 1
    for texts in [
        ("y[10]",),
        ("y[01]", "y[10]"),
        ("y[01]", "y[10]^-1"),
        ("y[01]", "y[110]"),
        ("y[100]", "y[1010]^-1 y[1011]"),
        ("y[001]", "y[01]^-1", "y[10]"),
        ("y[001]", "y[011]", "y[101]"),
    ]:
        ok &= enumerate_cells(_cl("", *texts)).euler_characteristic() == 1
    # diagonal-free clusters have 3^n faces in total
    for texts in [
        ("y[01]",),
        ("y[01]", "y[110]"),
        ("y[001]", "y[011]", "y[101]"),
    ]:
        c = _cl("", *texts)
        ok &= len(a_delta(c)) == c.n  # no junction constraints
        ok &= sum(enumerate_cells(c).f_vector()) == 3 ** c.n
    report(8, ok)


# building blocks for exhaustive orbit generation: region x parity x whether
# the region's outer leaves allow a consecutive junction with its neighbours
A_FORMS = [
    (("001", 1),),
    (("0010", 1),),
    (("0001", 1), ("001", -1)),
    (("00010", 1), ("00011", -1)),
]
B_FORMS = [
    (("01", 1),),
    (("010", 1),),
    (("011", 1),),
    (("0110", 1),),
    (("010", 1), ("011", -1)),
    (("0100", 1), ("0101", -1)),
    (("0110", 1), ("0111", -1)),
    (("01100", 1), ("01101", -1)),
]
C_FORMS = [
    (("10", 1),),
    (("110", 1),),
    (("100", 1), ("101", -1)),
    (("1100", 1), ("1101", -1)),
]


def test_criterion_09_orbit_counts():
    vals1 = set()
    for f in A_FORMS + B_FORMS + C_FORMS:
        vals1.add(cluster_orbit_invariant(Cluster(normalize([]), (f,))))
    vals2 = set()
    for b in B_FORMS:
        for c in C_FORMS:
            vals2.add(cluster_orbit_invariant(Cluster(normalize([]), (b, c))))
    vals3 = set()
    for a in A_FORMS:
        for b in B_FORMS:
            for c in C_FORMS:
                vals3.add(
                    cluster_orbit_invariant(Cluster(normalize([]), (a, b, c)))
                )
    counts = (len(vals1), len(vals2), len(vals3))
    report(9, counts == (2, 8, 32), "realized: %s" % (counts,))


CLUSTER_POOL = [
    ("", ("y[01]",)),
    ("", ("y[01]", "y[10]")),
    ("", ("y[01]", "y[10]^-1")),
    ("", ("y[100]", "y[1010]^-1 y[1011]")),
    ("", ("y[10]",)),
    ("", ("y[100]",)),
    ("", ("y[01]", "y[100]", "y[1010]^-1 y[1011]")),
    ("y[10]", ("y[01]",)),
    ("", ("y[001]", "y[01]^-1", "y[10]")),
    ("y[01]^2", ("y[010]",)),
    ("", ("y[0010]", "y[010]^-1")),
    ("x[0]", ("y[01]", "y[10]")),
]


def test_criterion_10_intersections():
    rng = random.Random(14)
    ok = True
    for _ in range(200):
        c1 = _cl(*rng.choice(CLUSTER_POOL)[0:1], *rng.choice(CLUSTER_POOL)[1])
        c2 = _cl(*rng.choice(CLUSTER_POOL)[0:1], *rng.choice(CLUSTER_POOL)[1])
        got = intersect_clusters(c1, c2)
        verts, edges = brute_intersection(c1, c2)
        if got is None:
            ok &= not verts
        else:
            ok &= got.vertices == verts and got.edges == edges
    report(10, ok, "200 pairs")


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


def _random_subcomplex(rng):
    base = rng.choice(["", "y[01]", "y[10]", "y[10]^2"])
    picks = rng.sample(ENVELOPE_FORMS, rng.randint(1, 3))
    forms = []
    for p in picks:
        f = from_letters(parse_word(p))
        if all(
            incompatible(s, t)
            for s, _ in f
            for g in forms
            for t, _ in g
        ):
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


def test_criterion_11_pipeline_end_to_end():
    rng = random.Random(15)
    ok = True
    for i in range(50):
        clusters = _random_subcomplex(rng)
        out = envelope(clusters)
        for c in clusters:
            if not any(
                c.vertices <= d.vertices and c.edges <= d.edges
                for d in out.clusters
            ):
                ok = False
        if not all(good for good, _ in out.flag_report.values()):
            ok = False
    report(11, ok, "50 subcomplexes")


def _random_identity_loop(rng):
    subs = ["01", "10", "100", "011", "1010", "0010"]
    word = []
    for _ in range(rng.randint(1, 6)):
        word.extend(
            parse_word("y[%s]%s" % (rng.choice(subs), rng.choice(["", "^-1"])))
        )
    letters = word + inverse_word(word)
    path = path_of(letters)
    trivial = vertex_of([])
    return [trivial] + path if path[0] != trivial else path


def test_criterion_12_loop_contraction():
    rng = random.Random(16)
    ok = True
    for _ in range(100):
        loop = _random_identity_loop(rng)
        assert len(loop) - 1 <= 12
        cert = contract_loop(loop)
        if not check_certificate(loop, cert):
            ok = False
        if any(v != vertex_of([]) for v in cert[-1][1]):
            ok = False
    report(12, ok, "100 loops")
