"""Hand-written digit rules of the y-substitution, kept as test oracles.

Each function spells the substitution out as its own if-chain, the way the
library did before every caller derived its rules from the one table
`cantorg.thompson.Y_RULES`.  Nothing here reads that table, so a wrong row
in it cannot hide behind the same row here.
"""

from cantorg.binseq import RationalSeq
from cantorg.rewrite import FToken, Letter
from cantorg.thompson import x_gen


def outer_reduce(o, buf):
    """Greedily let the left symbol (sign o) consume the digit buffer to its
    right; returns the resulting sign and leftover buffer."""
    while True:
        if o > 0:
            if buf.startswith("00"):
                buf = buf[2:]
            elif buf.startswith("01"):
                buf = buf[2:]
                o = -o
            elif buf.startswith("1"):
                buf = buf[1:]
            else:
                return o, buf
        else:
            if buf.startswith("10"):
                buf = buf[2:]
                o = -o
            elif buf.startswith("11"):
                buf = buf[2:]
            elif buf.startswith("0"):
                buf = buf[1:]
            else:
                return o, buf


def consume_emitting(o, buf):
    """Like outer_reduce, also returning the digits the symbol writes."""
    emitted = []
    while True:
        if o > 0:
            if buf.startswith("00"):
                emitted.append("0")
                buf = buf[2:]
            elif buf.startswith("01"):
                emitted.append("10")
                buf = buf[2:]
                o = -o
            elif buf.startswith("1"):
                emitted.append("11")
                buf = buf[1:]
            else:
                break
        else:
            if buf.startswith("10"):
                emitted.append("01")
                buf = buf[2:]
                o = -o
            elif buf.startswith("11"):
                emitted.append("1")
                buf = buf[2:]
            elif buf.startswith("0"):
                emitted.append("00")
                buf = buf[1:]
            else:
                break
    return o, "".join(emitted), buf


def eval_letter(sign, xi):
    """One percolating symbol applied to a whole rational sequence."""
    out = []
    seen = {}
    pre_len = len(xi.pre)
    per_len = len(xi.per)
    pos = 0
    s = sign
    while True:
        if pos >= pre_len:
            key = (s, (pos - pre_len) % per_len)
            if key in seen:
                cut = seen[key]
                return RationalSeq("".join(out[:cut]), "".join(out[cut:]))
            seen[key] = len(out)
        a = xi.digit(pos)
        if s > 0:
            if a == "0":
                if xi.digit(pos + 1) == "0":
                    out.append("0")
                else:
                    out.append("10")
                    s = -s
                pos += 2
            else:
                out.append("11")
                pos += 1
        else:
            if a == "0":
                out.append("00")
                pos += 1
            else:
                if xi.digit(pos + 1) == "0":
                    out.append("01")
                    s = -s
                else:
                    out.append("1")
                pos += 2


def descends(anc, dec):
    """Whether iterated expansion of the ancestor letter produces the
    descendant letter (equality counts).  Letters are (subscript, sign)."""
    c, sg = anc
    u, w = dec
    while True:
        if c == u:
            return sg == w
        if not u.startswith(c):
            return False
        rest = u[len(c):]
        if sg > 0:
            if rest.startswith("0"):
                c, sg = c + "0", 1
            elif rest.startswith("10"):
                c, sg = c + "10", -1
            elif rest.startswith("11"):
                c, sg = c + "11", 1
            else:
                return False
        else:
            if rest.startswith("00"):
                c, sg = c + "00", -1
            elif rest.startswith("01"):
                c, sg = c + "01", 1
            elif rest.startswith("1"):
                c, sg = c + "1", -1
            else:
                return False


def expand_unit(sub, sign):
    """y_s = x_s y_s0 y_s10^-1 y_s11, and the inverse word for y_s^-1."""
    if sign > 0:
        return [
            Letter("x", sub, 1),
            Letter("y", sub + "0", 1),
            Letter("y", sub + "10", -1),
            Letter("y", sub + "11", 1),
        ]
    return [
        Letter("y", sub + "11", -1),
        Letter("y", sub + "10", 1),
        Letter("y", sub + "0", -1),
        Letter("x", sub, -1),
    ]


def expand_letter(s, t):
    if t > 0:
        return ((s + "0", 1), (s + "10", -1), (s + "11", 1))
    return ((s + "00", -1), (s + "01", 1), (s + "1", -1))


def find_potential_contraction(ys):
    """A contractible triple in a sorted y-word as (case, s), or None."""
    exps = {lt.sub: lt.exp for lt in ys}
    for sub in exps:
        if sub.endswith("0"):
            s = sub[:-1]
            if (
                exps[sub] > 0
                and exps.get(s + "10", 0) < 0
                and exps.get(s + "11", 0) > 0
                and (s + "1") not in exps
            ):
                return (1, s)
        if sub.endswith("00"):
            s = sub[:-2]
            if (
                exps[sub] < 0
                and exps.get(s + "01", 0) > 0
                and exps.get(s + "1", 0) < 0
                and (s + "0") not in exps
            ):
                return (2, s)
    return None


def contraction_replacement(case, s):
    """The word a found triple contracts to: x_s^-1 y_s or x_s y_s^-1."""
    if case == 1:
        return [FToken(x_gen(s).invert()), Letter("y", s, 1)]
    return [FToken(x_gen(s)), Letter("y", s, -1)]


def pair_cancellation_bruteforce(outer, inner, depth=8):
    """Reference decision for pair_potential_cancellation: simulate the
    two-symbol calculation over every tail of the given length."""
    (s, t), (u, v) = outer, inner
    if not (u.startswith(s) and u != s):
        raise ValueError("outer subscript must properly prefix the inner one")
    for n in range(1 << depth):
        tail = format(n, f"0{depth}b")
        o, buf = outer_reduce(t, u[len(s):])
        i = v
        pos = 0
        if buf == "" and o == -i:
            return True
        while True:
            # right symbol consumes from the tail
            if i > 0:
                if tail.startswith("00", pos):
                    emit, pos = "0", pos + 2
                elif tail.startswith("01", pos):
                    emit, pos, i = "10", pos + 2, -i
                elif tail.startswith("1", pos) and pos < depth:
                    emit, pos = "11", pos + 1
                else:
                    break
            else:
                if tail.startswith("10", pos):
                    emit, pos, i = "01", pos + 2, -i
                elif tail.startswith("11", pos):
                    emit, pos = "1", pos + 2
                elif tail.startswith("0", pos) and pos < depth:
                    emit, pos = "00", pos + 1
                else:
                    break
            o, buf = outer_reduce(o, buf + emit)
            if buf == "" and o == -i:
                return True
    return False


def exponent(segs, tail, max_steps=200_000):
    """The substitution process on a calculation string, as `exponent`
    runs it: the surviving symbol count, or None for a potential
    cancellation."""
    k = len(segs)
    if k == 0:
        return 0
    signs = [sign for _, sign in segs]
    buffers = [segs[j + 1][0] for j in range(k - 1)]
    if any(b == "" and signs[j] == -signs[j + 1]
           for j, b in enumerate(buffers)):
        return None
    pos = 0
    seen = set()
    for _ in range(max_steps):
        moved = True
        while moved:
            moved = False
            for j in range(k - 1):
                signs[j], emitted, buffers[j] = consume_emitting(
                    signs[j], buffers[j])
                moved = moved or bool(emitted)
                if j > 0:
                    buffers[j - 1] += emitted
                if buffers[j] == "" and signs[j] == -signs[j + 1]:
                    return None
        if pos >= len(tail.pre):
            key = (tuple(signs), tuple(buffers),
                   (pos - len(tail.pre)) % len(tail.per))
            if key in seen:
                return k
            seen.add(key)
        a, i = tail.digit(pos), signs[k - 1]
        if i > 0:
            if a == "0":
                if tail.digit(pos + 1) == "0":
                    emit, pos = "0", pos + 2
                else:
                    emit, pos = "10", pos + 2
                    signs[k - 1] = -i
            else:
                emit, pos = "11", pos + 1
        else:
            if a == "0":
                emit, pos = "00", pos + 1
            else:
                if tail.digit(pos + 1) == "0":
                    emit, pos = "01", pos + 2
                    signs[k - 1] = -i
                else:
                    emit, pos = "1", pos + 2
        if k >= 2:
            buffers[k - 2] += emit
    raise RuntimeError("calculation did not stabilize")
