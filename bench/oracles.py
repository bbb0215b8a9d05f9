"""Checks that the benchmark makes on the program's outputs, written apart
from the program: a digit-substitution evaluator on finite prefixes, the
percentile rule for the tail metric, and the parsers for CLI output.

Nothing here imports `cantorg`, so a fault in the program cannot hide in
its own checker.
"""

import math
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# finite-prefix evaluator
#
# x_s acts inside cone(s) by s00 -> s0, s01 -> s10, s1 -> s11.  y_s acts
# inside cone(s) by a percolating symbol that reads the digits after s:
#   y:    00 -> 0,  01 -> 10 (becomes y^-1),  1 -> 11
#   y^-1: 0 -> 00,  10 -> 01 (becomes y),     11 -> 1
# On a finite prefix each map returns only the output digits that the
# prefix determines.


def _x_step(rest, sign):
    """One x_eps step on the digits after the subscript, or None when the
    digits do not yet decide the branch."""
    if sign > 0:
        if rest.startswith("00"):
            return "0" + rest[2:]
        if rest.startswith("01"):
            return "10" + rest[2:]
        if rest.startswith("1"):
            return "11" + rest[1:]
    else:
        if rest.startswith("0"):
            return "00" + rest[1:]
        if rest.startswith("10"):
            return "01" + rest[2:]
        if rest.startswith("11"):
            return "1" + rest[2:]
    return None


def y_symbol(sign, digits):
    """The determined output of a percolating symbol started with `sign`
    on the finite word `digits`."""
    out = []
    i, n = 0, len(digits)
    while i < n:
        a = digits[i]
        if sign > 0 and a == "1":
            out.append("11")
            i += 1
        elif sign < 0 and a == "0":
            out.append("00")
            i += 1
        elif i + 1 >= n:
            break
        else:
            b = digits[i + 1]
            if sign > 0:
                out.append("0" if b == "0" else "10")
                sign = sign if b == "0" else -sign
            else:
                out.append("1" if b == "1" else "01")
                sign = sign if b == "1" else -sign
            i += 2
    return "".join(out)


def apply_letter(kind, sub, exp, digits):
    """Image of a finite prefix under x_sub^exp or y_sub^exp, cut to the
    digits it determines."""
    if not digits.startswith(sub):
        # identity off cone(sub); a proper prefix of sub is all we know
        return digits
    sign = 1 if exp > 0 else -1
    rest = digits[len(sub):]
    for _ in range(abs(exp)):
        if kind == "x":
            step = _x_step(rest, sign)
            if step is None:
                return sub
            rest = step
        else:
            rest = y_symbol(sign, rest)
    return sub + rest


def eval_prefix(word, digits):
    """Image of a finite prefix under a word given as (kind, sub, exp)
    triples acting left to right."""
    for kind, sub, exp in word:
        digits = apply_letter(kind, sub, exp, digits)
    return digits


_POINT_RE = re.compile(r"^([01]*)\(([01]+)\)$")


def point_prefix(text, n):
    """The first n digits of an eventually periodic point written
    `pre(per)`."""
    m = _POINT_RE.match(text.strip())
    if m is None:
        raise ValueError("not a point: %r" % text)
    pre, per = m.group(1), m.group(2)
    reps = max(0, n - len(pre)) // len(per) + 1
    return (pre + per * reps)[:n]


# ---------------------------------------------------------------------------
# tail percentile

TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def nearest_rank(n, p):
    """1-based nearest rank of percentile p among n sorted samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def tail_percentile(n):
    """The highest percentile of the ladder that leaves at least ten of n
    samples strictly beyond it, or None below forty samples."""
    if n < 40:
        return None
    return max(p for p in TAIL_LADDER if n - nearest_rank(n, p) >= 10)


def percentile(values, p):
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), p) - 1]


# ---------------------------------------------------------------------------
# CLI output


def cube_f_vector(n):
    """Faces of the n-cube by dimension: C(n, k) * 2^(n - k)."""
    return tuple(math.comb(n, k) * 2 ** (n - k) for k in range(n + 1))


def _counted_block(lines, header):
    """The count after `header:` and the indented lines that follow it."""
    for i, line in enumerate(lines):
        if line.startswith(header + ": "):
            count = int(line.split(": ", 1)[1])
            body = []
            for rest in lines[i + 1:]:
                if not rest.startswith("  "):
                    break
                body.append(rest.strip())
            return count, body
    raise ValueError("no %r line" % header)


def check_cluster_output(stdout, n, cells=False):
    """A diagonal-free cluster with n parameters is an n-cube: 2^n distinct
    vertices, n * 2^(n-1) distinct edges, and, with --cells, the n-cube
    f-vector."""
    lines = stdout.splitlines()
    nv, verts = _counted_block(lines, "vertices")
    ne, edges = _counted_block(lines, "edges")
    ok = (
        nv == 2 ** n == len(set(verts)) == len(verts)
        and ne == n * 2 ** (n - 1) == len(set(edges)) == len(edges)
        and all(set(e.split(" ; ")) <= set(verts) for e in edges)
    )
    if cells:
        want = "f-vector: " + " ".join(map(str, cube_f_vector(n)))
        ok = ok and lines[-1] == want
    return ok


def check_cubulate_output(stdout):
    """Every vertex link of the envelope is a flag complex, and the
    listed clusters match their count."""
    lines = stdout.splitlines()
    nc, clusters = _counted_block(lines, "clusters")
    m = re.fullmatch(r"flag links: (\d+) of (\d+) ok", lines[-1])
    return (
        m is not None
        and m.group(1) == m.group(2)
        and int(m.group(2)) > 0
        and nc == len(clusters) > 0
    )


def check_contract_loop_output(stdout, loop_length):
    """The certificate starts from the input loop, lists as many moves as
    it counts, and ends on base vertices only."""
    lines = stdout.splitlines()
    moves = int(lines[0].split(": ", 1)[1])
    body = lines[1:]
    start = body[0].split(": ", 1)
    last = body[-1].split(": ", 1)[1].split(" ; ")
    return (
        len(body) == moves + 1
        and start[0] == "start"
        and len(start[1].split(" ; ")) == loop_length
        and all(v == "1" for v in last)
    )
