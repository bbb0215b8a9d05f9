"""Subcommand dispatch for the command-line tool.

Complex files are line oriented: one cluster per line, fields separated by
";" — first the base word, then one parameter word per field.  Blank lines
and lines starting with "#" are skipped.  Loop files hold one vertex word
per line.  All outputs are deterministic byte-for-byte.  A subcommand
imports only the modules it uses beyond words and normal forms: the
special-form calculus, the evaluation calculus, clusters, the pipeline or
loops.
"""

import argparse
import os
import sys

from .cli import (
    DOMAIN_ERROR,
    INTERNAL_ERROR,
    PARSE_ERROR,
    DomainError,
    ParseError,
    parse_rational,
    parse_word,
    render_word,
)
from .rewrite import equal_words, normalize


def render_vertex(v):
    return render_word(v) if v else "1"


def _y_form(text):
    from .special import from_letters
    word = parse_word(text)
    if any(lt.kind != "y" for lt in word):
        raise DomainError("expected a word in y-letters only")
    return from_letters(word)


# the most parameters a cluster SPEC or file line may have, checked before
# any of its 2^n corners is built (13 parameters take about 2 s)
MAX_CLUSTER_PARAMS = 16


def _cluster_fields(line):
    fields = [f.strip() for f in line.split(";")]
    if len(fields) - 1 > MAX_CLUSTER_PARAMS:
        raise DomainError(
            f"a cluster of {len(fields) - 1} parameters exceeds the bound "
            f"of {MAX_CLUSTER_PARAMS}")
    base = normalize(parse_word("" if fields[0] == "1" else fields[0]))
    return base, tuple(_y_form(f) for f in fields[1:])


def parse_cluster_line(line):
    from .complexes import Cluster
    return Cluster(*_cluster_fields(line))


def render_cluster_line(cluster):
    from .special import minimal_form, to_letters
    parts = [render_vertex(cluster.base_vertex)]
    parts.extend(
        render_word(to_letters(minimal_form(f))) for f in cluster.params
    )
    return " ; ".join(parts)


def _lines(path):
    """The stripped lines of a file, skipping blank and "#" lines."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                yield line


def read_cluster_file(path):
    return [parse_cluster_line(line) for line in _lines(path)]


def _print_cluster(cluster, piece=None):
    print("cluster: %s" % render_cluster_line(cluster))
    print("vertices: %d" % len(cluster.vertices))
    for v in sorted(cluster.vertices):
        print("  %s" % render_vertex(v))
    print("edges: %d" % len(cluster.edges))
    for e in sorted(map(sorted, cluster.edges)):
        print("  %s ; %s" % (render_vertex(e[0]), render_vertex(e[1])))
    if piece is not None:
        print("f-vector: %s" % " ".join(map(str, piece.f_vector())))


def cmd_normalize(args):
    print(normalize(parse_word(args.word)).render())


def cmd_equal(args):
    first, second = parse_word(args.first), parse_word(args.second)
    print("equal" if equal_words(first, second) else "distinct")


def cmd_eval(args):
    from .calculus import evaluate
    xi = parse_rational(args.point)
    print(evaluate(parse_word(args.word), xi).render())


def cmd_calc(args):
    from .calculus import calc_string, exponent
    word = parse_word(args.word)
    if any(lt.kind != "y" for lt in word):
        raise DomainError("calc takes a word in y-letters only")
    xi = parse_rational(args.point)
    c = calc_string(word, xi)
    print(c.render())
    e = exponent(c)
    print("exponent: %d" % e if isinstance(e, int) else e)


def cmd_support(args):
    from .calculus import supp_y
    cones = supp_y(normalize(parse_word(args.word)))
    print(repr(cones) if not cones.is_null() else "empty")


def cmd_special(args):
    from .special import (
        is_special, minimal_form, parity_of, to_letters, type_of)
    form = _y_form(args.word)
    if not is_special(form):
        print("special: no")
        return
    print("special: yes")
    print("type: %d" % type_of(form))
    print("parity: %s" % ("odd" if parity_of(form) else "even"))
    print("minimal: %s" % render_word(to_letters(minimal_form(form))))


def cmd_cluster(args):
    from .complexes import (
        MAX_CELL_DIM, Cluster, check_fill_dim, enumerate_cells)
    base, params = _cluster_fields(args.spec)
    max_dim = MAX_CELL_DIM if args.max_dim is None else args.max_dim
    if args.cells:
        check_fill_dim(len(params), max_dim)
    cluster = Cluster(base, params)
    _print_cluster(
        cluster, enumerate_cells(cluster, max_dim) if args.cells else None)


def cmd_intersect(args):
    from .complexes import intersect_clusters
    got = intersect_clusters(
        parse_cluster_line(args.first), parse_cluster_line(args.second)
    )
    if got is None:
        print("empty")
    else:
        _print_cluster(got)


def cmd_cubulate(args):
    from .pipeline import envelope
    clusters = read_cluster_file(args.file)
    out = envelope(clusters, max_dim=args.max_dim)
    print("clusters: %d" % len(out.clusters))
    for line in sorted(render_cluster_line(c) for c in out.clusters):
        print("  %s" % line)
    print("vertices: %d" % len(out.vertices))
    ok = sum(1 for good, _ in out.flag_report.values() if good)
    print("flag links: %d of %d ok" % (ok, len(out.flag_report)))


def cmd_contract_loop(args):
    from .loops import check_certificate, contract_loop
    from .special import coset_vertex
    loop = [coset_vertex(parse_word("" if line == "1" else line))
            for line in _lines(args.file)]
    cert = contract_loop(loop)
    if not check_certificate(loop, cert):
        raise RuntimeError("emitted certificate failed verification")
    print("moves: %d" % (len(cert) - 1))
    for kind, path, _ in cert:
        print("%s: %s" % (kind, " ; ".join(render_vertex(v) for v in path)))


# subcommand -> (handler, arguments); an argument "--name" is a flag
COMMANDS = {
    "normalize": (cmd_normalize, ("word",)),
    "equal": (cmd_equal, ("first", "second")),
    "eval": (cmd_eval, ("word", "point")),
    "calc": (cmd_calc, ("word", "point")),
    "support": (cmd_support, ("word",)),
    "special": (cmd_special, ("word",)),
    "cluster": (cmd_cluster, ("spec", "--cells")),
    "intersect": (cmd_intersect, ("first", "second")),
    "cubulate": (cmd_cubulate, ("file",)),
    "contract-loop": (cmd_contract_loop, ("file",)),
}


def _parser():
    p = argparse.ArgumentParser(prog="cantorg")
    p.add_argument("--max-dim", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, arguments) in COMMANDS.items():
        s = sub.add_parser(name)
        for arg in arguments:
            if arg.startswith("--"):
                s.add_argument(arg, action="store_true")
            else:
                s.add_argument(arg)
        s.set_defaults(func=func)
    return p


def run(argv):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else PARSE_ERROR
    try:
        args.func(args)
        return 0
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return PARSE_ERROR
    except BrokenPipeError:
        # the reader closed stdout early: not an error of the input, and
        # the flush at interpreter exit must not report it either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return DOMAIN_ERROR
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR
