"""Subcommand dispatch for the command-line tool.

Complex files are line oriented: one cluster per line, fields separated by
";" — first the base word, then one parameter word per field.  Blank lines
and lines starting with "#" are skipped.  Loop files hold one vertex word
per line.  All outputs are deterministic byte-for-byte.  Only the commands
that use clusters, the pipeline or loops import those modules.
"""

import argparse
import os
import sys

from .calculus import calc_string, evaluate, exponent, supp_y
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
from .rewrite import normalize
from .special import (
    coset_vertex,
    from_letters,
    is_special,
    minimal_form,
    parity_of,
    to_letters,
    type_of,
)


def render_vertex(v):
    return render_word(v) if v else "1"


def _y_form(text):
    word = parse_word(text)
    if any(lt.kind != "y" for lt in word):
        raise DomainError("expected a word in y-letters only")
    return from_letters(word)


def parse_cluster_line(line):
    from .complexes import Cluster
    fields = [f.strip() for f in line.split(";")]
    base = normalize(parse_word("" if fields[0] == "1" else fields[0]))
    params = tuple(_y_form(f) for f in fields[1:])
    return Cluster(base, params)


def render_cluster_line(cluster):
    parts = [render_vertex(cluster.base_vertex)]
    parts.extend(
        render_word(to_letters(minimal_form(f))) for f in cluster.params
    )
    return " ; ".join(parts)


def read_cluster_file(path):
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            out.append(parse_cluster_line(line))
    return out


def _print_cluster(cluster, cells=False, max_dim=None):
    print("cluster: %s" % render_cluster_line(cluster))
    print("vertices: %d" % len(cluster.vertices))
    for v in sorted(cluster.vertices):
        print("  %s" % render_vertex(v))
    print("edges: %d" % len(cluster.edges))
    for e in sorted(map(sorted, cluster.edges)):
        print("  %s ; %s" % (render_vertex(e[0]), render_vertex(e[1])))
    if cells:
        from .complexes import MAX_CELL_DIM, enumerate_cells
        piece = enumerate_cells(
            cluster, MAX_CELL_DIM if max_dim is None else max_dim)
        print("f-vector: %s" % " ".join(map(str, piece.f_vector())))


def cmd_normalize(args):
    print(normalize(parse_word(args.word)).render())


def cmd_equal(args):
    a = normalize(parse_word(args.first))
    b = normalize(parse_word(args.second))
    print("equal" if a == b else "distinct")


def cmd_eval(args):
    xi = parse_rational(args.point)
    print(evaluate(parse_word(args.word), xi).render())


def cmd_calc(args):
    word = parse_word(args.word)
    if any(lt.kind != "y" for lt in word):
        raise DomainError("calc takes a word in y-letters only")
    xi = parse_rational(args.point)
    c = calc_string(word, xi)
    print(c.render())
    e = exponent(c)
    if isinstance(e, int):
        print("exponent: %d" % e)
    else:
        print("potential cancellation")


def cmd_support(args):
    cones = supp_y(normalize(parse_word(args.word)))
    print(repr(cones) if not cones.is_null() else "empty")


def cmd_special(args):
    form = _y_form(args.word)
    if not is_special(form):
        print("special: no")
        return
    print("special: yes")
    print("type: %d" % type_of(form))
    print("parity: %s" % ("odd" if parity_of(form) else "even"))
    print("minimal: %s" % render_word(to_letters(minimal_form(form))))


def cmd_cluster(args):
    _print_cluster(
        parse_cluster_line(args.spec), cells=args.cells, max_dim=args.max_dim
    )


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
    out = envelope(
        clusters,
        max_sep_iters=args.max_iters,
        max_dec_iters=args.max_iters * 10,
        max_dim=args.max_dim,
    )
    print("clusters: %d" % len(out.clusters))
    for line in sorted(render_cluster_line(c) for c in out.clusters):
        print("  %s" % line)
    print("vertices: %d" % len(out.vertices))
    ok = sum(1 for good, _ in out.flag_report.values() if good)
    print("flag links: %d of %d ok" % (ok, len(out.flag_report)))


def cmd_contract_loop(args):
    from .loops import check_certificate, contract_loop
    loop = []
    with open(args.file, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            loop.append(coset_vertex(parse_word("" if line == "1" else line)))
    cert = contract_loop(loop)
    if not check_certificate(loop, cert):
        raise RuntimeError("emitted certificate failed verification")
    print("moves: %d" % (len(cert) - 1))
    for kind, path, _ in cert:
        print("%s: %s" % (kind, " ; ".join(render_vertex(v) for v in path)))


def _parser():
    p = argparse.ArgumentParser(prog="cantorg")
    p.add_argument("--max-iters", type=int, default=8)
    p.add_argument("--max-dim", type=int, default=None)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("normalize")
    s.add_argument("word")
    s.set_defaults(func=cmd_normalize)

    s = sub.add_parser("equal")
    s.add_argument("first")
    s.add_argument("second")
    s.set_defaults(func=cmd_equal)

    s = sub.add_parser("eval")
    s.add_argument("word")
    s.add_argument("point")
    s.set_defaults(func=cmd_eval)

    s = sub.add_parser("calc")
    s.add_argument("word")
    s.add_argument("point")
    s.set_defaults(func=cmd_calc)

    s = sub.add_parser("support")
    s.add_argument("word")
    s.set_defaults(func=cmd_support)

    s = sub.add_parser("special")
    s.add_argument("word")
    s.set_defaults(func=cmd_special)

    s = sub.add_parser("cluster")
    s.add_argument("spec")
    s.add_argument("--cells", action="store_true")
    s.set_defaults(func=cmd_cluster)

    s = sub.add_parser("intersect")
    s.add_argument("first")
    s.add_argument("second")
    s.set_defaults(func=cmd_intersect)

    s = sub.add_parser("cubulate")
    s.add_argument("file")
    s.set_defaults(func=cmd_cubulate)

    s = sub.add_parser("contract-loop")
    s.add_argument("file")
    s.set_defaults(func=cmd_contract_loop)
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
    except OSError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return DOMAIN_ERROR
    except ValueError as exc:
        print("domain error: %s" % exc, file=sys.stderr)
        return DOMAIN_ERROR
    except RuntimeError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return INTERNAL_ERROR
