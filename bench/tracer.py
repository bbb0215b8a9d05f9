"""Per-layer tracing from outside the program.

`install` rebinds public functions of the `cantorg` modules, in every
module whose namespace holds them, to wrappers that time each call.  Class
constructors and methods are wrapped on the class.  Each wrapped call
pushes a frame; on return its self time (duration minus the time of
wrapped calls inside it) and its call count are added to its layer.  Calls
of the span layers are also kept as spans (id, name, start, end, parent
span, operation id) in memory; hot leaf layers are only counted, so the
trace stays small.  Nothing in `src/` changes.
"""

import functools
import importlib
import json
import time

MODULES = (
    "binseq", "thompson", "rewrite", "calculus", "special", "complexes",
    "pipeline", "loops", "cli", "commands",
)

# (layer, wrapped name, keep spans).  A layer name reused by several
# functions sums over them.
LAYERS = (
    ("binseq.RationalSeq", "binseq.RationalSeq.__init__", False),
    ("binseq.check_bits", "binseq.check_bits", False),
    ("binseq.ConeSet", "binseq.ConeSet.__init__", False),
    ("thompson.TreePair", "thompson.TreePair.__init__", False),
    ("thompson.act_on_seq", "thompson.TreePair.act_on_seq", False),
    ("thompson.compose", "thompson.compose", False),
    ("calculus.evaluate", "calculus.evaluate", False),
    ("calculus.eval_letter", "calculus.eval_letter", False),
    ("rewrite.normalize", "rewrite.normalize", False),
    ("rewrite.standardize", "rewrite.standardize", False),
    ("rewrite.remove_potential_cancellations",
     "rewrite.remove_potential_cancellations", False),
    ("rewrite.pair_potential_cancellation",
     "rewrite.pair_potential_cancellation", False),
    ("special.coset_vertex", "special.coset_vertex", False),
    ("special.pair_consecutive", "special.pair_consecutive", False),
    ("complexes.Cluster", "complexes.Cluster.__init__", True),
    ("complexes.Cluster.reparametrized",
     "complexes.Cluster.reparametrized", True),
    ("complexes.intersect_clusters", "complexes.intersect_clusters", True),
    ("complexes.link_flag_check", "complexes.link_flag_check", True),
    ("complexes.enumerate_cells", "complexes.enumerate_cells", True),
    ("pipeline.envelope", "pipeline.envelope", True),
    ("pipeline.separation_procedure", "pipeline.separation_procedure", True),
    ("pipeline.equivariant_decoupling",
     "pipeline.equivariant_decoupling", True),
    ("pipeline.disparate_cell_vertex", "pipeline.disparate_cell_vertex",
     False),
    ("pipeline.cubulate", "pipeline.cubulate", True),
    ("loops.contract_loop", "loops.contract_loop", True),
    ("loops.check_certificate", "loops.check_certificate", True),
    ("commands.parse", "cli.parse_word", False),
    ("commands.parse", "cli.parse_rational", False),
    ("commands.parse", "commands.parse_cluster_line", False),
    ("commands.parse", "commands.read_cluster_file", False),
    ("commands.render", "cli.render_word", False),
    ("commands.render", "commands.render_vertex", False),
    ("commands.render", "commands.render_cluster_line", False),
)


class Tracer:
    """Frames, per-layer totals and spans of one traced process."""

    def __init__(self):
        self.stack = []
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self.spans = []
        self.op = None
        self._words = set()

    def add(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, layer, fn, keep_span, before=None, after=None):
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        spans = self.spans
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1][1] if stack else None
            frame = [0.0, len(spans) if keep_span else parent]
            if keep_span:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                took = t1 - t0
                self_s[layer] += took - frame[0]
                calls[layer] += 1
                if stack:
                    stack[-1][0] += took
                if keep_span:
                    spans[frame[1]] = (frame[1], layer, t0, t1, parent,
                                       self.op)
            if after is not None:
                after(out)
            return out

        return traced

    def call(self, layer, fn, *args):
        """Run fn(*args) as a span of its own."""
        return self.wrap(layer, fn, True)(*args)

    # hooks

    def _count_word(self, args):
        word = args[0]
        if not isinstance(word, (list, tuple)):
            word = list(word)
            args = (word,) + tuple(args[1:])
        self._words.add(tuple(word))
        return args

    def _count_corners(self, args):
        params = tuple(args[2])
        self.add("complexes.Cluster.corners", 2 ** len(params))
        return args[:2] + (params,) + tuple(args[3:])

    def _count_moves(self, cert):
        self.add("loops.moves", len(cert) - 1)

    def totals(self):
        """Per-layer numbers: `<layer>.calls`, `<layer>.self_s` and the
        counts kept by the hooks."""
        out = dict(self.counts)
        name = "rewrite.normalize.distinct_words"
        out[name] = out.get(name, 0) + len(self._words)
        for layer, n in self.calls.items():
            for key, value in ((".calls", n), (".self_s", self.self_s[layer])):
                out[layer + key] = out.get(layer + key, 0) + value
        return out

    def dump(self, path, extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"totals": self.totals(), "spans": self.spans,
                       **extra}, fh)


def install(tracer):
    """Wrap every function of LAYERS in every `cantorg` module that
    holds it."""
    mods = [importlib.import_module("cantorg." + m) for m in MODULES]
    hooks = {
        "rewrite.normalize": (tracer._count_word, None),
        "complexes.Cluster.__init__": (tracer._count_corners, None),
        "loops.contract_loop": (None, tracer._count_moves),
    }
    for layer, qual, keep_span in LAYERS:
        mod_name, _, attr = qual.partition(".")
        mod = mods[MODULES.index(mod_name)]
        before, after = hooks.get(qual, (None, None))
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(
                layer, getattr(cls, meth), keep_span, before, after))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(layer, original, keep_span, before, after)
        for m in mods:
            for name, value in list(vars(m).items()):
                if value is original:
                    setattr(m, name, wrapped)


def _per_layer():
    timed = [
        "binseq.RationalSeq", "thompson.act_on_seq", "thompson.TreePair",
        "thompson.compose", "calculus.evaluate", "calculus.eval_letter",
        "rewrite.normalize", "rewrite.standardize",
        "rewrite.remove_potential_cancellations",
        "rewrite.pair_potential_cancellation", "special.coset_vertex",
        "complexes.Cluster", "complexes.intersect_clusters",
        "complexes.link_flag_check", "complexes.enumerate_cells",
    ]
    out = []
    for layer in timed:
        out += [(layer + ".calls", "count"), (layer + ".self_s", "s")]
    out += [
        ("binseq.check_bits.calls", "count"),
        ("binseq.ConeSet.calls", "count"),
        ("rewrite.normalize.distinct_words", "count"),
        ("special.pair_consecutive.calls", "count"),
        ("complexes.Cluster.corners", "count"),
        ("complexes.Cluster.reparametrized.calls", "count"),
        ("pipeline.separation_procedure.self_s", "s"),
        ("pipeline.equivariant_decoupling.self_s", "s"),
        ("pipeline.disparate_cell_vertex.calls", "count"),
        ("pipeline.cubulate.self_s", "s"),
        ("loops.contract_loop.self_s", "s"),
        ("loops.check_certificate.self_s", "s"),
        ("loops.moves", "count"),
        ("commands.import_s", "s"),
        ("commands.parse.self_s", "s"),
        ("commands.render.self_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return tuple(out)


# (name, unit) of every per-layer metric a traced run reports
PER_LAYER = _per_layer()
