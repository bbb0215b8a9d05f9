#!/usr/bin/env python3
"""Benchmark of cantorg: four closed-loop, single-threaded workloads.

    python3 bench/run.py --workload {envelope,relations,loops,cli}
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from `src/`.  Each
operation runs alone, the next one after it returns.  A run makes several
passes over the same seeded operations, one after another, each in a fresh
child process, so every pass starts with cold caches; each operation is
timed at the fastest of its passes.  Outputs are checked in every pass,
after its timed part.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of one traced pass with --trace 1.
A traced run also writes its per-layer totals and its spans to bench/out/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import oracles
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# (name, unit); see BENCHMARK.json for the bounds
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mib", "MiB"))


def _args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("envelope", "relations", "loops", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pass-index", type=int, default=None,
                   help="run one pass in this process: build the inputs, "
                   "print 'ready', run and check the operations and print "
                   "their times as JSON")
    return p.parse_args(argv)


def _import_program():
    """Put the checkout's `src/` first on the path and make sure that is
    where `cantorg` comes from."""
    if not os.path.isfile(os.path.join(SRC, "cantorg", "__init__.py")):
        sys.exit("bench: no program sources at %s" % SRC)
    sys.path.insert(0, SRC)
    import cantorg

    if os.path.dirname(os.path.dirname(cantorg.__file__)) != SRC:
        sys.exit("bench: cantorg was imported from %s" % cantorg.__file__)


def _pass_cmd(args, index):
    return [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--pass-index", str(index)]


def _run_pass(args, index):
    """One pass in a fresh interpreter.  Returns the time from its launch
    to its inputs being ready, and its report (see `_one_pass`)."""
    t0 = time.perf_counter()
    with subprocess.Popen(_pass_cmd(args, index), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        sys.exit("bench: pass %d failed in its child process" % index)
    return setup, json.loads(rest.splitlines()[-1])


def _one_pass(args, work):
    """The body of a pass child: run the operations once, check them and
    print the times as the last line."""
    with speed.Speedometer() as meter:
        _, spans, done, failed = _run_ops(work, meter=meter)
    peak = work.peak_rss_mib()  # before the checks
    # each pass checks its own seeded sample of the outputs
    work.rng.seed("check %d %d" % (args.seed, args.pass_index))
    print(json.dumps({
        "wall": sum(meter.own_s(t0, t1) for t0, t1 in spans),
        "times": [meter.own_s(t0, t1) for t0, t1 in spans],
        "scaled": [meter.scaled(k, t0, t1)
                   for k, (t0, t1) in enumerate(spans)],
        "slowness": meter.slowness(),
        "failed": failed, "correct": work.check(done),
        "peak_rss_mib": peak}))
    return 0


def _run_ops(work, tracer=None, meter=None):
    """Run every operation once, in order.  Returns the start and end of
    the timed part, the (start, end) of every operation, the (op, output)
    pairs that did not fail and the number that failed.  With a
    `speed.Speedometer`, it samples the host's speed before every
    operation and after the last."""
    spans, done, failed = [], [], 0
    clock = time.perf_counter
    t_start = clock()
    for k, op in enumerate(work.ops):
        if meter is not None:
            meter.sample_between()
        t0 = clock()
        try:
            if tracer is None:
                out = work.run(op)
            else:
                tracer.op = k
                out = tracer.call("op", work.run, op)
        except Exception as exc:  # an operation that raises has failed
            print("bench: operation %d failed: %r" % (k, exc),
                  file=sys.stderr)
            out = exc
        spans.append((t0, clock()))
        if isinstance(out, Exception) or work.failed(out):
            failed += 1
        else:
            done.append((op, out))
    if meter is not None:
        meter.sample_between()
    return (t_start, clock()), spans, done, failed


def _merge_child(tr, k, path):
    """Add the totals and spans a traced `cantorg` child wrote to the
    parent's, under operation k."""
    if not os.path.exists(path):  # the call was killed
        return
    with open(path, encoding="utf-8") as fh:
        child = json.load(fh)
    os.remove(path)
    parent = next(s[0] for s in tr.spans if s[1] == "op" and s[5] == k)
    base = len(tr.spans)
    for sid, layer, t0, t1, up, _ in child["spans"]:
        tr.spans.append((base + sid, layer, t0, t1,
                         parent if up is None else base + up, k))
    for name, value in child["totals"].items():
        tr.counts[name] = tr.counts.get(name, 0) + value
    tr.add("commands.import_s", child["import_s"])


def _traced(args, work):
    import tracer

    # the same pass untraced, in a fresh process, for trace.overhead_s
    untraced_wall = _run_pass(args, 0)[1]["wall"]
    tr = tracer.Tracer()
    os.makedirs(OUT, exist_ok=True)
    if args.workload == "cli":
        work.trace_dir = OUT
    else:
        tracer.install(tr)
    (t_start, t_end), spans, done, failed = _run_ops(work, tr)
    if args.workload == "cli":
        for k in range(len(work.ops)):
            _merge_child(tr, k, work.child_dump(k))
    totals = tr.totals()
    totals["trace.overhead_s"] = t_end - t_start - untraced_wall
    metrics = {name: {"value": totals.get(name, 0), "unit": unit}
               for name, unit in tracer.PER_LAYER}
    dump = os.path.join(OUT, "trace-%s-seed%d.json" % (args.workload,
                                                       args.seed))
    tr.dump(dump, {"workload": args.workload, "seed": args.seed,
                   "metrics": metrics})
    # after the totals, so that calls made by the checks are not counted
    correct = work.check(done)
    print(json.dumps({"correct": correct, "attempted": len(spans),
                      "failed": failed, "metrics": metrics}))
    return 0


def _end_to_end(passes, setups):
    """The end-to-end metrics of K passes over the same operations: each
    operation counts at the fastest of its K passes, at the reference
    speed."""
    fastest = [min(times) for times in zip(*(p["scaled"] for p in passes))]
    return {
        "setup_s": statistics.median(
            setup / p["slowness"] for setup, p in zip(setups, passes)),
        "wall_s": sum(fastest),
        "op_p50_ms": statistics.median(fastest) * 1e3,
        "op_tail_ms": oracles.percentile(
            fastest, oracles.tail_percentile(len(fastest))) * 1e3,
        "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
    }


def _pin():
    """Keep this process and every process it starts on one CPU, so that
    the speed samples of a pass are taken where its operations run."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None):
    args = _args(argv)
    _import_program()
    if args.pass_index is None:
        _pin()
    import workloads

    if args.pass_index is not None or args.trace:
        work = workloads.WORKLOADS[args.workload](args.seed)
        if args.trace:
            return _traced(args, work)
        print("ready", flush=True)
        return _one_pass(args, work)
    k = workloads.passes(args.workload, args.seconds)
    setups, passes = zip(*(_run_pass(args, i) for i in range(k)))
    values = _end_to_end(passes, setups)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    print(json.dumps({
        "correct": all(p["correct"] for p in passes),
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
