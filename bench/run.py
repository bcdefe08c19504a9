"""Benchmark of the p-th-power deciders: one workload per run, one thread.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's operations are built from the seed before timing
starts and then run as a closed loop with one client: the next operation
starts when the previous one returns.  The loop runs the whole operation
list once, then gives each operation an equal share of the time left
before ``--seconds``, so cheap operations collect many samples.  Every answer is
checked after the loop; a wrong answer exits with code 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics.  With ``--trace 1`` the run traces one pass of the
operation list, runs the untraced loop for the overhead comparison, writes
the spans to ``bench/out/`` and prints the per-layer metrics instead.  See
bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("suite", "members", "spectrum", "perturbed")
SETUP_REPEATS = 5

# the same steps as workloads.setup, timed from before the package import
SETUP_CHILD = """
import json, sys, time
from speed import SpeedProbe, settle_time
probe = SpeedProbe()
probe.start()
t0 = time.perf_counter()
import padicpowers as pp
for p, kind, poly in json.loads(sys.argv[1]):
    pp.enumerate_classes(pp.make_field(p, getattr(pp, kind), poly))
elapsed = time.perf_counter() - t0
end = probe.mark()
time.sleep(settle_time())
probe.stop()
print(probe.normalize(elapsed, 0, end))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the p-th-power deciders.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(specs) -> float:
    """Median time, in fresh interpreters, to import the package, build the
    workload's fields and fill their class tables."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(specs)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def closed_loop(ops, seconds, call, probe):
    """Run every op once.  Then, while time remains, run again the op with
    the least measured time so far among those that, at their first measured
    time, still end within the budget: each op gets an equal share of the
    time, so cheap ops collect many samples and dear ones at least one.
    ``call(op)`` returns (result, elapsed); a library error is returned as
    the result.  Returns per-op samples at reference speed, the result of
    each op's first run, and the labels of repeats whose answer differed
    from the first."""
    runs = [[] for _ in ops]  # (elapsed, first probe sample, end probe sample)
    spent = [0.0] * len(ops)
    first = [None] * len(ops)
    unstable = []
    probe.start()
    start = time.perf_counter()

    def run(k):
        i0 = probe.mark()
        result, elapsed = call(ops[k])
        runs[k].append((elapsed, i0, probe.mark()))
        spent[k] += elapsed
        return result

    for k in range(len(ops)):
        first[k] = run(k)
    while True:
        left = seconds - (time.perf_counter() - start)
        fits = [k for k in range(len(ops)) if runs[k][0][0] <= left]
        if not fits:
            break
        k = min(fits, key=spent.__getitem__)
        if not same_answer(run(k), first[k]):
            unstable.append(ops[k].label)
    settle(probe)
    samples = [[probe.normalize(*r) for r in op_runs] for op_runs in runs]
    return samples, first, unstable


def settle(probe):
    """Let the probe take the samples that follow the last interval, then stop it."""
    time.sleep(speed.settle_time())
    probe.stop()


def same_answer(a, b) -> bool:
    """Equal answers; two raised errors agree when their types do."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b)
    return a == b


def summarize(samples):
    """wall_s sums the per-op medians: the time of one pass of the list.
    The tail is the per-op median with at least ten operations above it."""
    medians = [statistics.median(s) for s in samples]
    ordered = sorted(medians)
    n = len(ordered)
    idx = max(n - 11, 0)
    return {
        "wall_s": sum(medians),
        "op_p50_ms": statistics.median(medians) * 1e3,
        "op_tail_ms": ordered[idx] * 1e3,
        "tail_percentile": 100.0 * (idx + 1) / n,
        "ops": n,
        "samples": sum(len(s) for s in samples),
    }


def check_answers(ops, results, error_type) -> list[str]:
    errors = []
    for op, result in zip(ops, results):
        if isinstance(result, error_type):
            continue  # a failure, counted as such, not a wrong answer
        message = op.check(result)
        if message:
            errors.append(f"{op.label}: {message}")
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(tracer, scale, setup_scale, traced_wall, untraced_wall, probe_failures):
    """Per-layer metrics of one traced pass.  Times are scaled to reference
    speed by the probe's factor over the pass (over the set-up for
    enumerate_classes)."""
    calls, counts, repeats = tracer.calls, tracer.counts, tracer.repeats
    own = defaultdict(float, {name: t * scale for name, t in tracer.self_s.items()})

    def share(name):
        return repeats[name] / calls[name] if calls[name] else 0.0

    out = {}
    for name in (
        "polyring.resultant",
        "polyring.squarefree_decompose",
        "polyring.reduce_power_free",
        "roots.roots_in_valuation_ring",
        "polyring.eval",
        "powerclasses.is_pth_power",
        "powerclasses.class_of",
        "constructions.stability_radius",
    ):
        out[f"{name}.calls"] = metric(calls[name], "count")
        out[f"{name}.self_s"] = metric(own[name], "s")
    out["powerclasses.class_of.total_s"] = metric(tracer.total_s["powerclasses.class_of"] * scale, "s")
    out["polyring.resultant.max_input_bits"] = metric(tracer.max_resultant_bits, "bits")
    for name in ("polyring.squarefree_decompose", "roots.roots_in_valuation_ring"):
        out[f"{name}.repeat_share"] = metric(share(name), "ratio")
    for name in (
        "polyring.reciprocal",
        "roots.has_root_in_field",
        "decide.decide_CK",
        "decide.decide_CZ",
        "decide.class_spectrum",
        "powerclasses.same_class",
    ):
        out[f"{name}.calls"] = metric(calls[name], "count")
    out["decide.self_s"] = metric(sum(v for k, v in own.items() if k.startswith("decide.")), "s")
    out["decide.points_evaluated"] = metric(counts["decide.points_evaluated"], "count")
    out["decide.failures"] = metric(counts["decide.failures"] + probe_failures, "count")
    _, enum_total, enum_self = tracer.hot.get(("setup", "powerclasses.enumerate_classes"), (0, 0.0, 0.0))
    out["powerclasses.enumerate_classes.self_s"] = metric(setup_scale * enum_self, "s")
    out["powerclasses.enumerate_classes.total_s"] = metric(setup_scale * enum_total, "s")
    for name in ("mul.calls", "add.calls", "ord.calls", "residues.yielded"):
        out[f"localfield.{name}"] = metric(counts[f"localfield.{name}"], "count")
    out["trace.unspanned_s"] = metric(own["op"], "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "padicpowers" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import padicpowers as pp
    import workloads

    field_names = workloads.WORKLOAD_FIELDS[args.workload]
    probe = speed.SpeedProbe()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        probe.start()
        s0 = probe.mark()
        tracer.active = True
        tracer.run_op("setup", lambda: workloads.setup(field_names))
        tracer.active = False
        s1 = probe.mark()

    t0 = time.perf_counter()
    wl = workloads.BUILDERS[args.workload](args.seed)
    print(f"workload={wl.name} seed={wl.seed} ops={len(wl.ops)} fields={','.join(wl.fields)} "
          f"build_s={time.perf_counter() - t0:.3f}")
    workloads.setup(field_names)  # warm the class tables before timing

    def timed(op):
        t = time.perf_counter()
        try:
            result = op.run()
        except pp.PadicError as exc:
            result = exc
        return result, time.perf_counter() - t

    def is_failure(result):
        return isinstance(result, pp.PadicError)

    if tracer is None:
        setup_s = measure_setup([workloads.FIELD_SPECS[name] for name in field_names])
        samples, first, unstable = closed_loop(wl.ops, args.seconds, timed, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        traced_results = []
    else:
        for totals in (tracer.calls, tracer.self_s, tracer.total_s, tracer.counts, tracer.repeats):
            totals.clear()
        tracer.active = True
        p0 = probe.mark()
        traced = []
        for op in wl.ops:
            i0 = probe.mark()
            result, elapsed = tracer.run_op(op.label, lambda op=op: timed(op)[0])
            traced.append((result, elapsed, i0, probe.mark()))
        tracer.active = False
        p1 = probe.mark()
        tracer.uninstall()
        traced_results = [run[0] for run in traced]
        samples, first, unstable = closed_loop(wl.ops, args.seconds, timed, probe)
        traced_wall = sum(probe.normalize(*run[1:]) for run in traced)

    s = summarize(samples)
    errors = [f"{label}: a repeated run gave another answer" for label in unstable]
    errors += [
        f"{op.label}: the traced run gave another answer"
        for op, a, b in zip(wl.ops, traced_results, first)
        if not same_answer(a, b)
    ]
    errors += check_answers(wl.ops, first, pp.PadicError)
    failed = sum(len(runs) for runs, r in zip(samples, first) if is_failure(r))
    attempted = s["samples"]
    print(f"attempted={attempted} failed={failed} fail_share={failed / attempted:.4f}")

    if tracer is None:
        print(f"op_tail_ms is p{s['tail_percentile']:.1f} of {s['ops']} per-op medians")
        metrics = {
            "wall_s": metric(s["wall_s"], "s"),
            "op_p50_ms": metric(s["op_p50_ms"], "ms"),
            "op_tail_ms": metric(s["op_tail_ms"], "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
    else:
        errors += tracer.check()
        probe_failures = 0
        if wl.name == "members":
            t1 = time.perf_counter()
            outcome = workloads.run_defect_probe()
            probe_failures = int(outcome.startswith("raised"))
            name, m = workloads.DEFECT_PROBE
            print(f"known defect: decide_CK(make_ck_not_power({name}, {m})) {outcome} after "
                  f"{time.perf_counter() - t1:.2f} s (untraced, outside the timed loop)")
        # the probe has stopped by now, so every window is complete
        metrics = layer_metrics(
            tracer, probe.factor(p0, p1), probe.factor(s0, s1), traced_wall, s["wall_s"], probe_failures
        )
        tracer.write(
            OUT / f"trace-{wl.name}-seed{wl.seed}.json",
            {"workload": wl.name, "seed": wl.seed, "traced_wall_s": traced_wall,
             "untraced_wall_s": s["wall_s"]},
        )

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for line in errors:
        print(f"WRONG: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
