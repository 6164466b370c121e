"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload corpus-train --seed 1 --seconds 30 --trace 0

A run sets the workload up, makes one untimed warm-up pass, then repeats
whole timed passes until --seconds of passes and at least MIN_REPEATS passes
per sample group are done. Every pass makes the same attempts, so each
attempt is timed several times.

The host's speed changes in phases of seconds to minutes, by up to a
factor of two (see README.md). Two measures keep that out of the figures.
Within a run, an attempt's time is its fastest repeat, the one the host
disturbed least; to have at least MIN_SAMPLES samples, passes are dealt into
G interleaved groups (pass i into group i mod G) and each attempt gives one
sample per group. Across runs, the times are scaled to one host speed: the
reference kernel of hostspeed.py is timed just before every attempt, its
fastest repeats are taken the same way, and attempt times are multiplied by
REFERENCE_S / their median. The unscaled times stay in the record file.

--trace 0 reports the end-to-end metrics. Set-up time is the median of
several cold set-ups: this process's own and SETUP_SAMPLES - 1 fresh
processes started between the timed passes. --trace 1 wraps the calls into
each module (see spans.py) and reports per-module figures for one set-up
plus the fastest pass; its end-to-end timings would carry the tracing
overhead and are not reported.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
A copy goes to .perfbench/ in the checkout, with the per-span aggregates of a
traced run.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_SAMPLES = 5      # cold set-ups per run: this process plus 4 probes
MIN_SAMPLES = 100      # attempt-time samples, so that ten lie beyond p90
MIN_REPEATS = 3        # timed passes behind each sample
REFERENCE_S = 0.5e-3   # reference kernel time at the host speed times are scaled to
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus-train", "mcts-eval", "deep-chains"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time one cold set-up and print it")
    return parser.parse_args(argv)


def import_prover():
    """Import the prover from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "mcprover", "__init__.py")):
        raise SystemExit(f"error: prover sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import mcprover

    if not os.path.abspath(mcprover.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: mcprover imported from {mcprover.__file__}, not {SRC}")
    import workloads

    return workloads


def setup_probe(args) -> float:
    """Cold set-up time in a fresh interpreter, imports included."""
    command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def sample_groups(attempts_per_pass: int) -> int:
    return -(-MIN_SAMPLES // attempts_per_pass)


def timed_passes(run_pass, seconds: float, after_pass=None) -> list:
    passes = []
    while True:
        started = time.perf_counter()
        result = run_pass()
        result.seconds = time.perf_counter() - started
        passes.append(result)
        if after_pass is not None:
            after_pass(len(passes))
        enough = len(passes) >= MIN_REPEATS * sample_groups(len(result.attempts))
        if enough and sum(p.seconds for p in passes) >= seconds:
            return passes


def attempt_samples(passes, field: str = "seconds") -> list:
    """Per group of passes and attempt, the attempt's least `field`."""
    groups = sample_groups(len(passes[0].attempts))
    return [min(getattr(p.attempts[i], field) for p in passes[g::groups])
            for g in range(groups) for i in range(len(passes[0].attempts))]


def pass_errors(warmup, passes) -> list:
    errors = []
    for result in [warmup] + passes:
        errors += result.errors
        if result.signature != warmup.signature:
            errors.append(f"pass summary {result.signature} differs from {warmup.signature}")
    return errors


def end_to_end(passes, setup_samples) -> tuple:
    """The metrics, and the factor by which the attempt times were scaled."""
    scale = REFERENCE_S / statistics.median(attempt_samples(passes, "reference_s"))
    samples = [t * scale for t in attempt_samples(passes)]
    groups = len(samples) // len(passes[0].attempts)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "attempts_per_s": (len(samples) / sum(samples), "1/s"),
        "inferences_per_s": (groups * passes[0].inferences / sum(samples), "1/s"),
        "attempt_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "attempt_p90_ms": (statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3, "ms"),
        "solved": (passes[0].solved, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}, scale


# (metric, unit, span, field, kind): times add set-up to the fastest pass,
# counts add set-up to the pass value (equal in every pass)
PER_LAYER = (
    ("tptp.parse_ms", "ms", "tptp.parse", "total_s", "ms"),
    ("clausify.clausify_ms", "ms", "clausify", "total_s", "ms"),
    ("unification.unify_calls", "count", "unification.unify", "calls", "count"),
    ("unification.unify_self_s", "s", "unification.unify", "self_s", "time"),
    ("unification.equal_under_calls", "count", "unification.equal_under", "calls", "count"),
    ("unification.equal_under_self_s", "s", "unification.equal_under", "self_s", "time"),
    ("calculus.successors_calls", "count", "calculus.successors", "calls", "count"),
    ("calculus.successors_self_s", "s", "calculus.successors", "self_s", "time"),
    ("deepening.rounds", "count", "deepening", "rounds", "count"),
    ("deepening.self_s", "s", "deepening", "self_s", "time"),
    ("mcts.iterations", "count", "mcts.run", "iterations", "count"),
    ("mcts.step_self_s", "s", "mcts.step", "self_s", "time"),
    ("mcts.playout_states", "count", "mcts.simulate", "states", "count"),
    ("proving.reward_self_s", "s", "proving.reward", "self_s", "time"),
    ("proving.weights_self_s", "s", "proving.weights", "self_s", "time"),
    ("checker.check_self_s", "s", "checker", "self_s", "time"),
    ("checker.actions", "count", "checker", "actions", "count"),
    ("trainstore.keytable_ms", "ms", "trainstore.keytable", "total_s", "ms"),
    ("trainstore.store_ms", "ms", "trainstore.store", "total_s", "ms"),
    ("trainstore.events", "count", "trainstore.store", "events", "count"),
    ("gc.pause_s", "s", "gc", "total_s", "time"),
)


def per_layer(setup_spans: dict, pass_spans: list, pass_seconds: list) -> tuple:
    def value(spans, span, fld):
        return spans.get(span, {}).get(fld, 0)

    errors = []
    metrics = {}
    for metric, unit, span, fld, kind in PER_LAYER:
        per_pass = [value(spans, span, fld) for spans in pass_spans]
        if kind == "count":
            if len(set(per_pass)) > 1:
                errors.append(f"{metric} differs between passes: {per_pass}")
            total = value(setup_spans, span, fld) + per_pass[0]
        else:
            total = value(setup_spans, span, fld) + min(per_pass)
        metrics[metric] = (total * 1e3 if kind == "ms" else total, unit)

    unify = [value(setup_spans, "unification.unify", k) + value(pass_spans[0], "unification.unify", k)
             for k in ("ok", "calls")]
    succ = [value(setup_spans, "calculus.successors", k) + value(pass_spans[0], "calculus.successors", k)
            for k in ("out", "calls")]
    depth = max(value(s, "mcts.run", "depth_max") for s in [setup_spans] + pass_spans)
    gen2 = value(setup_spans, "gc", "gen2") + min(value(s, "gc", "gen2") for s in pass_spans)
    metrics.update({
        "unification.unify_success_ratio": (unify[0] / unify[1] if unify[1] else 0.0, "ratio"),
        "calculus.successors_per_call": (succ[0] / succ[1] if succ[1] else 0.0, "count"),
        "mcts.tree_depth_max": (depth, "count"),
        "gc.gen2_collections": (gen2, "count"),
        "trace.pass_s": (min(pass_seconds), "s"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, errors


def write_record(args, record: dict):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_prover()
    factory = workloads.WORKLOADS[args.workload]

    if args.setup_probe:
        factory(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        return 0

    if args.trace:
        import spans

        tracer = spans.Tracer()
        with spans.tracing(tracer):
            workload = factory(args.seed)
            setup_spans = tracer.take()
            warmup = workload.run_pass()
            tracer.take()
            pass_spans = []
            passes = timed_passes(workload.run_pass, args.seconds,
                                  lambda n: pass_spans.append(tracer.take()))
        metrics, errors = per_layer(setup_spans, pass_spans, [p.seconds for p in passes])
        extra = {"setup_spans": setup_spans, "pass_spans": pass_spans}
    else:
        import hostspeed

        workload = factory(args.seed)
        setup_samples = [time.perf_counter() - STARTED]

        def probe_between_passes(done: int):
            if done < SETUP_SAMPLES:
                setup_samples.append(setup_probe(args))

        reference = hostspeed.Reference()
        warmup = workload.run_pass(reference.seconds)
        passes = timed_passes(lambda: workload.run_pass(reference.seconds), args.seconds,
                              probe_between_passes)
        while len(setup_samples) < SETUP_SAMPLES:
            setup_samples.append(setup_probe(args))
        metrics, scale = end_to_end(passes, setup_samples)
        errors = []
        extra = {"setup_samples": setup_samples, "host_scale": scale,
                 "attempt_s": [[a.seconds for a in p.attempts] for p in passes],
                 "reference_s": [[a.reference_s for a in p.attempts] for p in passes]}

    errors += pass_errors(warmup, passes)
    attempts = [a for p in passes for a in p.attempts]
    failed = [a for a in attempts if a.errors]
    for attempt in [a for a in warmup.attempts if a.errors] + failed:
        errors += attempt.errors
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(attempts), "failed": len(failed),
              "metrics": metrics}
    write_record(args, {**result, "workload": args.workload, "seed": args.seed,
                        "passes": len(passes), "pass_s": [p.seconds for p in passes],
                        "signature": repr(warmup.signature), "errors": errors, **extra})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
