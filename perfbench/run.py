"""Benchmark for gptkit, run from the root of a checkout:

    python3 perfbench/run.py --workload lp_decisions --seed 1 --seconds 18 --trace 0

One process, one caller: every operation starts after the previous one
returns (a closed loop with one client), and the ``cli`` workload runs its
subprocesses one at a time.  The run repeats whole rounds of the
workload's seeded operations until ``--seconds`` of round time has passed,
checks every answer against a computation made apart from gptkit, feeds
each check deliberately wrong answers to prove that it rejects them, and
prints one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run.  See README.md.
"""

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import common  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = {"lp_decisions": "lp_decisions", "tensor_vertices": "tensor_vertices",
             "analytic": "analytic", "cli": "cli_calls"}
# fresh interpreters timed per run for setup_s
SETUP_PROBES = 2
# in-process passes over the CLI calls in a traced run
CLI_LAYER_REPEATS = 3
# The reference task (common.time_reference) runs between operations at
# most this often, and this many times after each round.  On the reference
# machine the lower decile of its calls is REFERENCE_DECILE_S and their
# median REFERENCE_MEDIAN_S.
REFERENCE_EVERY_S = 0.02
REFERENCE_AFTER_ROUND = 20
REFERENCE_DECILE_S = 0.65e-3
REFERENCE_MEDIAN_S = 1.1e-3
# a label whose lower-decile call takes at least this long is long; the
# calls of the workloads lie below 0.1 s or above 0.18 s
LONG_CALL_S = 0.15
# a label called this often in a run reaches the machine's fast moments on
# its own and is not scaled
UNSCALED_CALLS = 100


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args()


def import_gptkit():
    """Import gptkit from this checkout's src/, and nowhere else."""
    if not (SRC / "gptkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gptkit sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import gptkit

    if Path(gptkit.__file__).resolve().parent != SRC / "gptkit":
        sys.exit(f"perfbench: imported gptkit from {gptkit.__file__}, not {SRC}")


def main():
    args = parse_args()
    # One CPU for this process and its children, so that the reference task
    # and the operations share the same core's speed.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_gptkit()
    import numpy as np

    module = __import__(WORKLOADS[args.workload])
    if args.setup_probe:
        workload = module.build(np.random.default_rng(args.seed))
        warm_up(workload)
        print("ready", flush=True)
        workload.cleanup()
        return 0
    setup = [] if args.trace else [probe_setup(args) for _ in range(SETUP_PROBES)]
    workload = module.build(np.random.default_rng(args.seed))
    if len({(op.label, op.kind) for op in workload.ops}) != len(
            {op.label for op in workload.ops}):
        sys.exit("perfbench: one label is used for two kinds")
    try:
        warm_up(workload)
        if args.trace:
            phases, metrics, extra = traced_run(args, workload)
        else:
            phases, metrics = plain_run(workload, setup, args.seconds)
            extra = {"setup_samples_s": setup}
        mutants = self_check(phases)
    except common.WrongAnswer as exc:
        print(f"perfbench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 0, "failed": 0,
                          "metrics": {}}))
        return 1
    finally:
        workload.cleanup()
    result = {
        "correct": True,
        "attempted": sum(p["attempted"] for p in phases),
        "failed": sum(p["failed"] for p in phases),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    failed_labels = Counter()
    for p in phases:
        failed_labels.update(p["failed_labels"])
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  rounds=[p["rounds"] for p in phases],
                  round_s=[p["round_s"] for p in phases],
                  ops_per_round=len(workload.ops), failed_labels=failed_labels,
                  mutants_rejected=mutants,
                  details=details(workload, phases[0]),
                  speed_scales=speed_scales(phases[0]),
                  **extra)
    common.OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (common.OUT / name).write_text(json.dumps(record, indent=1, default=float))
    print(json.dumps(result))
    return 0


def probe_setup(args):
    """Seconds from a fresh interpreter until gptkit is imported, the inputs
    are built and one warm-up pass is done."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=HERE.parent, stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        sys.exit("perfbench: the setup probe failed")
    return elapsed


def warm_up(workload):
    """One call of each distinct operation (label)."""
    from gptkit.errors import GptkitError

    done = set()
    for op in workload.ops:
        if op.label in done:
            continue
        done.add(op.label)
        try:
            op.call()
        except GptkitError:
            pass


def run_phase(workload, ops, seconds, after_first_round=None):
    """Whole rounds of ``ops`` until ``seconds`` of round time has passed.

    Answers are checked after each round, outside the timed span.
    """
    from gptkit.errors import GptkitError

    stats = {"label_times": defaultdict(list), "round_s": [], "rounds": 0,
             "spent": 0.0,
             "attempted": 0, "failed": 0, "completed": 0,
             "failed_labels": Counter(), "samples": {}, "child_rss_kb": 0,
             "reference_s": []}
    last_reference = 0.0
    while stats["rounds"] == 0 or stats["spent"] < seconds:
        results = []
        round_start = time.perf_counter()
        reference_s = 0.0
        for op in ops:
            start = time.perf_counter()
            if start - last_reference >= REFERENCE_EVERY_S:
                stats["reference_s"].append(common.time_reference())
                reference_s += stats["reference_s"][-1]
                last_reference = start = time.perf_counter()
            try:
                out, ok = op.call(), True
            except GptkitError as exc:
                out, ok = exc, False
            results.append((time.perf_counter() - start, ok, out))
        elapsed = time.perf_counter() - round_start - reference_s
        stats["reference_s"] += [common.time_reference()
                                 for _ in range(REFERENCE_AFTER_ROUND)]
        stats["spent"] += elapsed
        stats["round_s"].append(elapsed)
        stats["rounds"] += 1
        if after_first_round is not None and stats["rounds"] == 1:
            after_first_round()
        for op, (dt, ok, out) in zip(ops, results):
            stats["label_times"][op.label].append(dt)
            stats["attempted"] += 1
            if not ok:
                stats["failed"] += 1
                stats["failed_labels"][op.label] += 1
                continue
            stats["completed"] += 1
            op.check(out)
            stats["samples"].setdefault(op.kind, (op, out))
            if workload.children_rss:
                stats["child_rss_kb"] = max(stats["child_rss_kb"], out.maxrss_kb)
    return stats


def lower_decile(times):
    """The call a tenth of the way up from the fastest (the fastest of fewer
    than 11 calls)."""
    return sorted(times)[(len(times) - 1) // 10]


def speed_scales(stats):
    """(short, long): the factors that bring this run's calls to the
    reference machine's speed.  A short call can fall in one of the
    machine's fast moments, so its lower decile goes with the reference
    task's lower decile; a long call spans fast and slow moments, so its
    median goes with the reference's median."""
    ref = stats["reference_s"]
    return (REFERENCE_DECILE_S / lower_decile(ref),
            REFERENCE_MEDIAN_S / statistics.median(ref))


def times_by_kind(ops, stats):
    """{kind: [time of each operation's label, once per operation]}.

    Operations that share a label do the same work, so their calls pool.
    A label's time is the lower decile of its calls, scaled by the factor
    for short calls, or for a long label the median of its calls, scaled
    by the factor for long calls.  A label with UNSCALED_CALLS calls or
    more reaches the machine's fast moments by itself: its lower decile is
    taken as it is.
    """
    short, long = speed_scales(stats)
    best = {}
    for label, times in stats["label_times"].items():
        if len(times) >= UNSCALED_CALLS:
            best[label] = lower_decile(times)
        elif lower_decile(times) >= LONG_CALL_S:
            best[label] = statistics.median(times) * long
        else:
            best[label] = lower_decile(times) * short
    out = defaultdict(list)
    for op in ops:
        out[op.kind].append(best[op.label])
    return out


def details(workload, stats):
    """Figures that are not gated: the workload's own, and throughput, the
    median and 90th percentile (100 operations or more), the geometric
    mean over kinds and of the headline operations of the operations'
    times."""
    times = times_by_kind(workload.ops, stats)
    every = [t for ts in times.values() for t in ts]
    headline = [t for kind in workload.headline for t in times[kind]]
    out = {
        "ops_per_s": stats["completed"] / stats["rounds"] / sum(every),
        "op_p50_ms": 1e3 * statistics.median(every),
        "kind_gmean_ms": 1e3 * statistics.geometric_mean(
            [statistics.median(ts) for ts in times.values()]),
        "headline_ms": 1e3 * statistics.geometric_mean(headline),
    }
    if len(every) >= 100:
        out["op_p90_ms"] = 1e3 * statistics.quantiles(every, n=10)[-1]
    out.update(workload.details(times))
    return out


def plain_run(workload, setup, seconds):
    rss = {}

    def record_rss():
        rss["kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    stats = run_phase(workload, workload.ops, seconds, record_rss)
    if workload.children_rss:
        rss["kb"] = stats["child_rss_kb"]
    every = [t for ts in times_by_kind(workload.ops, stats).values() for t in ts]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss["kb"] / 1024, "MB"),
        "op_gmean_ms": (1e3 * statistics.geometric_mean(every), "ms"),
    }
    return [stats], metrics


def traced_run(args, workload):
    """Half the time untraced, half traced, then the CLI layer."""
    import numpy as np

    import cli_calls
    from tracer import Tracer

    half = args.seconds / 2
    plain = run_phase(workload, workload.ops, half)
    tracer = Tracer()
    tracer.install()
    try:
        traced_ops = [dataclasses.replace(op, call=tracer.wrap("op." + op.kind, op.call))
                      for op in workload.ops]
        tracer.recording = True
        traced = run_phase(workload, traced_ops, half)
        # module calls made by in-process cli.run count only for the cli workload
        tracer.recording = args.workload == "cli"
        cli_layer = cli_calls.layer_metrics(np.random.default_rng(args.seed),
                                            CLI_LAYER_REPEATS)
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics.update(cli_layer)
    metrics["trace.overhead_s"] = (statistics.median(traced["round_s"])
                                   - statistics.median(plain["round_s"]), "s")
    common.OUT.mkdir(exist_ok=True)
    tracer.write(common.OUT / f"trace-{args.workload}-seed{args.seed}.json")
    return [plain, traced], metrics, {"spans": len(tracer.spans)}


def self_check(phases):
    """Every check must reject the deliberately wrong answers for its kind."""
    rejected = 0
    samples = {}
    for p in phases:
        samples.update(p["samples"])
    for kind, (op, out) in sorted(samples.items()):
        for wrong in op.mutants(out):
            try:
                op.check(wrong)
            except common.WrongAnswer:
                rejected += 1
                continue
            sys.exit(f"perfbench: the {kind} check accepted a wrong answer "
                     f"({op.label})")
    return rejected


if __name__ == "__main__":
    sys.exit(main())
