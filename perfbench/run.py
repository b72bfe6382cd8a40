"""Benchmark of momentsos: the relaxation ladder, convexity certification
with lifts, and the Jensen batch.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload relax-ladder --seed 1 --seconds 25 --trace 0

It repeats the workload's fixed list of operations (a round) for about
--seconds, always in whole rounds and at least one, checks every output, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 one
untraced round is run first as the baseline, then traced rounds give the
per-layer metrics. Failed operations are named on stderr. Details go to
perfbench/results/<workload>-seed<seed>-trace<0|1>.json.

The BLAS thread count is pinned to 1 below, before numpy is imported:
iteration counts and outcomes depend on it.
"""

import os
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_s_p50", "s"), ("peak_rss_mb", "MB")]
WORKLOAD_NAMES = ("relax-ladder", "certify-lift", "jensen-batch")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--setup-probe",
        action="store_true",
        help="set up, print 'ready' and exit (used to time set-up)",
    )
    return ap.parse_args(argv)


def _import_package():
    """Import momentsos from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import momentsos
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import momentsos from {src}: {exc}")
    if Path(momentsos.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: momentsos imported from {momentsos.__file__}, not {src}")


def _set_up(args):
    _import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up()
    return workloads, workload


def _probe_setup(args):
    """Seconds from starting a fresh process until it could run the first
    operation: interpreter start, imports, inputs and warm-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"perfbench: set-up probe failed (exit {code}, said {line!r})")
    return elapsed


def _run_rounds(workloads, workload, seconds, tracer=None):
    """Whole rounds while the next one, at the mean round time so far, ends
    within `seconds`; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        rec = workloads.Recorder()
        if tracer:
            tracer.acc.clear()
        t0 = time.perf_counter()
        outputs = workload.round(rec)
        wall = time.perf_counter() - t0
        layers = tracer.snapshot() if tracer else None
        rounds.append({"wall": wall, "ops": rec.ops, "outputs": outputs, "layers": layers})
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        _set_up(args)
        print("ready", flush=True)
        return 0

    workloads, workload = _set_up(args)
    setup_s = statistics.median(_probe_setup(args) for _ in range(SETUP_PROBES))

    tracer = None
    baseline = []
    if args.trace:
        import layer_trace

        baseline = _run_rounds(workloads, workload, 0.0)
        tracer = layer_trace.Tracer()
        tracer.install()
        try:
            rounds = _run_rounds(workloads, workload, args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        rounds = _run_rounds(workloads, workload, args.seconds)

    measured = baseline + rounds
    attempted = sum(len(r["ops"]) for r in measured)
    failures = {}
    for r in measured:
        for item, _, err in r["ops"]:
            if err is not None:
                failures.setdefault(item, [0, err])[0] += 1
    failed = sum(count for count, _ in failures.values())
    for item, (count, err) in failures.items():
        known = "known" if item in workload.expected_failures else "UNEXPECTED"
        print(
            f"FAILED {args.workload} | {item} | {err} ({count} of {len(measured)} "
            f"rounds, {known})",
            file=sys.stderr,
        )

    errors = [f"{item} failed" for item in failures if item not in workload.expected_failures]
    for r in measured:
        errors += workload.check(r["outputs"])
    for err in errors[:20]:
        print(f"CHECK {args.workload} | {err}", file=sys.stderr)

    wall_s = statistics.median(r["wall"] for r in rounds)
    ops_s = [dt for r in rounds for _, dt, _ in r["ops"]]
    values = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s_p50": statistics.median(ops_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in rounds)
            for name, _ in layer_trace.METRICS
        }
        layers["trace.wall_s"] = wall_s
        layers["trace.overhead_s"] = wall_s - baseline[0]["wall"]
        print(
            f"trace overhead {args.workload}: traced round {wall_s:.3f} s, "
            f"untraced round {baseline[0]['wall']:.3f} s",
            file=sys.stderr,
        )
        units = layer_trace.METRICS + [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units}
    else:
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        # with --trace 1 these figures come from the traced rounds
        "traced_figures" if args.trace else "end_to_end": values,
        "rounds": [
            {"wall_s": r["wall"], "traced": r["layers"] is not None, "ops": r["ops"]}
            for r in measured
        ],
        "failures": {k: v[1] for k, v in failures.items()},
        "check_errors": errors,
    }
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
