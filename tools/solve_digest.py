"""One JSON line per SDP solve of one benchmark round, for diffing commits.

Run from the root of a source checkout:

    python3 tools/solve_digest.py relax-ladder [--seed 1] [--peak] > digest.txt

It builds the workload of `perfbench/workloads.py` (imported, not edited),
runs its warm-up, then one round with `solve` patched in `sdp`, `_compile`
and `sos`, and prints, per solve in call order: the sha256 of the problem's
SDPA rendering, the status, accuracy, iterations, message and residuals,
and the sha256 of the bytes of X, Z and the dual vector (null when absent).
Two checkouts solve byte for byte alike when their digests are equal, so
comparing them is a plain `diff`. The BLAS thread count is 1 unless
OPENBLAS_NUM_THREADS is set.

With --peak the round runs under tracemalloc, and each line also gets
"peak_mb": the traced peak during that solve above the traced memory at
its start, in MB (10^6 bytes). tracemalloc sees Python objects and numpy
arrays, not the work space of BLAS or LAPACK. Without --peak the output is
the digest alone.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from momentsos import _compile, sdp, sos  # noqa: E402


def _sha(arrays):
    if arrays is None:
        return None
    h = hashlib.sha256()
    for a in arrays if isinstance(arrays, list) else [arrays]:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def digest(problem, sol) -> dict:
    return {
        "problem": hashlib.sha256(problem.dump_sdpa().encode()).hexdigest(),
        "status": sol.status.value,
        "accuracy": sol.accuracy,
        "iterations": sol.iterations,
        "message": sol.message,
        "residuals": sol.residuals,
        "X": _sha(sol.X),
        "Z": _sha(sol.Z),
        "dual": _sha(sol.dual),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--peak",
        action="store_true",
        help="add each solve's tracemalloc peak above its start (peak_mb)",
    )
    args = ap.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    workloads.warm_up()
    original = sdp.solve

    def solve(problem, options=None):
        # without --peak tracemalloc is off, and these read zeros
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        sol = original(problem, options)
        # read before the digest, whose SDPA rendering allocates too
        peak = tracemalloc.get_traced_memory()[1] - start
        line = digest(problem, sol)
        if args.peak:
            line["peak_mb"] = peak / 1e6
        print(json.dumps(line, sort_keys=True), flush=True)
        return sol

    for module in (sdp, _compile, sos):
        setattr(module, "solve", solve)
    if args.peak:
        tracemalloc.start()
    try:
        workload.round(workloads.Recorder())
    finally:
        tracemalloc.stop()
        for module in (sdp, _compile, sos):
            setattr(module, "solve", original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
