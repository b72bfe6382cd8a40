"""One JSON line per SDP solve of one benchmark round, for diffing commits.

Run from the root of a source checkout:

    python3 tools/solve_digest.py relax-ladder [--seed 1] [--peak] > digest.txt

It builds the workload of `perfbench/workloads.py` (imported, not edited),
runs its warm-up, then one round with `solve` patched in `sdp`, `_compile`
and `sos`, and prints, per solve in call order: the sha256 of the problem's
stored arrays (the block dimensions, then per block C and either its dense
constraint stack, the stack a `Mapped` block rebuilds, or its one-hot
entries, then b, each array hashed with its dtype and shape), the status,
accuracy, iterations, message and residuals, and the sha256 of the bytes
of X, Z and the dual vector (null when absent).
Two checkouts solve byte for byte alike when their digests are equal, so
comparing them is a plain `diff`. The BLAS thread count is 1 unless
OPENBLAS_NUM_THREADS is set.

With --peak the round runs under tracemalloc, and each line also gets
"peak_mb": the traced peak during that solve above the traced memory at
its start, in MB (10^6 bytes). The solve of a moment program also gets
"compile_peak_mb", the same figure for the `MomentSdp.to_sdp` call that
built its problem. tracemalloc sees Python objects and numpy arrays, not
the work space of BLAS or LAPACK. Without --peak the output is the digest
alone.
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


def _problem_sha(problem) -> str:
    h = hashlib.sha256()

    def add(a):
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str} {a.shape}".encode())
        h.update(a)  # the buffer itself, not a copy of it

    add(np.array(problem.block_dims))
    for k, (Cb, Ab) in enumerate(zip(problem.C, problem.A)):
        add(Cb)
        if isinstance(Ab, sdp.OneHot):
            # a one-hot block's (owner, row, col, value) entries
            for a in (Ab.owner, Ab.row, Ab.col, Ab.value):
                add(a)
        else:
            # a stack, or the stack a Mapped block rebuilds
            add(problem.stack(k))
    add(problem.b)
    return h.hexdigest()


def digest(problem, sol) -> dict:
    return {
        "problem": _problem_sha(problem),
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
    original, original_to_sdp = sdp.solve, _compile.MomentSdp.to_sdp
    # the to_sdp peak of each problem built and not yet solved, by id
    compile_peak = {}

    def traced_peak(call, *operands):
        """call(*operands) and its traced peak above the start, in MB;
        without --peak tracemalloc is off, and the peak reads 0."""
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = call(*operands)
        return out, (tracemalloc.get_traced_memory()[1] - start) / 1e6

    def to_sdp(program):
        out, peak = traced_peak(original_to_sdp, program)
        compile_peak[id(out[0])] = peak
        return out

    def solve(problem, options=None):
        # the peak is read before the digest, which allocates too
        sol, peak = traced_peak(original, problem, options)
        line = digest(problem, sol)
        if args.peak:
            line["peak_mb"] = peak
            if id(problem) in compile_peak:
                line["compile_peak_mb"] = compile_peak.pop(id(problem))
        print(json.dumps(line, sort_keys=True), flush=True)
        return sol

    for module in (sdp, _compile, sos):
        setattr(module, "solve", solve)
    if args.peak:
        _compile.MomentSdp.to_sdp = to_sdp
        tracemalloc.start()
    try:
        workload.round(workloads.Recorder())
    finally:
        tracemalloc.stop()
        _compile.MomentSdp.to_sdp = original_to_sdp
        for module in (sdp, _compile, sos):
            setattr(module, "solve", original)
    return 0


if __name__ == "__main__":
    sys.exit(main())
