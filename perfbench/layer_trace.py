"""Per-layer counters for the traced run, taken from outside the package.

`Tracer.install()` replaces public functions of the `momentsos` modules
with timing wrappers, at every name a caller looks them up by: `_compile`
and `sos` import `solve` from `sdp` by name, `sos` and `hierarchy` import
`moment_matrix`, and `convexcert` calls its own module globals. The
package itself carries no tracing; `uninstall()` puts the originals back.

All times are inclusive (a call's time contains the calls it makes), except
`compile.decode_s`, which is `MomentSdp.solve` minus the `to_sdp` and
`sdp.solve` time spent inside it.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from momentsos import _compile, convexcert, hierarchy, moments, poly, sdp, sos

# (name, unit) of every per-layer metric, in report order
METRICS = [
    ("sdp.calls", "count"),
    ("sdp.solve_s", "s"),
    ("sdp.iterations", "count"),
    ("sdp.iter_s", "s"),
    ("sdp.stall_accepts", "count"),
    ("sdp.not_optimal", "count"),
    ("compile.to_sdp_s", "s"),
    ("compile.decode_s", "s"),
    ("compile.density", "ratio"),
    ("hierarchy.build_s", "s"),
    ("convexcert.rho_build_s", "s"),
    ("convexcert.probe_s", "s"),
    ("convexcert.sampler_s", "s"),
    ("convexcert.support_s", "s"),
    ("poly.eval_calls", "count"),
    ("poly.eval_s", "s"),
    ("sos.is_sos_convex_calls", "count"),
    ("sos.is_sos_convex_s", "s"),
    ("sos.accept_ratio", "ratio"),
    ("sos.jensen_check_s", "s"),
    ("moments.from_mixture_s", "s"),
    ("moments.moment_matrix_s", "s"),
]

STALL_PREFIX = "stalled near optimum"


class Tracer:
    """Accumulates counts and times while installed; `acc.clear()` starts a
    new tally."""

    def __init__(self):
        self.acc = defaultdict(float)
        self._saved = []

    # ---- patching -----------------------------------------------------------

    def _patch(self, owner, name, wrapper):
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _timed(self, key, fn):
        acc = self.acc

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] += time.perf_counter() - t0

        return wrapper

    def install(self):
        acc = self.acc
        clock = time.perf_counter

        # sdp: one wrapper at every name `solve` is looked up by
        sdp_solve = sdp.solve

        def solve(problem, options=None):
            t0 = clock()
            sol = sdp_solve(problem, options)
            acc["sdp.solve_s"] += clock() - t0
            acc["sdp.calls"] += 1
            acc["sdp.iterations"] += sol.iterations
            if sol.status is not sdp.SdpStatus.OPTIMAL:
                acc["sdp.not_optimal"] += 1
            elif sol.message.startswith(STALL_PREFIX):
                acc["sdp.stall_accepts"] += 1
            return sol

        for module in (sdp, _compile, sos):
            self._patch(module, "solve", solve)

        # _compile: to_sdp time and density; decode is the rest of solve
        to_sdp = _compile.MomentSdp.to_sdp
        moment_solve = _compile.MomentSdp.solve

        def traced_to_sdp(self_, *args, **kwargs):
            t0 = clock()
            problem, decode = to_sdp(self_, *args, **kwargs)
            acc["compile.to_sdp_s"] += clock() - t0
            for mats, _ in problem.constraints:
                for M in mats:
                    acc["compile.nonzeros"] += np.count_nonzero(M)
                    acc["compile.entries"] += M.size
            return problem, decode

        def traced_moment_solve(self_, *args, **kwargs):
            inner0 = acc["compile.to_sdp_s"] + acc["sdp.solve_s"]
            t0 = clock()
            try:
                return moment_solve(self_, *args, **kwargs)
            finally:
                inner = acc["compile.to_sdp_s"] + acc["sdp.solve_s"] - inner0
                acc["compile.decode_s"] += clock() - t0 - inner

        self._patch(_compile.MomentSdp, "to_sdp", traced_to_sdp)
        self._patch(_compile.MomentSdp, "solve", traced_moment_solve)

        # hierarchy
        self._patch(
            hierarchy, "build_qr", self._timed("hierarchy.build_s", hierarchy.build_qr)
        )

        # convexcert: certify_convexity calls these through its module globals
        self._patch(
            convexcert,
            "rho_program",
            self._timed("convexcert.rho_build_s", convexcert.rho_program),
        )
        for name in ("nondegeneracy_probe", "slater_heuristic"):
            self._patch(
                convexcert,
                name,
                self._timed("convexcert.probe_s", getattr(convexcert, name)),
            )
        self._patch(
            convexcert,
            "sample_supporting_hyperplane",
            self._timed(
                "convexcert.sampler_s", convexcert.sample_supporting_hyperplane
            ),
        )
        self._patch(
            convexcert,
            "sdr_support",
            self._timed("convexcert.support_s", convexcert.sdr_support),
        )

        # poly: `__call__` goes through the class attribute, so it is counted
        poly_eval = poly.Polynomial.eval

        def traced_eval(self_, x):
            t0 = clock()
            try:
                return poly_eval(self_, x)
            finally:
                acc["poly.eval_s"] += clock() - t0
                acc["poly.eval_calls"] += 1

        self._patch(poly.Polynomial, "eval", traced_eval)

        # sos: random_sos_convex looks is_sos_convex up as a module global
        is_sos_convex = sos.is_sos_convex

        def traced_is_sos_convex(*args, **kwargs):
            acc["sos.is_sos_convex_calls"] += 1
            t0 = clock()
            try:
                return is_sos_convex(*args, **kwargs)
            finally:
                acc["sos.is_sos_convex_s"] += clock() - t0

        random_sos_convex = sos.random_sos_convex

        def traced_random_sos_convex(*args, **kwargs):
            calls0 = acc["sos.is_sos_convex_calls"]
            out = random_sos_convex(*args, **kwargs)
            acc["sos.generator_calls"] += acc["sos.is_sos_convex_calls"] - calls0
            acc["sos.accepted"] += 1
            return out

        self._patch(sos, "is_sos_convex", traced_is_sos_convex)
        self._patch(sos, "random_sos_convex", traced_random_sos_convex)
        self._patch(
            sos, "jensen_check", self._timed("sos.jensen_check_s", sos.jensen_check)
        )

        # moments
        from_mixture = moments.MomentVector.from_mixture
        self._patch(
            moments.MomentVector,
            "from_mixture",
            staticmethod(self._timed("moments.from_mixture_s", from_mixture)),
        )
        moment_matrix = self._timed("moments.moment_matrix_s", moments.moment_matrix)
        for module in (moments, sos, hierarchy):
            self._patch(module, "moment_matrix", moment_matrix)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # ---- report -------------------------------------------------------------

    def snapshot(self):
        """The per-layer metrics accumulated so far, by name."""
        acc = self.acc
        out = {name: float(acc[name]) for name, _ in METRICS}
        iters = acc["sdp.iterations"]
        out["sdp.iter_s"] = acc["sdp.solve_s"] / iters if iters else 0.0
        entries = acc["compile.entries"]
        out["compile.density"] = acc["compile.nonzeros"] / entries if entries else 0.0
        tried = acc["sos.generator_calls"]
        out["sos.accept_ratio"] = acc["sos.accepted"] / tried if tried else 0.0
        return out
