"""The three benchmark workloads: inputs, one round of operations, checks.

A round is the workload's fixed list of operations. Every call into
`momentsos` goes through a module attribute (`hierarchy.build_qr`,
`convexcert.sdr_support`, ...) so that the traced run sees it.

Each check compares an output with a value the benchmark computes itself
from the polynomial coefficients (a KKT solve, a boundary grid, moment
sums, eigenvalues), or with a property the method must have.
"""

from __future__ import annotations

import math
import time

import numpy as np

from momentsos import convexcert, hierarchy, sos
from momentsos.poly import Polynomial, PreconditionFailure, SemialgebraicSet


class OpFailed(RuntimeError):
    """An operation ended with a status other than optimal."""


class Recorder:
    """Times operations and keeps (item, seconds, error) for each."""

    def __init__(self):
        self.ops = []

    def op(self, item, fn):
        t0 = time.perf_counter()
        try:
            out, err = fn(), None
        except (RuntimeError, PreconditionFailure) as exc:
            out, err = None, f"{type(exc).__name__}: {exc}"
        self.ops.append((item, time.perf_counter() - t0, err))
        return out


def _monomial(n, pos, exp):
    alpha = [0] * n
    alpha[pos] = exp
    return tuple(alpha)


def _ball(n):
    """{x : 1 - |x|^2 >= 0}."""
    terms = {(0,) * n: 1.0}
    terms.update({_monomial(n, i, 2): -1.0 for i in range(n)})
    return SemialgebraicSet(n, (Polynomial.make(n, terms),), ball_bound=1.0)


def warm_up():
    """One tiny moment solve, so first-call costs land in set-up."""
    f = Polynomial.make(1, {(1,): 1.0, (4,): 1.0})
    hierarchy.build_qr(hierarchy.PolyOptProblem(f, _ball(1)), 2).solve()


# ---- relax-ladder -------------------------------------------------------------

# run order: the two solves that set the median op time, (4, 4) and (3, 6),
# sit at opposite ends of the round, so that one slow spell of the machine
# does not slow both
LADDER = [(4, 4), (2, 5), (6, 3), (3, 6)]
# the objectives do not depend on --seed. After a stall-band acceptance the
# direct loop runs on until it breaks down, for a number of iterations that
# depends on the objective: with seeded objectives the (6, 3) solve took
# 11.6-17.8 s over five seeds. (3, 6) breaks down before any acceptance on
# every objective tried; it is kept as a counted failure.
LADDER_SEED = 0
LADDER_TOL = 1e-5


def _separable_quartic(c):
    """c.x + sum_i x_i^4."""
    n = len(c)
    terms = {_monomial(n, i, 1): float(c[i]) for i in range(n)}
    terms.update({_monomial(n, i, 4): 1.0 for i in range(n)})
    return Polynomial.make(n, terms)


def _cubic_root(mu, c):
    """The real root t of 4 t^3 + 2 mu t + c = 0 (mu >= 0), per entry."""
    p, q = mu / 2.0, c / 4.0
    disc = np.sqrt(q * q / 4.0 + p**3 / 27.0)
    t = np.cbrt(-q / 2.0 + disc) + np.cbrt(-q / 2.0 - disc)
    for _ in range(3):  # Newton polish; the derivative is positive
        t = t - (4 * t**3 + 2 * mu * t + c) / np.maximum(12 * t * t + 2 * mu, 1e-300)
    return t


def quartic_ball_minimum(c):
    """min c.x + sum x_i^4 over |x| <= 1 from its KKT conditions:
    c_i + 4 x_i^3 + 2 mu x_i = 0, mu >= 0, mu (1 - |x|^2) = 0."""
    c = np.asarray(c, dtype=float)
    x = _cubic_root(0.0, c)
    if x @ x > 1.0:
        lo, hi = 0.0, 1.0
        while np.sum(_cubic_root(hi, c) ** 2) > 1.0:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if np.sum(_cubic_root(mid, c) ** 2) > 1.0:
                lo = mid
            else:
                hi = mid
        x = _cubic_root(hi, c)
    return float(c @ x + np.sum(x**4))


class RelaxLadder:
    name = "relax-ladder"
    # numerical_failure: the direct loop's `Cholesky breakdown` exit
    expected_failures = {"Q_6 n=3"}

    def __init__(self, seed):
        self.inputs = []
        for n, r in LADDER:
            c = np.random.default_rng([LADDER_SEED, n, r]).standard_normal(n)
            problem = hierarchy.PolyOptProblem(_separable_quartic(c), _ball(n))
            self.inputs.append((f"Q_{r} n={n}", r, c, problem))

    def round(self, rec):
        out = {}
        for item, r, _, problem in self.inputs:

            def op():
                sol = hierarchy.build_qr(problem, r).solve()
                if not sol.is_optimal:
                    sdp_sol = sol.sdp_solution
                    raise OpFailed(
                        f"{sol.status.value} after {sdp_sol.iterations} "
                        f"iterations: {sdp_sol.message}"
                    )
                return sol.value

            out[item] = rec.op(item, op)
        return out

    def check(self, outputs):
        errors = []
        for item, _, c, _ in self.inputs:
            bound = outputs[item]
            if bound is None:
                continue
            f_star = quartic_ball_minimum(c)
            if abs(bound - f_star) > LADDER_TOL * (1.0 + abs(f_star)):
                errors.append(f"{item}: bound {bound!r} vs KKT minimum {f_star!r}")
        return errors


# ---- certify-lift -------------------------------------------------------------

LENS_ORDERS = (3, 4, 5)
LIFT_ORDERS = (3, 4)
# the support directions do not depend on --seed: order-4 supports fail on
# some directions (and order-3 ones on rare ones), so a seeded set would
# change the failed count from seed to seed
DIRECTION_SEED = 0
DIRECTIONS = 40
RHO_TOL = 1e-6
SANDWICH_TOL = 1e-5


def lens():
    """{x : x1 x2 - 1/4 >= 0, 1/2 - (x1 - 1/2)^2 - (x2 - 1/2)^2 >= 0}."""
    g1 = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    g2 = Polynomial.make(
        2, {(1, 0): 1.0, (0, 1): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    )
    return SemialgebraicSet(2, (g1, g2), ball_bound=2.0)


def degenerate_cube():
    """{x : (1 - x1^2 + x2^2)^3 >= 0, 10 - |x|^2 >= 0}: the gradient of the
    first constraint vanishes on its whole zero set."""
    inner = Polynomial.make(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): 1.0})
    g2 = Polynomial.make(2, {(0, 0): 10.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemialgebraicSet(2, (inner**3, g2), ball_bound=4.0)


def _lens_g(x):
    return x[..., 0] * x[..., 1] - 0.25, 0.5 - (x[..., 0] - 0.5) ** 2 - (x[..., 1] - 0.5) ** 2


def lens_linear_minimum(c, steps=20001, zooms=4):
    """min c.x over the lens on a grid of its boundary (the minimum of a
    linear function over a compact convex set lies on the boundary): the
    disk arc with x1 x2 >= 1/4 and the hyperbola arc inside the disk, each
    scanned and then refined around its best point."""
    c = np.asarray(c, dtype=float)
    radius = math.sqrt(0.5)

    def disk(t):
        return np.stack([0.5 + radius * np.cos(t), 0.5 + radius * np.sin(t)], -1)

    def hyperbola(t):
        return np.stack([t, 0.25 / t], -1)

    best = np.inf
    for curve, lo, hi in ((disk, 0.0, 2 * math.pi), (hyperbola, 0.01, 2.0)):
        for _ in range(zooms + 1):
            t = np.linspace(lo, hi, steps)
            x = curve(t)
            g1, g2 = _lens_g(x)
            vals = np.where((g1 >= 0) & (g2 >= 0), x @ c, np.inf)
            k = int(np.argmin(vals))
            if not np.isfinite(vals[k]):
                break
            best = min(best, float(vals[k]))
            cell = (hi - lo) / (steps - 1)
            lo, hi = t[k] - 2 * cell, t[k] + 2 * cell
    return best


def support_directions():
    rng = np.random.default_rng(DIRECTION_SEED)
    dirs = rng.standard_normal((DIRECTIONS, 2))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


class CertifyLift:
    name = "certify-lift"
    # `support solve failed: numerical_failure`, from the direct loop's
    # Cholesky breakdown exit
    expected_failures = {f"support order 4 direction {k}" for k in (5, 25, 27, 34)}

    def __init__(self, seed):
        self.seed = seed  # seeds the sampling probes inside certify_convexity
        self.lens = lens()
        self.cube = degenerate_cube()
        self.directions = support_directions()

    def round(self, rec):
        out = {}

        def certify(item, K, **kwargs):
            out[item] = rec.op(
                item, lambda: convexcert.certify_convexity(K, seed=self.seed, **kwargs)
            )
            return out[item]

        lifts = {}
        for d in LIFT_ORDERS:
            cert = certify(f"certify lens d1={d}", self.lens, d_fixed={1: d})
            certified = cert is not None and cert.status == "certified_numerically"
            lifts[d] = convexcert.build_sdr(self.lens, cert) if certified else None

        def supports(ks):
            for k in ks:
                for d in LIFT_ORDERS:
                    item = f"support order {d} direction {k}"

                    def op(lift=lifts[d], c=self.directions[k]):
                        if lift is None:
                            raise OpFailed("no certified lift to optimise over")
                        return convexcert.sdr_support(lift, c)

                    out[item] = rec.op(item, op)

        # the support solves, which set the median op time, are spread
        # between the remaining certifications: a median taken from one
        # stretch of a few seconds moves with the machine's speed there
        rest = [
            (f"certify lens d1={d}", self.lens, {"d_fixed": {1: d}})
            for d in LENS_ORDERS
            if d not in LIFT_ORDERS
        ]
        rest.append(("certify cube", self.cube, {"d_max": 3}))
        chunks = np.array_split(np.arange(DIRECTIONS), len(rest) + 1)
        supports(chunks[0])
        for (item, K, kwargs), ks in zip(rest, chunks[1:]):
            certify(item, K, **kwargs)
            supports(ks)
        return out

    def check(self, outputs):
        errors = []
        rho = {}
        for d in LENS_ORDERS:
            item = f"certify lens d1={d}"
            cert = outputs[item]
            if cert is None:
                continue
            rec = cert.records[0]
            if cert.status != "certified_numerically" or not abs(rec.rho_j) <= RHO_TOL:
                errors.append(f"{item}: status {cert.status}, rho_1 = {rec.rho_j!r}")
            rho[d] = rec.rho_j
        cert = outputs["certify cube"]
        if cert is not None and (
            1 not in cert.degenerate_flags or cert.status == "certified_numerically"
        ):
            errors.append(
                f"certify cube: flags {cert.degenerate_flags}, status {cert.status}"
            )
        f_star = [lens_linear_minimum(c) for c in self.directions]
        for d in LIFT_ORDERS:
            for k, c in enumerate(self.directions):
                item = f"support order {d} direction {k}"
                if outputs[item] is None:
                    continue
                value, x = outputs[item]
                lo, hi = f_star[k] + rho[d] - SANDWICH_TOL, f_star[k] + SANDWICH_TOL
                g1, g2 = _lens_g(np.asarray(x))
                if not lo <= value <= hi:
                    errors.append(f"{item}: {value!r} outside [{lo!r}, {hi!r}]")
                if min(g1, g2) < -SANDWICH_TOL:
                    errors.append(f"{item}: point {list(x)} outside the lens")
                if abs(value - float(c @ x)) > 1e-9 * (1.0 + abs(value)):
                    errors.append(f"{item}: value {value!r} != c.x {float(c @ x)!r}")
        return errors


# ---- jensen-batch -------------------------------------------------------------

# the polynomials come from a fixed seed: each one costs a random number of
# is_sos_convex solves, and a batch drawn from --seed would change the work
# per round by about 20% from seed to seed; the moment vectors use --seed.
# With these 15 the median op time falls on three n = 2 polynomials of
# nearly equal cost instead of in a gap between the n = 2 and n = 3 times.
POLY_SEED = 0
POLYS = 15
CHECKS_PER_POLY = 40
JENSEN_TOL = 1e-7


def grlex_basis(n, d):
    """Exponents of degree <= d, by degree, then larger X1 exponent first
    (the documented layout of a moment vector)."""
    out = [()]
    for _ in range(n):
        out = [a + (e,) for a in out for e in range(d + 1)]
    return sorted((a for a in out if sum(a) <= d), key=lambda a: (sum(a), [-e for e in a]))


def _eval_terms(terms, x):
    return sum(c * math.prod(xi**e for xi, e in zip(x, alpha)) for alpha, c in terms.items())


def _hessian_terms(terms, n):
    """Coefficients of each second derivative, as {(i, j): {alpha: c}}."""
    out = {}
    for i in range(n):
        for j in range(n):
            h = {}
            for alpha, c in terms.items():
                a = list(alpha)
                k = c * a[i]
                a[i] -= 1
                if k == 0:
                    continue
                k *= a[j]
                a[j] -= 1
                if k == 0:
                    continue
                h[tuple(a)] = h.get(tuple(a), 0.0) + k
            out[i, j] = h
    return out


class JensenBatch:
    name = "jensen-batch"
    expected_failures = set()

    def __init__(self, seed):
        self.seed = seed

    def round(self, rec):
        poly_rng = np.random.default_rng(POLY_SEED)
        moment_rng = np.random.default_rng(self.seed)
        out = {}
        for i in range(POLYS):
            n = int(poly_rng.integers(1, 4))
            item = f"poly {i} n={n}"

            def op(n=n):
                f, conv = sos.random_sos_convex(poly_rng, n, 4)
                checks = []
                for _ in range(CHECKS_PER_POLY):
                    y = sos.random_admissible_moments(moment_rng, n, 2)
                    checks.append((y.values, sos.jensen_check(f, y, sos_convexity=conv)))
                return dict(f.terms), checks

            out[item] = rec.op(item, op)
        return out

    def check(self, outputs):
        errors = []
        hess_rng = np.random.default_rng(0)
        for item, result in outputs.items():
            if result is None:
                continue
            terms, checks = result
            n = len(next(iter(terms)))
            index = {a: k for k, a in enumerate(grlex_basis(n, 4))}
            half = grlex_basis(n, 2)
            # SOS-convex implies convex: the Hessian is PSD everywhere
            hess = _hessian_terms(terms, n)
            for x in hess_rng.uniform(-2.0, 2.0, size=(10, n)):
                H = np.array([[_eval_terms(hess[i, j], x) for j in range(n)] for i in range(n)])
                if np.linalg.eigvalsh(H)[0] < -1e-8 * (1.0 + np.max(np.abs(H))):
                    errors.append(f"{item}: Hessian not PSD at {list(x)}")
            for values, rep in checks:
                if abs(values[0] - 1.0) > 1e-9:
                    errors.append(f"{item}: y_0 = {values[0]!r}")
                M = np.array(
                    [[values[index[tuple(p + q for p, q in zip(a, b))]] for b in half] for a in half]
                )
                if np.linalg.eigvalsh(M)[0] < -1e-9 * (1.0 + np.max(np.abs(M))):
                    errors.append(f"{item}: M_2(y) not PSD")
                lhs = sum(c * values[index[alpha]] for alpha, c in terms.items())
                mean = [values[index[_monomial(n, i, 1)]] for i in range(n)]
                rhs = _eval_terms(terms, mean)
                if lhs < rhs - JENSEN_TOL * (1.0 + abs(rhs)):
                    errors.append(f"{item}: L_y(f) = {lhs!r} < f(L_y(X)) = {rhs!r}")
                if not (
                    rep.holds
                    and abs(rep.lhs - lhs) <= 1e-9 * (1.0 + abs(lhs))
                    and abs(rep.rhs - rhs) <= 1e-9 * (1.0 + abs(rhs))
                ):
                    errors.append(f"{item}: report {rep} vs recomputed ({lhs!r}, {rhs!r})")
        return errors


WORKLOADS = {w.name: w for w in (RelaxLadder, CertifyLift, JensenBatch)}
