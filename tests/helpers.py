"""Shared test utilities: problem generators and small oracles."""

from typing import Dict, List, Sequence, Tuple

import numpy as np

from momentsos.hierarchy import PolyOptProblem
from momentsos.moments import _moment_pattern
from momentsos.poly import Monomial, Polynomial, SemialgebraicSet
from momentsos.sdp import OneHot, SdpProblem, _entry_pattern


def one_hot_record(stack: np.ndarray):
    """The `OneHot` record of a dense (p, n, n) stack, read off its
    nonzeros through `_entry_pattern`, or None when it is not one-hot."""
    p, n, _ = stack.shape
    flat = np.flatnonzero(stack)
    stored = _entry_pattern(p, n, flat, stack.reshape(-1)[flat])
    return stored if isinstance(stored, OneHot) else None


def ray_moment_matrix(
    basis: Sequence[Monomial], direction: Dict[Monomial, float]
) -> np.ndarray:
    """M(y_bar) over `basis` from the infeasibility direction y_bar that
    `sos_decompose` returns."""
    k = len(basis)
    pattern = _moment_pattern(basis)
    _, first, inverse = np.unique(
        pattern.index, return_index=True, return_inverse=True
    )
    keys = pattern.exponent[first].tolist()
    values = np.array([direction[tuple(key)] for key in keys])
    return values[inverse].reshape(k, k)


def random_psd(rng, d: int, shift: float = 0.5) -> np.ndarray:
    M = rng.standard_normal((d, d))
    return M @ M.T + shift * np.eye(d)


def make_strictly_feasible_sdp(rng) -> Tuple[SdpProblem, List[np.ndarray]]:
    """Random SDP built from interior points so both sides are strictly
    feasible: pick X0, Z0 > 0 and lam0 first, then derive b and C."""
    dims = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 4)))]
    p = int(rng.integers(1, 9))
    As = []
    for _ in range(p):
        row = [rng.standard_normal((d, d)) for d in dims]
        As.append([0.5 * (M + M.T) for M in row])
    X0 = [random_psd(rng, d) for d in dims]
    b = [
        sum(float(np.sum(Ab * Xb)) for Ab, Xb in zip(row, X0))
        for row in As
    ]
    lam0 = rng.standard_normal(p)
    Z0 = [random_psd(rng, d) for d in dims]
    C = [
        Zb + sum(lam0[i] * As[i][k] for i in range(p))
        for k, Zb in enumerate(Z0)
    ]
    A = [np.array([row[k] for row in As]) for k in range(len(dims))]
    return SdpProblem.make(dims, C, A, b), X0


def kkt_residuals(problem: SdpProblem, sol) -> Tuple[float, float, float]:
    """Relative primal, dual and complementarity residuals of a solution."""
    b = problem.b
    A = [problem.stack(k) for k in range(len(problem.block_dims))]
    ax = sum(
        np.tensordot(Ab, Xb, axes=([1, 2], [0, 1]))
        for Ab, Xb in zip(A, sol.X)
    )
    primal = float(np.max(np.abs(ax - b))) / max(1.0, float(np.max(np.abs(b))))
    dual = max(
        float(np.max(np.abs(Cb - Zb - np.tensordot(sol.dual, Ab, axes=(0, 0)))))
        for Cb, Zb, Ab in zip(problem.C, sol.Z, A)
    )
    dual /= max(1.0, max(float(np.max(np.abs(Cb))) for Cb in problem.C))
    comp = sum(float(np.sum(Xb * Zb)) for Xb, Zb in zip(sol.X, sol.Z))
    comp /= 1.0 + abs(sol.primal_value) + abs(sol.dual_value)
    return primal, dual, comp


def example_hyperbola_disk() -> SemialgebraicSet:
    """{x : x1*x2 - 1/4 >= 0, 0.5 - (x1-0.5)^2 - (x2-0.5)^2 >= 0}.

    Convex lens between a hyperbola branch and a disk; the recurring
    certification fixture.
    """
    g1 = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    g2 = Polynomial.make(
        2,
        {(0, 0): 0.5 - 0.25 - 0.25, (1, 0): 1.0, (0, 1): 1.0, (2, 0): -1.0, (0, 2): -1.0},
    )
    return SemialgebraicSet(2, (g1, g2), ball_bound=2.0)


def example_degenerate_cube() -> SemialgebraicSet:
    """{x : (1 - x1^2 + x2^2)^3 >= 0, 10 - |x|^2 >= 0}.

    The first constraint's gradient vanishes identically on its zero set.
    """
    inner = Polynomial.make(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): 1.0})
    g1 = inner ** 3
    g2 = Polynomial.make(2, {(0, 0): 10.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemialgebraicSet(2, (g1, g2), ball_bound=4.0)


def unit_disk() -> SemialgebraicSet:
    g = Polynomial.make(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemialgebraicSet(2, (g,), ball_bound=1.5)


def ball_quartic(n: int):
    """min sum x_i^4 + x_1 over the unit ball in R^n."""
    rows = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    f = Polynomial.make(
        n, {**{tuple(4 * e for e in row): 1.0 for row in rows}, rows[0]: 1.0}
    )
    g = Polynomial.make(
        n, {(0,) * n: 1.0, **{tuple(2 * e for e in row): -1.0 for row in rows}}
    )
    return PolyOptProblem(f, SemialgebraicSet(n, (g,)))


def grid_minimize(f, K: SemialgebraicSet, lo, hi, steps=1001, refine_rounds=5):
    """Multistage grid minimization of f over K within the box [lo,hi]^n.

    Coarse scan at `steps` resolution, then repeated 10x zooms around the
    incumbent; boundary-accurate to roughly the final cell size.
    """
    n = K.n
    assert n == 2, "grid oracle written for the planar fixtures"
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    best_val, best_x = np.inf, None
    for _ in range(refine_rounds + 1):
        xs = np.linspace(lo[0], hi[0], steps)
        ys = np.linspace(lo[1], hi[1], steps)
        XX, YY = np.meshgrid(xs, ys, indexing="ij")
        mask = np.ones_like(XX, dtype=bool)
        for g in K.constraints:
            G = np.zeros_like(XX)
            for (a1, a2), c in g.terms.items():
                G += c * XX ** a1 * YY ** a2
            mask &= G >= 0.0
        F = np.zeros_like(XX)
        for (a1, a2), c in f.terms.items():
            F += c * XX ** a1 * YY ** a2
        F = np.where(mask, F, np.inf)
        idx = np.unravel_index(np.argmin(F), F.shape)
        if F[idx] < best_val:
            best_val = float(F[idx])
            best_x = np.array([XX[idx], YY[idx]])
        span = (hi - lo) / (steps - 1) * 12.0
        lo = best_x - span
        hi = best_x + span
    return best_val, best_x


# ---- dict reference for polynomial arithmetic ----------------------------------
# Polynomials as {exponent tuple: coefficient} in insertion order, with equal
# monomials accumulated term by term from 0.0 and exact zeros dropped: the
# arithmetic that Polynomial's exponent/coefficient arrays must reproduce bit
# for bit and in the same term order.


def ref_merge(pairs):
    out = {}
    for alpha, c in pairs:
        out[alpha] = out.get(alpha, 0.0) + c
    return {alpha: c for alpha, c in out.items() if c != 0.0}


def ref_add(p, q):
    return ref_merge([*p.items(), *q.items()])


def ref_neg(p):
    return {alpha: -c for alpha, c in p.items()}


def ref_mul(p, q):
    return ref_merge(
        (tuple(x + y for x, y in zip(a, b)), ca * cb)
        for a, ca in p.items()
        for b, cb in q.items()
    )


def ref_pow(p, k, n):
    """Square-and-multiply from the constant 1, as Polynomial.__pow__."""
    result, base = {(0,) * n: 1.0}, p
    while k:
        if k & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def ref_diff(p, i):
    return ref_merge(
        (alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :], c * alpha[i])
        for alpha, c in p.items()
        if alpha[i]
    )
