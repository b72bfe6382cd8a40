"""SOS decomposition, SOS-convexity, and extended Jensen inequality checks.

A polynomial p is SOS iff p = z'Gz for the monomial vector z over a degree-
matched basis and some PSD Gram matrix G; that feasibility problem is an SDP
in primal standard form, solved directly. SOS-convexity of f (Hessian
factoring as L L') is decided through the standard scalarization: f is
SOS-convex iff (X,W) -> W' Hess f(X) W is SOS in the doubled variables, over
the basis of monomials with W-degree exactly one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .moments import (
    MomentVector,
    _collect_terms,
    _moment_pattern,
    mean_point,
    moment_matrix,
    riesz,
)
from .poly import Monomial, Polynomial, PreconditionFailure, monomial_basis
from .sdp import (
    SdpProblem,
    SdpStatus,
    SolverOptions,
    _entry_pattern,
    min_eigenvalue,
    solve,
)


@dataclass
class SosWitness:
    """Gram certificate: p = z'Gz over `basis`, G PSD, small residual."""

    basis: List[Monomial]
    gram: np.ndarray
    residual: float

    def reconstruct(self, n: int) -> Polynomial:
        pattern = _moment_pattern(self.basis)
        return _collect_terms(n, pattern, self.gram.reshape(-1))

    def to_json(self) -> dict:
        return {
            "basis": [list(a) for a in self.basis],
            "gram": [float(v) for v in self.gram.reshape(-1)],
            "residual": self.residual,
        }

    @staticmethod
    def from_json(data: dict) -> "SosWitness":
        basis = [tuple(a) for a in data["basis"]]
        k = len(basis)
        gram = np.asarray(data["gram"], dtype=float).reshape(k, k)
        return SosWitness(basis, gram, float(data["residual"]))


@dataclass
class SosDecomposition:
    status: str  # "sos" | "infeasible" | "max_iterations" | "numerical_failure"
    witness: Optional[SosWitness] = None
    # for infeasible: pseudo-moments y_bar with M(y_bar) >= 0, L_y(p) < 0
    certificate_direction: Optional[Dict[Monomial, float]] = None
    reason: str = ""

    @property
    def is_sos(self) -> bool:
        return self.status == "sos"


def _gram_constraint_index(
    basis: Sequence[Monomial],
) -> Tuple[List[Monomial], np.ndarray, np.ndarray, np.ndarray]:
    """The upper-triangle Gram pairs (i, j) over `basis`, grouped by the
    monomial basis[i] + basis[j]: the monomials in sorted order, and per
    pair, in row-major order, its row, column and monomial's position."""
    pattern = _moment_pattern(basis, upper=True)
    _, first, inverse = np.unique(
        pattern.index, return_index=True, return_inverse=True
    )
    keys = pattern.exponent[first]
    order = np.lexsort(keys.T[::-1])  # sorted as exponent tuples
    monomials = [tuple(k) for k in keys[order].tolist()]
    return monomials, pattern.row, pattern.col, np.argsort(order)[inverse]


def sos_decompose(
    p: Polynomial,
    basis: Optional[Sequence[Monomial]] = None,
    options: Optional[SolverOptions] = None,
) -> SosDecomposition:
    """Search a PSD Gram matrix for p; minimum-trace solution.

    Odd-degree input is rejected structurally (never SOS). On SDP
    infeasibility the dual improving ray is returned as a pseudo-moment
    direction: M(y_bar) >= 0 while L_{y_bar}(p) < 0.
    """
    if p.is_zero():
        raise PreconditionFailure("p nonzero")
    deg = p.degree()
    if deg % 2 == 1:
        return SosDecomposition(
            status="infeasible", reason="odd degree, never a sum of squares"
        )
    if basis is None:
        basis = monomial_basis(p.n, deg // 2)
    basis = [tuple(a) for a in basis]
    monomials, rows, cols, group = _gram_constraint_index(basis)
    span = set(monomials)
    for alpha in p.terms:
        if alpha not in span:
            return SosDecomposition(
                status="infeasible",
                reason=f"monomial {alpha} outside the basis product span",
            )

    k, q = len(basis), len(monomials)
    # E_alpha has a unit entry wherever basis products hit alpha, so
    # <E_alpha, G> is the alpha-coefficient of z'Gz and the dual slack
    # of an infeasibility ray is itself a moment matrix. E is exactly
    # symmetric and one-hot, so it is stored as its entries, unless the
    # basis repeats a monomial
    upper = (group * k + rows) * k + cols
    lower = ((group * k + cols) * k + rows)[rows != cols]
    flat = np.r_[upper, lower]
    pattern = _entry_pattern(q, k, flat, np.ones(len(flat)))
    E = None
    if pattern is None:
        E = np.zeros((q, k, k))
        E.reshape(-1)[flat] = 1.0
    target = np.array([p.coeff(alpha) for alpha in monomials], dtype=float)
    problem = SdpProblem((k,), (np.eye(k),), (E,), target, (pattern,))
    sol = solve(problem, options)

    if sol.status is SdpStatus.OPTIMAL:
        G = 0.5 * (sol.X[0] + sol.X[0].T)
        # feasibility polish: the E_alpha have disjoint supports, so the
        # least-squares correction onto the equality set splits per monomial
        mult = np.where(rows == cols, 1.0, 2.0)
        lin = np.bincount(group, weights=G[rows, cols] * mult)
        weight = np.bincount(group, weights=mult)
        shift = ((target - lin) / weight)[group]
        G[rows, cols] += shift
        off = rows != cols
        G[cols[off], rows[off]] += shift[off]
        witness = SosWitness(basis, G, 0.0)
        recon = witness.reconstruct(p.n)
        witness.residual = (p - recon).l1_norm()
        if witness.residual > 1e-7 * (1.0 + p.l1_norm()) or min_eigenvalue(G) < -1e-7:
            return SosDecomposition(
                status="numerical_failure",
                witness=witness,
                reason=f"witness invariant violated (residual {witness.residual:.2e})",
            )
        return SosDecomposition(status="sos", witness=witness)
    if sol.status is SdpStatus.UNBOUNDED:
        # trace objective is bounded below on the PSD cone; cannot happen
        return SosDecomposition(status="numerical_failure", reason=sol.message)
    if sol.status is SdpStatus.INFEASIBLE:
        lam, _ = sol.ray_dual
        direction = {alpha: -float(v) for alpha, v in zip(monomials, lam)}
        return SosDecomposition(
            status="infeasible",
            certificate_direction=direction,
            reason="no PSD Gram matrix; improving ray certifies infeasibility",
        )
    return SosDecomposition(status=sol.status.value, reason=sol.message)


def ray_moment_matrix(
    basis: Sequence[Monomial], direction: Dict[Monomial, float]
) -> np.ndarray:
    """Assemble M(y_bar) over `basis` from an infeasibility direction."""
    k = len(basis)
    pattern = _moment_pattern(basis)
    _, first, inverse = np.unique(
        pattern.index, return_index=True, return_inverse=True
    )
    keys = pattern.exponent[first].tolist()
    values = np.array([direction[tuple(key)] for key in keys])
    return values[inverse].reshape(k, k)


# ---- SOS-convexity ----------------------------------------------------------


@dataclass
class MatrixSosWitness:
    """Scalarized certificate for Hess f = L L': an SOS witness for
    (X,W) -> W' Hess f(X) W in n+n variables."""

    n: int
    scalarized: SosWitness

    def to_json(self) -> dict:
        return {"n": self.n, "scalarized": self.scalarized.to_json()}


@dataclass
class SosConvexity:
    status: str  # "sos_convex" | "not_sos_convex" | solver failure passthrough
    witness: Optional[MatrixSosWitness] = None
    reason: str = ""
    # pointwise Hessian violation when one was found by sampling
    counterexample: Optional[dict] = None

    @property
    def is_sos_convex(self) -> bool:
        return self.status == "sos_convex"


def scalarize_hessian(f: Polynomial) -> Polynomial:
    """(X,W) -> W' Hess f(X) W as a polynomial in 2n variables."""
    n = f.n
    hess = f.hessian()
    out = Polynomial.zero(2 * n)
    for i in range(n):
        for j in range(n):
            h = hess[i][j]
            if h.is_zero():
                continue
            terms = {}
            for alpha, c in h.terms.items():
                w = [0] * (2 * n)
                w[: n] = list(alpha)
                w[n + i] += 1
                w[n + j] += 1
                key = tuple(w)
                terms[key] = terms.get(key, 0.0) + c
            out = out + Polynomial.make(2 * n, terms)
    return out


def _w_linear_basis(n: int, x_degree: int) -> List[Monomial]:
    """Monomials X^a W_i with |a| <= x_degree: W-degree exactly one."""
    out = []
    for a in monomial_basis(n, x_degree):
        for i in range(n):
            w = list(a) + [0] * n
            w[n + i] = 1
            out.append(tuple(w))
    return out


def _hessian_counterexample(f: Polynomial) -> Optional[dict]:
    rng = np.random.default_rng(0)
    pts = np.array(
        [np.zeros(f.n)] + [rng.uniform(-2.0, 2.0, size=f.n) for _ in range(200)]
    )
    H = f.hessian_at(pts)
    w, V = np.linalg.eigh(0.5 * (H + H.transpose(0, 2, 1)))
    bad = np.flatnonzero(w[:, 0] < -1e-9 * (1.0 + np.abs(w[:, -1])))
    if len(bad) == 0:
        return None
    k = bad[0]
    return {
        "point": [float(v) for v in pts[k]],
        "direction": [float(v) for v in V[k][:, 0]],
        "hessian_eigenvalue": float(w[k, 0]),
    }


def is_sos_convex(
    f: Polynomial, options: Optional[SolverOptions] = None
) -> SosConvexity:
    """Decide W' Hess f(X) W in Sigma^2[X,W], equivalent to Hess f = L L'."""
    n = f.n
    deg = f.degree()
    if deg <= 1:
        witness = MatrixSosWitness(
            n, SosWitness(_w_linear_basis(n, 0), np.zeros((n, n)), 0.0)
        )
        return SosConvexity(status="sos_convex", witness=witness)
    if deg == 2:
        hess = f.hessian()
        H = np.array([[h.coeff(tuple([0] * n)) for h in row] for row in hess])
        H = 0.5 * (H + H.T)
        w_min = min_eigenvalue(H)
        if w_min >= -1e-9 * (1.0 + float(np.max(np.abs(H)))):
            witness = MatrixSosWitness(
                n, SosWitness(_w_linear_basis(n, 0), H, 0.0)
            )
            return SosConvexity(status="sos_convex", witness=witness)
        return SosConvexity(
            status="not_sos_convex",
            reason="constant Hessian indefinite",
            counterexample=_hessian_counterexample(f),
        )
    if deg % 2 == 1:
        return SosConvexity(
            status="not_sos_convex",
            reason="odd degree: top-order Hessian part cannot be a square",
            counterexample=_hessian_counterexample(f),
        )

    h = scalarize_hessian(f)
    if h.is_zero():
        witness = MatrixSosWitness(
            n, SosWitness(_w_linear_basis(n, 0), np.zeros((n, n)), 0.0)
        )
        return SosConvexity(status="sos_convex", witness=witness)
    basis = _w_linear_basis(n, (deg - 2) // 2)
    dec = sos_decompose(h, basis=basis, options=options)
    if dec.status == "sos":
        return SosConvexity(
            status="sos_convex", witness=MatrixSosWitness(n, dec.witness)
        )
    if dec.status == "infeasible":
        return SosConvexity(
            status="not_sos_convex",
            reason="no degree-matched Gram certificate for the scalarized Hessian",
            counterexample=_hessian_counterexample(f),
        )
    return SosConvexity(status=dec.status, reason=dec.reason)


# ---- extended Jensen inequality ---------------------------------------------


class JensenReport(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


def _jensen_report(lhs: float, rhs: float) -> JensenReport:
    # a Python bool, so that the report serializes to JSON
    return JensenReport(lhs, rhs, bool(lhs >= rhs - 1e-7 * (1.0 + abs(rhs))))


def _require_admissible(y: MomentVector) -> None:
    if abs(y.y0 - 1.0) > 1e-9:
        raise PreconditionFailure("y0 = 1", f"y0 = {y.y0!r}")
    M = moment_matrix(y, y.order)
    w_min = min_eigenvalue(M)
    if w_min < -1e-7 * (1.0 + float(np.max(np.abs(M)))):
        raise PreconditionFailure(
            "M_d(y) PSD within 1e-7", f"min eig {w_min:.3e}"
        )


def jensen_check(
    f: Polynomial,
    y: MomentVector,
    sos_convexity: Optional[SosConvexity] = None,
) -> JensenReport:
    """L_y(f) >= f(L_y(X)) for SOS-convex f and admissible pseudo-moments.

    `sos_convexity` may carry a precomputed certificate; otherwise the
    SOS-convexity precondition is established here.
    """
    conv = sos_convexity if sos_convexity is not None else is_sos_convex(f)
    if not conv.is_sos_convex:
        raise PreconditionFailure("is_sos_convex(f)", conv.reason)
    if f.degree() > 2 * y.order:
        raise PreconditionFailure(
            "deg f <= 2*order(y)", f"{f.degree()} > {2 * y.order}"
        )
    _require_admissible(y)
    return _jensen_report(riesz(y, f), f.eval(mean_point(y)))


def univariate_convexity_witness(f_uni: Polynomial) -> Optional[float]:
    """A point where f'' < 0, or None when f is convex on R.

    Univariate nonnegativity coincides with SOS, so convexity is decided by
    decomposing f''.
    """
    if f_uni.n != 1:
        raise PreconditionFailure("univariate polynomial", f"n={f_uni.n}")
    fpp = f_uni.diff(0).diff(0)
    if fpp.is_zero():
        return None
    if fpp.degree() % 2 == 1 or fpp.coeff((fpp.degree(),)) < 0:
        # negative somewhere far out along the dominant term
        t = 1.0
        for _ in range(200):
            if fpp.eval([t]) < 0:
                return t
            if fpp.eval([-t]) < 0:
                return -t
            t *= 2.0
        return t
    dec = sos_decompose(fpp)
    if dec.is_sos:
        return None
    # grid search for a concrete witness
    grid = np.linspace(-20, 20, 20001)
    negative = np.flatnonzero(fpp.eval(grid[:, None]) < 0)
    return float(grid[negative[0]]) if len(negative) else 0.0


def jensen_composed_check(
    f_uni: Polynomial, g: Polynomial, y: MomentVector
) -> JensenReport:
    """L_y(f(g(X))) >= f(L_y(g)) for univariate convex f."""
    bad = univariate_convexity_witness(f_uni)
    if bad is not None:
        raise PreconditionFailure(
            "f_uni convex on R", f"f'' negative at t = {bad!r}"
        )
    composed = f_uni.compose_univariate(g)
    if composed.degree() > 2 * y.order:
        raise PreconditionFailure(
            "order(y) >= ceil(deg(f(g))/2)",
            f"{composed.degree()} > {2 * y.order}",
        )
    _require_admissible(y)
    return _jensen_report(riesz(y, composed), f_uni.eval([riesz(y, g)]))


# ---- random generators for the property suites ------------------------------

# candidates drawn before a generator gives up; the first half of
# random_sos_convex's are integrated Hessians, the rest powers of affine forms
SOS_CONVEX_TRIES = 60
ADMISSIBLE_TRIES = 200


def _integrated_quadratic_form(H: List[List[Polynomial]]) -> Polynomial:
    """X' (int_0^1 int_0^t H(sX) ds dt) X for a polynomial matrix H."""
    n = len(H)
    out = Polynomial.zero(n)
    xs = [Polynomial.variable(n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            entry = H[i][j]
            if entry.is_zero():
                continue
            acc = Polynomial.zero(n)
            for alpha, c in entry.terms.items():
                k = sum(alpha)
                acc = acc + Polynomial.monomial(n, alpha, c / ((k + 1) * (k + 2)))
            out = out + xs[i] * acc * xs[j]
    return out


def random_sos_convex(
    rng: np.random.Generator, n: int, deg: int
) -> Tuple[Polynomial, SosConvexity]:
    """A random certified SOS-convex polynomial with deg f <= deg.

    Candidates come from integrating a random L L' Hessian candidate twice
    along rays (plus an affine part); since that surrogate need not be an
    exact Hessian, candidates are filtered through is_sos_convex and only
    certified ones are returned. Falls back to even powers of affine forms,
    which are SOS-convex outright.
    """
    if deg < 2 or deg % 2 == 1:
        raise PreconditionFailure("even degree >= 2", str(deg))
    half = (deg - 2) // 2
    for attempt in range(SOS_CONVEX_TRIES):
        if attempt < SOS_CONVEX_TRIES // 2:
            k = int(rng.integers(1, n + 2))
            L = [
                [
                    Polynomial.make(
                        n,
                        {
                            alpha: rng.standard_normal()
                            for alpha in monomial_basis(n, half)
                            if rng.random() < 0.5
                        },
                    )
                    for _ in range(k)
                ]
                for _ in range(n)
            ]
            H = [
                [
                    sum(
                        (L[i][t] * L[j][t] for t in range(k)),
                        Polynomial.zero(n),
                    )
                    for j in range(n)
                ]
                for i in range(n)
            ]
            f = _integrated_quadratic_form(H)
        else:
            # sum of even powers of affine forms: SOS-convex by construction
            f = Polynomial.zero(n)
            for _ in range(int(rng.integers(1, 4))):
                a = rng.standard_normal(n)
                b = float(rng.standard_normal())
                aff = Polynomial.make(
                    n,
                    {
                        tuple(int(i == t) for t in range(n)): a[i]
                        for i in range(n)
                    },
                ) + Polynomial.constant(n, b)
                power = 2 * int(rng.integers(1, deg // 2 + 1))
                f = f + float(rng.uniform(0.2, 1.5)) * aff ** min(power, deg)
        f = f + Polynomial.make(
            n, {tuple(int(i == t) for t in range(n)): rng.standard_normal() for i in range(n)}
        )
        if f.degree() < 2 or f.degree() % 2 == 1:
            continue
        conv = is_sos_convex(f)
        if conv.is_sos_convex:
            return f, conv
    raise RuntimeError("random SOS-convex generation exhausted its attempts")


def random_admissible_moments(
    rng: np.random.Generator, n: int, order: int
) -> MomentVector:
    """Pseudo-moment vector with y0 = 1 and M_d(y) >= 0 that is generally
    not the moment vector of any measure: a Dirac mixture plus noise,
    rejection-sampled for positive semidefiniteness."""
    # at least s(n, d) atoms so M_d of the base mixture is generically
    # strictly PSD, which leaves slack for the non-measure perturbation
    s = len(monomial_basis(n, order))
    for _ in range(ADMISSIBLE_TRIES):
        k = int(rng.integers(s, s + 4))
        pts = rng.normal(0.0, 0.8, size=(k, n))
        w = rng.uniform(0.2, 1.0, size=k)
        y = MomentVector.from_mixture(pts, w / w.sum(), order)
        base = moment_matrix(y, order)
        slack = min_eigenvalue(base)
        noise = rng.normal(0.0, 1.0, size=y.values.shape)
        noise[0] = 0.0
        scale = 0.5 * max(slack, 0.0) / (1.0 + float(np.max(np.abs(noise))))
        vals = y.values + scale * noise
        cand = MomentVector(n, order, vals)
        if min_eigenvalue(moment_matrix(cand, order)) >= 0.0:
            return cand
    raise RuntimeError("admissible pseudo-moment sampling exhausted its attempts")
