"""SOS decomposition, SOS-convexity, and extended Jensen inequality checks.

A polynomial p is SOS iff p = z'Gz for the monomial vector z over a degree-
matched basis and some PSD Gram matrix G; that feasibility problem is an SDP
in primal standard form, solved directly. SOS-convexity of f (Hessian
factoring as L L') is decided through the standard scalarization: f is
SOS-convex iff (X,W) -> W' Hess f(X) W is SOS in the doubled variables, over
the basis of monomials with W-degree exactly one.

Every certificate of the package is one GramIdentity, target - bound =
sum_k w_k sigma_k + sum_l q_l h_l with Gram matrices behind the sigma_k: the
SOS and scalarized-Hessian witnesses here, the Putinar certificates of
`hierarchy` and the rho_j weights of `convexcert`. Constructors only build
it; callers judge it by the one rule of `GramIdentity.rejection`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .moments import (
    MomentVector,
    _moment_pattern,
    mean_point,
    moment_matrix,
    riesz,
)
from .poly import (
    Monomial,
    Polynomial,
    PreconditionFailure,
    monomial_basis,
)
from .sdp import (
    SdpProblem,
    SdpStatus,
    _entry_pattern,
    min_eigenvalue,
    solve,
)


# The one acceptance rule of every Gram identity: each Gram matrix has least
# eigenvalue at least -GRAM_EIG_TOL, and the residual ||defect||_1 is at most
# RESIDUAL_TOL * (1 + ||target||_1)
GRAM_EIG_TOL = 1e-7
RESIDUAL_TOL = 1e-7


@dataclass
class GramIdentity:
    """The SOS identity target - bound = sum_k w_k sigma_k + sum_l q_l h_l,
    with sigma_k = z_k' G_k z_k over the monomial vector z_k of basis_k.

    `grams` holds the weighted Gram terms (w_k, basis_k, G_k) and `free` the
    unconstrained terms (q_l, h_l). An SOS witness is one term of weight 1
    at bound 0, a Putinar certificate has bound lambda* and weights 1, g_j,
    and a rho_j certificate adds the free term psi_free * g_j(Y). Building
    one judges nothing; `rejection` applies the acceptance rule."""

    target: Polynomial
    bound: float
    grams: List[Tuple[Polynomial, List[Monomial], np.ndarray]]
    free: List[Tuple[Polynomial, Polynomial]] = field(default_factory=list)

    def sigma(self, k: int) -> Polynomial:
        """z_k' G_k z_k, the k-th Gram term without its weight."""
        _, basis, G = self.grams[k]
        pattern = _moment_pattern(basis)
        return Polynomial.from_arrays(self.target.n, pattern.exponent, G.reshape(-1))

    def defect(self) -> Polynomial:
        """target - bound - sum_k sigma_k w_k - sum_l q_l h_l, subtracted
        in that order, which fixes the residual's rounding."""
        acc = self.target - Polynomial.constant(self.target.n, self.bound)
        for k, (w, _, _) in enumerate(self.grams):
            acc = acc - self.sigma(k) * w
        for q, h in self.free:
            acc = acc - q * h
        return acc

    @property
    def residual(self) -> float:
        return self.defect().l1_norm()

    def rejection(self) -> Optional[str]:
        """Why the identity fails the acceptance rule, or None."""
        for k, (_, _, G) in enumerate(self.grams):
            low = min_eigenvalue(G)
            if low < -GRAM_EIG_TOL:
                return f"Gram block {k} not PSD (min eig {low:.3e})"
        residual = self.residual
        if residual > RESIDUAL_TOL * (1.0 + self.target.l1_norm()):
            return f"residual {residual:.3e}"
        return None

    def to_json(self) -> dict:
        """Each term as a list in the order of its tuple, each polynomial as
        [exponent rows, coefficients] in stored order. The residual is
        written for the reader and never read back."""

        def poly(p: Polynomial) -> list:
            return [p.exponents.tolist(), p.coefficients.tolist()]

        return {
            "n": self.target.n,
            "target": poly(self.target),
            "bound": float(self.bound),
            "grams": [
                [poly(w), [list(a) for a in basis], G.tolist()]
                for w, basis, G in self.grams
            ],
            "free": [[poly(q), poly(h)] for q, h in self.free],
            "residual": self.residual,
        }

    @staticmethod
    def from_json(data: dict) -> "GramIdentity":
        n = int(data["n"])

        def poly(pair: list) -> Polynomial:
            return Polynomial.from_arrays(n, *pair)

        grams = [
            (poly(w), [tuple(a) for a in basis], np.array(G, dtype=float))
            for w, basis, G in data["grams"]
        ]
        free = [(poly(q), poly(h)) for q, h in data["free"]]
        return GramIdentity(poly(data["target"]), float(data["bound"]), grams, free)


@dataclass
class SosDecomposition:
    status: str  # "sos" | "infeasible" | "max_iterations" | "numerical_failure"
    witness: Optional[GramIdentity] = None
    # for infeasible: pseudo-moments y_bar with M(y_bar) >= 0, L_y(p) < 0
    certificate_direction: Optional[Dict[Monomial, float]] = None
    reason: str = ""
    # the Gram solve's SdpSolution.accuracy: "target", or "stall_band" when
    # it was accepted inside the stall tolerances; "target" when no SDP ran
    accuracy: str = "target"

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
    # basis repeats a monomial and E is stored as a stack
    upper = (group * k + rows) * k + cols
    lower = ((group * k + cols) * k + rows)[rows != cols]
    flat = np.r_[upper, lower]
    E = _entry_pattern(q, k, flat, np.ones(len(flat)))
    target = np.array([p.coeff(alpha) for alpha in monomials], dtype=float)
    problem = SdpProblem((k,), (np.eye(k),), (E,), target)
    sol = solve(problem)

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
        one = Polynomial.constant(p.n, 1.0)
        witness = GramIdentity(p, 0.0, [(one, basis, G)])
        why = witness.rejection()
        if why is not None:
            return SosDecomposition(
                status="numerical_failure",
                witness=witness,
                reason=f"witness invariant violated ({why})",
                accuracy=sol.accuracy,
            )
        return SosDecomposition(status="sos", witness=witness, accuracy=sol.accuracy)
    if sol.status is SdpStatus.UNBOUNDED:
        # trace objective is bounded below on the PSD cone; cannot happen
        return SosDecomposition(
            status="numerical_failure", reason=sol.message, accuracy=sol.accuracy
        )
    if sol.status is SdpStatus.INFEASIBLE:
        lam, _ = sol.ray_dual
        direction = {alpha: -float(v) for alpha, v in zip(monomials, lam)}
        return SosDecomposition(
            status="infeasible",
            certificate_direction=direction,
            reason="no PSD Gram matrix; improving ray certifies infeasibility",
            accuracy=sol.accuracy,
        )
    return SosDecomposition(
        status=sol.status.value, reason=sol.message, accuracy=sol.accuracy
    )


# ---- SOS-convexity ----------------------------------------------------------


@dataclass
class SosConvexity:
    status: str  # "sos_convex" | "not_sos_convex" | solver failure passthrough
    # the scalarized Hessian's SOS witness, in the 2n variables (X, W)
    witness: Optional[GramIdentity] = None
    reason: str = ""
    # the accuracy of the Gram solve, as in SosDecomposition
    accuracy: str = "target"

    @property
    def is_sos_convex(self) -> bool:
        return self.status == "sos_convex"


def scalarize_hessian(f: Polynomial) -> Polynomial:
    """(X,W) -> W' Hess f(X) W as a polynomial in 2n variables."""
    n = f.n
    w = np.eye(n, dtype=int)
    return Polynomial.sum_of(
        2 * n,
        (
            Polynomial(
                2 * n,
                np.hstack([h.exponents, np.zeros_like(h.exponents) + w[i] + w[j]]),
                h.coefficients,
            )
            for i, row in enumerate(f.hessian())
            for j, h in enumerate(row)
        ),
    )


def _w_linear_basis(n: int, x_degree: int) -> List[Monomial]:
    """Monomials X^a W_i with |a| <= x_degree: W-degree exactly one."""
    out = []
    for a in monomial_basis(n, x_degree):
        for i in range(n):
            w = list(a) + [0] * n
            w[n + i] = 1
            out.append(tuple(w))
    return out


def is_sos_convex(f: Polynomial) -> SosConvexity:
    """Decide W' Hess f(X) W in Sigma^2[X,W], equivalent to Hess f = L L'.
    For deg f <= 2 the witness is the constant Hessian, zero for affine f."""
    n = f.n
    deg = f.degree()
    if deg <= 2:
        H = f.hessian_at(np.zeros((1, n)))[0]
        H = 0.5 * (H + H.T)
        if min_eigenvalue(H) >= -1e-9 * (1.0 + float(np.max(np.abs(H)))):
            one = Polynomial.constant(2 * n, 1.0)
            witness = GramIdentity(
                scalarize_hessian(f), 0.0, [(one, _w_linear_basis(n, 0), H)]
            )
            return SosConvexity(status="sos_convex", witness=witness)
        return SosConvexity(
            status="not_sos_convex", reason="constant Hessian indefinite"
        )
    if deg % 2 == 1:
        return SosConvexity(
            status="not_sos_convex",
            reason="odd degree: top-order Hessian part cannot be a square",
        )

    h = scalarize_hessian(f)
    basis = _w_linear_basis(n, (deg - 2) // 2)
    dec = sos_decompose(h, basis=basis)
    if dec.status == "sos":
        return SosConvexity(
            status="sos_convex", witness=dec.witness, accuracy=dec.accuracy
        )
    if dec.status == "infeasible":
        return SosConvexity(
            status="not_sos_convex",
            reason="no degree-matched Gram certificate for the scalarized Hessian",
            accuracy=dec.accuracy,
        )
    return SosConvexity(status=dec.status, reason=dec.reason, accuracy=dec.accuracy)


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
    decomposing f''. When that fails, f'' is probed at the midpoints of its
    consecutive real roots and a point is returned only where f'' evaluates
    negative; with none, PreconditionFailure names the decomposition status.
    """
    if f_uni.n != 1:
        raise PreconditionFailure("univariate polynomial", f"n={f_uni.n}")
    fpp = f_uni.diff(0).diff(0)
    if fpp.is_zero():
        return None
    if fpp.degree() % 2 == 1 or fpp.coeff((fpp.degree(),)) < 0:
        # f'' < 0 far out: the first of t = 1, -1, 2, -2, ..., +-2^199, or 2^200
        t = 2.0 ** np.arange(200)
        probes = np.column_stack([t, -t]).reshape(-1, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            negative = np.flatnonzero(fpp.eval(probes) < 0)
        return float(probes[negative[0], 0]) if len(negative) else 2.0**200
    dec = sos_decompose(fpp)
    if dec.is_sos:
        return None
    # f'' keeps its sign between consecutive real roots
    roots = np.roots([fpp.coeff((k,)) for k in range(fpp.degree(), -1, -1)])
    real = np.sort(roots[np.isreal(roots)].real)
    probes = 0.5 * (real[1:] + real[:-1])
    negative = np.flatnonzero(fpp.eval(probes[:, None]) < 0)
    if not len(negative):
        raise PreconditionFailure(
            "f'' SOS or negative between two real roots",
            f"sos_decompose status {dec.status}",
        )
    return float(probes[negative[0]])


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


def _ray_average(h: Polynomial) -> Polynomial:
    """int_0^1 int_0^t h(sX) ds dt: a term of degree k is divided by
    int_0^1 int_0^t s^k ds dt = 1/((k+1)(k+2)), in stored order."""
    k = h.exponents.sum(axis=1)
    return Polynomial(h.n, h.exponents, h.coefficients / ((k + 1) * (k + 2)))


def _integrated_quadratic_form(H: List[List[Polynomial]]) -> Polynomial:
    """X' (int_0^1 int_0^t H(sX) ds dt) X for a polynomial matrix H, from
    the `_ray_average` of each entry. For H = Hess f this is
    f - f(0) - grad f(0)'X, Taylor's remainder at 0 in averaged-Hessian
    form."""
    n = len(H)
    w = np.eye(n, dtype=int)
    return Polynomial.sum_of(
        n,
        (
            Polynomial(n, h.exponents + w[i] + w[j], h.coefficients)
            for i, row in enumerate(H)
            for j, h in enumerate(map(_ray_average, row))
        ),
    )


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
                [Polynomial.sum_of(n, (a * b for a, b in zip(Li, Lj))) for Lj in L]
                for Li in L
            ]
            f = _integrated_quadratic_form(H)
        else:
            # sum of even powers of affine forms: SOS-convex by construction
            f = Polynomial.zero(n)
            for _ in range(int(rng.integers(1, 4))):
                a = rng.standard_normal(n)
                b = float(rng.standard_normal())
                aff = Polynomial.from_arrays(n, np.eye(n), a) + b
                power = 2 * int(rng.integers(1, deg // 2 + 1))
                f = f + float(rng.uniform(0.2, 1.5)) * aff ** min(power, deg)
        f = f + Polynomial.from_arrays(n, np.eye(n), rng.standard_normal(n))
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
