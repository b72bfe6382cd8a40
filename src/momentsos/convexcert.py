"""Numerical convexity certificates and semidefinite representations.

A basic closed semialgebraic set K = {g_j >= 0} with Slater point and
nondegenerate boundary is convex iff each boundary polynomial supports a
hyperplane: <grad g_j(y), x - y> >= 0 for x, y in K with g_j(y) = 0. That
nonnegativity is tested by the moment program rho_j over pseudo-moments z in
the doubled variables (X, Y):

    rho_j = min L_z(<grad g_j(Y), X - Y>)
            s.t. M_{d_j}(z) >= 0,
                 M_{d_j - r_k}(g_k(X) z) >= 0        for all k,
                 M_{d_j - r_k}(g_k(Y) z) >= 0        for k != j,
                 M_{d_j - r_j}(g_j(Y) z)  = 0,
                 z_0 = 1.

|rho_j| <= tol for every j is a numerical certificate of convexity; the dual
weights give the SOS identity <grad g_j(Y), X - Y> - rho_j =
sigma_j0 + sum_k sigma_jk g_k(X) + sum_{k != j} psi_jk g_k(Y) + psi_j g_j(Y),
a GramIdentity with bound rho_j and the free term psi_j g_j(Y). It is read
off the solve by `MomentSdp.certificate`, from the basis and weight each
block of `_rho_blocks` keeps and the multipliers of the program's ideal,
and a record keeps it only when it passes the identity's acceptance rule.
Quadratic concave g_j skip the SDP: <grad g(Y), X-Y> =
g(X) - g(Y) + (X-Y)' (-Q) (X-Y) with Q the quadratic-part matrix, which is
already of that form at d_j = 1.

The equality block is the same as the rows L_z(g_j(Y) m) = 0 for every
monomial m with deg m <= 2(d_j - r_j), one row per m, which
`moment_program` builds from the ideal (g_j(Y), m). It forces the kernel
{g_j(Y) p} inside every moment and localizing block, and without a
reduction the interior-point solver has no strictly feasible iterates. The
kernel vectors have distinct leading monomials in the graded order of the
basis, so each block is deflated by dropping those coordinates: a principal
submatrix, PSD iff the whole block is (partial facial reduction).

A certified set gets the explicit lift

    Omega = {(x, y) : M_d(y) >= 0, M_{d-r_j}(g_j y) >= 0,
             L_y(X_i) = x_i, y_0 = 1},   d = max_j d_j,

whose projection onto x reproduces K; support functions over Omega are
single SDP solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._compile import (
    BlockSpec,
    MomentSdp,
    _pattern_block,
    coefficient_row,
    moment_program,
    relaxation_blocks,
)
from .moments import MomentVector, _basis
from .poly import (
    Polynomial,
    PreconditionFailure,
    SemialgebraicSet,
    _grlex_index,
    basis_size,
    monomial_basis,
)
from .sdp import min_eigenvalue
from .sos import GramIdentity


# ---- polynomials in the doubled variables (X, Y) ----------------------------


def lift_to_xy(p: Polynomial, side: str) -> Polynomial:
    """Embed p(X) into R[X, Y] as p(X) (side="x") or p(Y) (side="y")."""
    zero = np.zeros_like(p.exponents)
    if side == "x":
        exponents = np.hstack([p.exponents, zero])
    elif side == "y":
        exponents = np.hstack([zero, p.exponents])
    else:
        raise PreconditionFailure('side in {"x", "y"}', side)
    return Polynomial(2 * p.n, exponents, p.coefficients)


def gradient_pairing(g: Polynomial) -> Polynomial:
    """<grad g(Y), X - Y> as a polynomial in R[X, Y]."""
    n = g.n
    out = Polynomial.zero(2 * n)
    for i, gi in enumerate(g.gradient()):
        if gi.is_zero():
            continue
        xi = Polynomial.variable(2 * n, i)
        yi = Polynomial.variable(2 * n, n + i)
        out = out + lift_to_xy(gi, "y") * (xi - yi)
    return out


def _quadratic_part(g: Polynomial) -> np.ndarray:
    """Q with g = c + b'x + x'Qx + (terms of degree 3 or more): half the
    Hessian of g at the origin."""
    return 0.5 * g.hessian_at(np.zeros((1, g.n)))[0]


# ---- the rho_j test program --------------------------------------------------


def _rho_blocks(K: SemialgebraicSet, j: int, d_j: int) -> List[BlockSpec]:
    """The PSD blocks of rho_j, in program order: the moment block
    ("moment", weight 1), g_k(X) for every k and g_k(Y) for k != j
    ("g{k}(X)", "g{k}(Y)"), over monomial_basis(2n, d_j - r_k) less the
    coordinates the equality rows force into the kernel.

    With h = g_j(Y) and L_z(h m) = 0 for every deg m <= budget =
    2(d_j - r_j), a block of row order D and weight degree w has the kernel
    {coefficients of h p : deg p <= min(D - deg h, budget - w - D)}: every
    entry of S_B(z) (h p) is L_z of h times a multiplier of degree at most
    budget. monomial_basis is in a monomial order, so the leading coordinate
    of h p is lead + p, with lead the last term of h in that order. These
    coordinates are distinct and the kernel is triangular on them, so the
    block is PSD iff its principal submatrix on the other coordinates is."""
    n2 = 2 * K.n
    s = basis_size(n2, 2 * d_j)
    half = K.half_degrees()
    ideal = lift_to_xy(K.constraints[j - 1], "y")
    budget = 2 * (d_j - half[j - 1])
    lead = ideal.exponents[np.argmax(_grlex_index(ideal.exponents))]

    def kept(D: int, w: int) -> np.ndarray:
        basis = _basis(n2, D)
        max_p_deg = min(D - ideal.degree(), budget - w - D)
        keep = np.ones(len(basis), dtype=bool)
        if max_p_deg >= 0:
            keep[_grlex_index(_basis(n2, max_p_deg) + lead)] = False
        return basis[keep]

    blocks = [_pattern_block("moment", kept(d_j, 0), None, s)]
    for side in ("x", "y"):
        for k, (g, rk) in enumerate(zip(K.constraints, half), start=1):
            if side == "x" or k != j:
                basis = kept(d_j - rk, g.degree())
                label = f"g{k}({side.upper()})"
                blocks.append(_pattern_block(label, basis, lift_to_xy(g, side), s))
    return blocks


def rho_program(K: SemialgebraicSet, j: int, d_j: int) -> MomentSdp:
    """Moment program whose optimum rho_j tests the supporting-hyperplane
    inequality for g_j; j is 1-based. The equality block
    M_{d_j - r_j}(g_j(Y) z) = 0 is the program's ideal (g_j(Y), the
    monomials m of degree at most 2(d_j - r_j)), from which
    `moment_program` builds one row L_z(g_j(Y) m) = 0 per m, and every PSD
    block is cut to the principal submatrix of `_rho_blocks`."""
    m = K.m
    if not 1 <= j <= m:
        raise PreconditionFailure("1 <= j <= m", f"j = {j}, m = {m}")
    n = K.n
    half = K.half_degrees()
    g_j = K.constraints[j - 1]
    objective = gradient_pairing(g_j)
    if 2 * d_j < objective.degree() or any(d_j < rk for rk in half):
        raise PreconditionFailure(
            "2 d_j >= deg <grad g_j(Y), X-Y> and d_j >= r_k for all k",
            f"d_j = {d_j}",
        )

    n2 = 2 * n
    blocks = _rho_blocks(K, j, d_j)
    ideal = (lift_to_xy(g_j, "y"), _basis(n2, 2 * (d_j - half[j - 1])))
    c = coefficient_row(n2, d_j, objective)
    return moment_program(n2, d_j, c, blocks, ideal)


# ---- certificates ------------------------------------------------------------


@dataclass
class ConstraintRecord:
    j: int
    d_j: int
    rho_j: float
    method: str  # "rho_sdp" | "quadratic_concave_shortcut"
    closed: bool
    weights: Optional[GramIdentity] = None
    note: str = ""

    def to_json(self) -> dict:
        out = {
            "j": self.j,
            "d_j": self.d_j,
            "rho_j": self.rho_j,
            "method": self.method,
            "closed": self.closed,
        }
        if self.note:
            out["note"] = self.note
        if self.weights is not None:
            out["weights"] = self.weights.to_json()
        return out


@dataclass
class ProbeReport:
    j: int
    boundary_samples: int
    min_gradient_norm: Optional[float]
    degenerate: bool
    note: str = ""
    # the min ||grad g_j|| below which a boundary is flagged degenerate
    degenerate_below: ClassVar[float] = 1e-6

    def to_json(self) -> dict:
        return {
            "j": self.j,
            "boundary_samples": self.boundary_samples,
            "min_gradient_norm": self.min_gradient_norm,
            "degenerate": self.degenerate,
            "note": self.note,
        }


@dataclass
class ConvexityCertificate:
    status: str  # certified_numerically | inconclusive | refuted_by_sample
    tolerance: float
    records: List[ConstraintRecord]
    probe: List[ProbeReport]
    degenerate_flags: List[int]
    refutation: Optional[dict] = None  # {"j", "x", "y", "violation"}
    slater: Optional[dict] = None

    @property
    def d(self) -> int:
        return max(rec.d_j for rec in self.records)

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "tolerance": self.tolerance,
            "records": [rec.to_json() for rec in self.records],
            "probe": [rep.to_json() for rep in self.probe],
            "degenerate_flags": self.degenerate_flags,
        }
        if self.refutation is not None:
            out["refutation"] = self.refutation
        if self.slater is not None:
            out["slater"] = self.slater
        return out


def _shortcut_weights(K: SemialgebraicSet, j: int) -> GramIdentity:
    """Closed-form weights for quadratic concave g_j:
    <grad g(Y), X-Y> = g(X) - g(Y) + (X-Y)'(-Q)(X-Y)."""
    n2 = 2 * K.n
    g = K.constraints[j - 1]
    Q = _quadratic_part(g)
    # (X-Y)'(-Q)(X-Y) over the degree-one basis (X_1..X_n, Y_1..Y_n)
    basis = monomial_basis(n2, 1)[1:]
    gram = np.block([[-Q, Q], [Q, -Q]])
    one = Polynomial.constant(n2, 1.0)
    grams = [
        (one, basis, gram),
        (lift_to_xy(g, "x"), monomial_basis(n2, 0), np.array([[1.0]])),
    ]
    free = [(Polynomial.constant(n2, -1.0), lift_to_xy(g, "y"))]
    return GramIdentity(gradient_pairing(g), 0.0, grams, free)


# the sampling probes treat |g_j| <= BOUNDARY_BAND as on {g_j = 0}; they
# sample the box [-b, b]^n with b the set's ball bound, else 2
BOUNDARY_BAND = 1e-4
# interior margin the Slater heuristic asks for, and its sample count
SLATER_MARGIN = 1e-6
SLATER_STARTS = 200
# boundary crossings the nondegeneracy probe looks for per constraint, and
# the (x, y) pairs the supporting-hyperplane sampler checks per constraint
PROBE_SAMPLES = 200
HYPERPLANE_PAIRS = 2000


def _boundary_crossings(
    g: Polynomial,
    others: SemialgebraicSet,
    cloud: np.ndarray,
    starts: np.ndarray | bool,
    rng: np.random.Generator,
    limit: int,
) -> np.ndarray:
    """Crossings of {g = 0} found by bisecting up to `limit` segments of a
    point cloud, all at once. Segment t runs from the t-th cloud point with
    g > BOUNDARY_BAND allowed by the `starts` mask (cycling) to a point with
    g < -BOUNDARY_BAND drawn by `rng`, one scalar draw per segment. Keeps
    the crossings with |g| <= BOUNDARY_BAND that lie in `others` to within
    the same band."""
    band = BOUNDARY_BAND
    vals = g.eval(cloud)
    inside, outside = cloud[(vals > band) & starts], cloud[vals < -band]
    count = min(limit, len(inside), len(outside))
    a = inside[np.arange(count) % len(inside)]
    b = outside[[int(rng.integers(0, len(outside))) for _ in range(count)]]
    fa = g.eval(a)
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = g.eval(mid)
        same = (fm > 0) == (fa > 0)
        a = np.where(same[:, None], mid, a)
        fa = np.where(same, fm, fa)
        b = np.where(same[:, None], b, mid)
    x = 0.5 * (a + b)
    return x[(np.abs(g.eval(x)) <= band) & others.contains(x, band)]


def nondegeneracy_probe(K: SemialgebraicSet, seed: int = 0) -> List[ProbeReport]:
    """Boundary gradient probe: bisect up to PROBE_SAMPLES segments
    crossing {g_j = 0}, keep crossings that stay in K, and report
    min ||grad g_j|| over them. Flags DEGENERATE below
    ProbeReport.degenerate_below."""
    rng = np.random.default_rng(seed)
    half_width = K.ball_bound or 2.0
    reports = []
    pts = rng.uniform(-half_width, half_width, size=(40 * PROBE_SAMPLES, K.n))
    for j, g in enumerate(K.constraints, start=1):
        others = SemialgebraicSet(K.n, K.constraints[: j - 1] + K.constraints[j:])
        starts = others.contains(pts, BOUNDARY_BAND)
        found = _boundary_crossings(g, others, pts, starts, rng, PROBE_SAMPLES)
        if not len(found):
            reports.append(
                ProbeReport(j, 0, None, False, note="no active samples")
            )
            continue
        grads = np.stack([p.eval(found) for p in g.gradient()], axis=1)
        mn = float(np.linalg.norm(grads, axis=1).min())
        degenerate = mn < ProbeReport.degenerate_below
        reports.append(ProbeReport(j, len(found), mn, degenerate))
    return reports


def slater_heuristic(K: SemialgebraicSet, seed: int = 0) -> dict:
    """Search for x0 with min_j g_j(x0) >= SLATER_MARGIN by sampling
    SLATER_STARTS points plus local random ascent; heuristic evidence
    only."""
    rng = np.random.default_rng(seed)
    half_width = K.ball_bound or 2.0

    def worst(x):
        return np.min([g.eval(x) for g in K.constraints], axis=0, initial=np.inf)

    best_x = np.zeros(K.n)
    best = worst(best_x)
    pts = rng.uniform(-half_width, half_width, size=(SLATER_STARTS, K.n))
    if K.m:
        vals = worst(pts)
        k = int(np.argmax(vals))
        if vals[k] > best:
            best, best_x = vals[k], pts[k]
    step = 0.25 * half_width
    for _ in range(300):
        cand = best_x + rng.normal(0.0, step, size=K.n)
        v = worst(cand)
        if v > best:
            best, best_x = v, cand
        else:
            step *= 0.99
    return {
        "passed": bool(best >= SLATER_MARGIN),
        "margin": SLATER_MARGIN,
        "best_value": float(best),
        "point": [float(v) for v in best_x],
    }


def sample_supporting_hyperplane(
    K: SemialgebraicSet, seed: int = 0
) -> Optional[dict]:
    """Search for a sampled violation of <grad g_j(y), x-y> >= 0 with
    x in K and y in K near {g_j = 0}, over HYPERPLANE_PAIRS pairs per g_j.
    Returns the worst violating pair or None when every sampled pair
    passes at tolerance 1e-4."""
    rng = np.random.default_rng(seed)
    half_width = K.ball_bound or 2.0
    count = HYPERPLANE_PAIRS // 4
    cloud = rng.uniform(-half_width, half_width, size=(60 * count, K.n))
    xs = cloud[K.contains(cloud)][:count]
    if len(xs) == 0:
        return None
    worst: Optional[dict] = None
    for j, g in enumerate(K.constraints, start=1):
        others = SemialgebraicSet(K.n, K.constraints[: j - 1] + K.constraints[j:])
        cloud = rng.uniform(-half_width, half_width, size=(40 * count, K.n))
        ys = _boundary_crossings(g, others, cloud, True, rng, count)
        if len(ys) == 0:
            continue
        # one scalar draw for x, then one for y, per pair
        draws = np.array(
            [
                (rng.integers(0, len(xs)), rng.integers(0, len(ys)))
                for _ in range(HYPERPLANE_PAIRS)
            ]
        ).reshape(-1, 2)
        x, y = xs[draws[:, 0]], ys[draws[:, 1]]
        grad = np.stack([p.eval(ys) for p in g.gradient()], axis=1)[draws[:, 1]]
        val = (grad * (x - y)).sum(axis=1)
        slack = -1e-4 * (1.0 + np.linalg.norm(grad, axis=1))
        bad = np.flatnonzero(val < slack)
        if len(bad) == 0:
            continue
        t = bad[np.argmin(val[bad])]
        if worst is None or val[t] < worst["violation"]:
            worst = {
                "j": j,
                "x": [float(v) for v in x[t]],
                "y": [float(v) for v in y[t]],
                "violation": float(val[t]),
            }
    return worst


def certify_convexity(
    K: SemialgebraicSet,
    d_max: int = 4,
    tol: float = 1e-6,
    *,
    d_fixed: Optional[Dict[int, int]] = None,
    recover_weights: bool = False,
    witness_point: Optional[Sequence[float]] = None,
    slater_waiver: bool = False,
    seed: int = 0,
) -> ConvexityCertificate:
    """Per-constraint supporting-hyperplane certification.

    Quadratic concave g_j close by the algebraic shortcut at d_j = 1 with no
    SDP solve; the rest ascend d_j from the minimal admissible order until
    |rho_j| <= tol or d_max. The verdict is certified_numerically only when
    every constraint closes; it never claims convexity outright. Boundary
    nondegeneracy flags from the probe are always attached: a degenerate
    boundary makes the hyperplane test vacuous there."""
    if K.m == 0:
        raise PreconditionFailure("K has at least one constraint")
    outside = [j for j in d_fixed or () if j not in range(1, K.m + 1)]
    if outside:
        raise PreconditionFailure(
            "d_fixed keys j in 1..m", f"j = {outside[0]!r}, m = {K.m}"
        )
    slater = slater_heuristic(K, seed=seed)
    if witness_point is not None:
        # a Slater point: strictly inside every constraint, not on a boundary
        x = np.asarray(witness_point, dtype=float)
        if not all(g.eval(x) > 0.0 for g in K.constraints):
            raise PreconditionFailure(
                "witness point with every g_j > 0", str(list(witness_point))
            )
    elif not slater["passed"] and not slater_waiver:
        raise PreconditionFailure(
            "Slater heuristic passed or waived",
            f"best sampled margin {slater['best_value']:.3e}",
        )

    probe = nondegeneracy_probe(K, seed=seed)
    flags = [rep.j for rep in probe if rep.degenerate]

    half = K.half_degrees()
    records: List[ConstraintRecord] = []
    solver_failed = False
    for j, g in enumerate(K.constraints, start=1):
        Q = _quadratic_part(g)
        if g.degree() <= 2 and min_eigenvalue(-Q) >= -1e-9 * (
            1.0 + float(np.max(np.abs(Q)))
        ):
            rec = ConstraintRecord(
                j=j,
                d_j=1,
                rho_j=0.0,
                method="quadratic_concave_shortcut",
                closed=True,
            )
            if recover_weights:
                rec.weights = _shortcut_weights(K, j)
            records.append(rec)
            continue

        obj_deg = gradient_pairing(g).degree()
        d_lo = max((obj_deg + 1) // 2, max(half))
        if d_fixed and j in d_fixed:
            if d_fixed[j] < d_lo:
                raise PreconditionFailure(
                    "fixed d_j admissible", f"d_{j} = {d_fixed[j]} < {d_lo}"
                )
            schedule = [d_fixed[j]]
        else:
            schedule = list(range(d_lo, max(d_lo, d_max) + 1))

        rec = ConstraintRecord(
            j=j, d_j=schedule[0], rho_j=np.nan, method="rho_sdp", closed=False
        )
        for d in schedule:
            prog = rho_program(K, j, d)
            sol = prog.solve()
            rec.d_j = d
            if not sol.is_optimal:
                status = sol.status.value
                if sol.sdp_solution.message == "no progress":
                    status += " (no progress)"
                rec.note = f"solver status {status} at d_j = {d}"
                solver_failed = True
                break
            rec.rho_j = sol.value
            if sol.sdp_solution.accuracy == "stall_band":
                # a value accepted short of the target tolerances does not
                # close the record; the next order may solve to target
                rec.note = f"stall-band solve at d_j = {d}"
                continue
            if abs(sol.value) <= tol:
                rec.closed = True
                if recover_weights:
                    rec.weights = prog.certificate(gradient_pairing(g), sol)
                break
        records.append(rec)

    for rec in records:
        why = rec.weights.rejection() if rec.weights is not None else None
        if why is not None:
            rec.weights = None
            rec.note = "; ".join(filter(None, [rec.note, f"weights rejected: {why}"]))

    if all(rec.closed for rec in records):
        status = "certified_numerically"
        refutation = None
    else:
        refutation = sample_supporting_hyperplane(K, seed=seed)
        status = "refuted_by_sample" if refutation is not None else "inconclusive"
    if solver_failed and status == "certified_numerically":
        status = "inconclusive"

    return ConvexityCertificate(
        status=status,
        tolerance=tol,
        records=records,
        probe=probe,
        degenerate_flags=flags,
        refutation=refutation,
        slater=slater,
    )


# ---- semidefinite representations -------------------------------------------


@dataclass
class SdrRepresentation:
    """Lift Omega = {(x, y): blocks(y) >= 0, L_y(X_i) = x_i, y_0 = 1};
    K is recovered as the projection onto the n first-order moments."""

    d: int
    base_set: SemialgebraicSet
    form: str  # "localizing" | "scalar"
    blocks: List[BlockSpec]

    @property
    def n(self) -> int:
        return self.base_set.n

    @property
    def lift_dimension(self) -> int:
        return basis_size(self.n, 2 * self.d)

    def lift_point(self, x: Sequence[float]) -> np.ndarray:
        """Dirac moments of x: the canonical lift of a point of K."""
        return MomentVector.from_point(x, self.d).values

    def satisfies(self, y: np.ndarray, tol: float = 1e-8) -> bool:
        """Membership of a lift vector: y_0 = 1 and every block PSD."""
        if abs(y[0] - 1.0) > tol:
            return False
        for B in self.blocks:
            M = B.apply(y)
            if min_eigenvalue(M) < -tol * (1.0 + float(np.max(np.abs(M)))):
                return False
        return True

    def to_json(self) -> dict:
        out = {
            "d": self.d,
            "form": self.form,
            "n": self.n,
            "lift_dimension": self.lift_dimension,
            "base_set": self.base_set.to_json(),
            "blocks": [],
        }
        for B in self.blocks:
            # entry [a, b, c, v]: y_c has coefficient v in block entry (a, b),
            # from one term t of g, since distinct terms reach distinct c
            t, a, b = np.indices(B.index.shape).reshape(3, -1)
            c = B.index.ravel()
            order = np.lexsort((c, b, a))
            out["blocks"].append(
                {
                    "label": B.label,
                    "dim": B.dim,
                    "entries": [
                        [int(a[i]), int(b[i]), int(c[i]), float(B.coef[t[i]])]
                        for i in order
                    ],
                }
            )
        return out

    @staticmethod
    def from_json(data: dict) -> "SdrRepresentation":
        """The lift of the file's base set at its order and form, accepted
        only when the file's blocks are exactly those of that lift."""
        base = SemialgebraicSet.from_json(data["base_set"])
        sdr = build_sdr(base, d=int(data["d"]), form=data["form"])
        if data["blocks"] != sdr.to_json()["blocks"]:
            raise PreconditionFailure(
                "blocks are the lift of base_set at order d",
                "entries differ from the rebuilt lift",
            )
        return sdr


def build_sdr(
    K: SemialgebraicSet,
    cert: Optional[ConvexityCertificate] = None,
    d: Optional[int] = None,
    form: str = "localizing",
) -> SdrRepresentation:
    """Assemble Omega from a certificate (d = max_j d_j, localizing blocks)
    or from an explicit override order d. Refuses without either: the lift
    only represents K when some convexity route is on record."""
    if cert is not None:
        if cert.status != "certified_numerically":
            raise PreconditionFailure(
                "certificate status certified_numerically", cert.status
            )
        order = cert.d if d is None else d
    elif d is not None:
        order = d
    else:
        raise PreconditionFailure(
            "convexity certificate or explicit order override",
            "pass cert= or d=",
        )
    half = K.half_degrees()
    if order < max([1] + half):
        raise PreconditionFailure("d >= max_j r_j", str(order))
    if form not in ("localizing", "scalar"):
        raise PreconditionFailure('form in {"localizing", "scalar"}', form)

    return SdrRepresentation(order, K, form, relaxation_blocks(K, order, form))


def sdr_support(
    sdr: SdrRepresentation,
    c: Sequence[float],
) -> Tuple[float, np.ndarray]:
    """min c'x over Omega; returns the value and the projected point."""
    c = np.asarray(c, dtype=float)
    if c.shape != (sdr.n,):
        raise PreconditionFailure("dim(c) = n", f"{c.shape}")
    objective = np.zeros(sdr.lift_dimension)
    objective[1 : sdr.n + 1] = c
    sol = moment_program(sdr.n, sdr.d, objective, sdr.blocks).solve()
    if not sol.is_optimal:
        raise RuntimeError(f"support solve failed: {sol.status.value}")
    return float(sol.value), np.array(sol.z[1 : sdr.n + 1])
