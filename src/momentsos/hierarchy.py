"""Moment relaxation hierarchy for polynomial optimization.

Q_r relaxes min f over K = {g_j >= 0} to min L_y(f) over pseudo-moments y
with M_r(y) >= 0 and M_{r-r_j}(g_j y) >= 0, r_j = ceil(deg g_j / 2). Its
dual searches Putinar representations f - lambda = sigma_0 + sum sigma_j g_j,
read off a solve by `MomentSdp.certificate` as a GramIdentity with bound
lambda* (each block's Gram matrix over the basis and weight the block was
built from) and attached to the result only when it passes the identity's
acceptance rule.
The simplified relaxation Q-hat keeps a single moment matrix at the minimal
order d and replaces each localizing block by the scalar row L_y(g_j) >= 0;
its dual multipliers are nonnegative scalars. Q-hat is exact for SOS-convex
data, which solve_hierarchy detects and reports as a single-shot stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ._compile import (
    MomentSdp,
    MomentSolution,
    coefficient_row,
    moment_program,
    relaxation_blocks,
)
# moment_matrix is unused here but kept: the layer trace in perfbench patches
# it by name in this module
from .moments import MomentVector, flatness, mean_point, moment_matrix
from .poly import Polynomial, PreconditionFailure, SemialgebraicSet
from .sdp import SolverOptions
from .sos import GramIdentity, is_sos_convex


@dataclass(frozen=True)
class PolyOptProblem:
    """min f(x) over x in K."""

    objective: Polynomial
    feasible_set: SemialgebraicSet

    def __post_init__(self):
        if self.objective.n != self.feasible_set.n:
            raise PreconditionFailure(
                "variable counts agree",
                f"f has {self.objective.n}, K has {self.feasible_set.n}",
            )

    @property
    def n(self) -> int:
        return self.objective.n

    def min_order(self) -> int:
        """Smallest admissible relaxation order."""
        r_obj = (self.objective.degree() + 1) // 2
        half = self.feasible_set.half_degrees()
        return max([r_obj, 1] + list(half))


@dataclass
class RelaxationResult:
    order: int
    lower_bound: float
    moments: Optional[MomentVector]
    dual_certificate: Optional[GramIdentity] = None
    exactness: str = "none"  # flat_rank | convex_mean_point | sos_convex_single_shot
    minimizer: Optional[np.ndarray] = None
    kind: str = "qr"  # "qhat" | "qr"
    status: str = "optimal"
    note: str = ""


def ball_augment(K: SemialgebraicSet, M: float) -> SemialgebraicSet:
    """Append the redundant ball constraint M^2 - ||X||^2 >= 0."""
    if not M > 0:
        raise PreconditionFailure("M > 0", str(M))
    exponents = np.vstack([np.zeros((1, K.n), dtype=int), 2 * np.eye(K.n, dtype=int)])
    g = Polynomial.from_arrays(K.n, exponents, np.r_[M * M, -np.ones(K.n)])
    return SemialgebraicSet(K.n, K.constraints + (g,), ball_bound=float(M))


def build_qr(problem: PolyOptProblem, r: int) -> MomentSdp:
    """Order-r moment relaxation: min L_y(f), M_r(y) >= 0,
    M_{r-r_j}(g_j y) >= 0, y_0 = 1."""
    f, K = problem.objective, problem.feasible_set
    half = list(K.half_degrees())
    if 2 * r < max([f.degree()] + [2 * rj for rj in half]):
        raise PreconditionFailure(
            "2r >= max(deg f, max_j 2 r_j)",
            f"r = {r}, deg f = {f.degree()}, r_j = {half}",
        )
    blocks = relaxation_blocks(K, r, "localizing")
    return moment_program(K.n, r, coefficient_row(K.n, r, f), blocks)


def build_qhat(problem: PolyOptProblem) -> MomentSdp:
    """Simplified convex relaxation: min L_y(f), M_d(y) >= 0,
    L_y(g_j) >= 0 as scalar rows, y_0 = 1; d is the minimal order."""
    f, K = problem.objective, problem.feasible_set
    d = problem.min_order()
    blocks = relaxation_blocks(K, d, "scalar")
    return moment_program(K.n, d, coefficient_row(K.n, d, f), blocks)


def lagrangian(
    f: Polynomial, lam: Sequence[float], fstar: float, K: SemialgebraicSet
) -> Polynomial:
    """L_f = f - fstar - sum_j lam_j g_j."""
    lam = [float(v) for v in lam]
    if len(lam) != len(K.constraints):
        raise PreconditionFailure(
            "dim(lambda) = m", f"{len(lam)} != {len(K.constraints)}"
        )
    if any(v < 0 for v in lam):
        raise PreconditionFailure("lambda >= 0", str(lam))
    acc = f - Polynomial.constant(f.n, fstar)
    for v, g in zip(lam, K.constraints):
        if v != 0.0:
            acc = acc - v * g
    return acc


def kkt_residuals(
    f: Polynomial,
    lam: Sequence[float],
    fstar: float,
    K: SemialgebraicSet,
    x_star: Sequence[float],
) -> Dict[str, object]:
    """Stationarity and complementarity of the Lagrangian at a candidate."""
    L = lagrangian(f, lam, fstar, K)
    x = np.asarray(x_star, dtype=float)
    grad = np.array([p.eval(x) for p in L.gradient()])
    comp = [float(v * g.eval(x)) for v, g in zip(lam, K.constraints)]
    return {
        "gradient_norm": float(np.linalg.norm(grad)),
        "complementarity": comp,
        "lagrangian_value": float(L.eval(x)),
    }


@dataclass
class HierarchyOptions:
    tol: float = 1e-6
    rank_tau: float = 1e-6
    archimedean_waiver: bool = False
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)


def _feasible_within(K: SemialgebraicSet, x: np.ndarray, tol: float) -> bool:
    return all(g.eval(x) >= -tol * (1.0 + g.l1_norm()) for g in K.constraints)


# points of the Hessian spot check behind the convex_mean_point tag
CONVEXITY_SAMPLES = 500


def _sampled_convexity(
    polys: Sequence[Polynomial], n: int, box: float, seed: int
) -> bool:
    """Min-eigenvalue spot check of every Hessian at CONVEXITY_SAMPLES points
    of a box; a failed point disproves convexity, success is only sampled
    evidence."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(CONVEXITY_SAMPLES, n))
    for p in polys:
        H = p.hessian_at(pts)
        scale = 1.0 + np.abs(H).max(axis=(1, 2))
        low = np.linalg.eigvalsh(0.5 * (H + H.transpose(0, 2, 1)))[:, 0]
        if np.any(low < -1e-7 * scale):
            return False
    return True


def _attach_minimizer(
    result: RelaxationResult,
    problem: PolyOptProblem,
    x: np.ndarray,
    tag: str,
    tol: float,
) -> bool:
    """Mean-point candidate gatekeeping: the exactness tag is only granted
    when the candidate is feasible and matches the bound."""
    f = problem.objective
    if not _feasible_within(problem.feasible_set, x, 10.0 * tol):
        result.note = (result.note + " mean point infeasible;").strip()
        return False
    fx = f.eval(x)
    if fx > result.lower_bound + tol * (1.0 + abs(result.lower_bound)):
        result.note = (
            result.note + f" mean point value {fx:.6g} above bound;"
        ).strip()
        return False
    result.exactness = tag
    result.minimizer = x
    return True


def _attach_certificate(
    result: RelaxationResult,
    program: MomentSdp,
    problem: PolyOptProblem,
    solution: MomentSolution,
) -> None:
    """Attach the Putinar certificate of the program's solve when it passes
    the acceptance rule; otherwise note why and leave it unset."""
    cert = program.certificate(problem.objective, solution)
    why = cert.rejection()
    if why is None:
        result.dual_certificate = cert
    else:
        result.note = (result.note + f" certificate rejected: {why};").strip()


def _stall_band(result: RelaxationResult, solution: MomentSolution) -> bool:
    """A solve accepted from the stall band grants no exactness tag; note it."""
    if solution.sdp_solution.accuracy != "stall_band":
        return False
    result.note = (result.note + " stall-band solve, no exactness test;").strip()
    return True


def solve_hierarchy(
    problem: PolyOptProblem,
    r_max: int = 5,
    options: Optional[HierarchyOptions] = None,
) -> List[RelaxationResult]:
    """Q-hat first, then Q_r for r = r_min..r_max.

    Stops at Q-hat with exactness = sos_convex_single_shot when f and every
    -g_j carry SOS-convexity certificates (single-shot exactness; the
    minimizer is the mean point). Otherwise ascends r, applying in order the
    flatness test and the sampled-convexity mean-point test, stopping when
    one fires. Solver failures are recorded per order and the loop continues;
    a solve accepted from the stall band gets a note and no exactness test.
    """
    opts = options if options is not None else HierarchyOptions()
    K = problem.feasible_set
    if K.ball_bound is None and not opts.archimedean_waiver:
        raise PreconditionFailure(
            "Archimedean ball bound recorded or waiver set",
            "pass a SemialgebraicSet with ball_bound, apply ball_augment, "
            "or set archimedean_waiver",
        )
    results: List[RelaxationResult] = []

    qhat = build_qhat(problem)
    sol = qhat.solve(opts.solver)
    res = RelaxationResult(
        order=qhat.order,
        lower_bound=sol.value,
        moments=qhat.moment_vector(sol) if sol.is_optimal else None,
        kind="qhat",
        status=sol.status.value,
    )
    results.append(res)
    if sol.is_optimal:
        _attach_certificate(res, qhat, problem, sol)
        if not _stall_band(res, sol):
            conv_all = is_sos_convex(problem.objective).is_sos_convex and all(
                is_sos_convex(-1.0 * g).is_sos_convex for g in K.constraints
            )
            if conv_all and _attach_minimizer(
                res, problem, mean_point(res.moments), "sos_convex_single_shot",
                opts.tol,
            ):
                return results

    box = K.ball_bound if K.ball_bound is not None else 2.0
    convex_by_sampling = _sampled_convexity(
        [problem.objective] + [-1.0 * g for g in K.constraints],
        K.n,
        box,
        opts.seed,
    )

    prev_bound = None
    for r in range(problem.min_order(), r_max + 1):
        qr = build_qr(problem, r)
        sol = qr.solve(opts.solver)
        res = RelaxationResult(
            order=r,
            lower_bound=sol.value,
            moments=qr.moment_vector(sol) if sol.is_optimal else None,
            kind="qr",
            status=sol.status.value,
        )
        results.append(res)
        if not sol.is_optimal:
            continue
        if prev_bound is not None and res.lower_bound < prev_bound - 1e-7:
            res.note = (
                res.note
                + f" monotonicity violation vs previous bound {prev_bound!r};"
            ).strip()
        prev_bound = (
            res.lower_bound
            if prev_bound is None
            else max(prev_bound, res.lower_bound)
        )
        _attach_certificate(res, qr, problem, sol)
        if _stall_band(res, sol):
            continue

        x_candidate = mean_point(res.moments)
        flat = flatness(res.moments, r, opts.rank_tau)
        if flat.flat:
            if _attach_minimizer(res, problem, x_candidate, "flat_rank", opts.tol):
                break
        elif flat.caveat:
            res.note = (
                res.note
                + f" flatness inconclusive (interior-point ranks "
                + f"{flat.rank_dm1}/{flat.rank_d});"
            ).strip()
        if res.exactness == "none" and convex_by_sampling:
            if _attach_minimizer(
                res, problem, x_candidate, "convex_mean_point", opts.tol
            ):
                break
    return results
