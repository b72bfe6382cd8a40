"""Dense primal-dual interior-point solver for block-diagonal SDPs.

Standard form:

    minimize    <C, X>
    subject to  <A_i, X> = b_i,   i = 1..p
                X >= 0  (blockwise PSD)

The dual is max b'lam s.t. C - sum_i lam_i A_i = Z >= 0. The solver is a
Mehrotra-style predictor-corrector on the central path of the homogeneous
self-dual embedding, with Nesterov-Todd scaling and a dense Schur
complement. It starts from a data-scaled identity point that is strictly
feasible for the embedding (not for the problem itself) and reports
primal/dual infeasibility through normalized improving rays instead of
exceptions. Deterministic: no randomness anywhere in the iteration.

`SdpProblem` stores the constraint matrices once, as one dense
(p, n_b, n_b) stack per block; the solver, the Schur complement and the
SDPA rendering all read those stacks. `SolverOptions` holds the two
target tolerances; every other setting of the iteration is a module
constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .poly import PreconditionFailure

SYMMETRY_TOL = 1e-12
# symmetry tolerance of the eigenvalue utilities' inputs
EIG_SYMMETRY_TOL = 1e-9
BLOCK_CAP = 512
MAX_ITERATIONS = 200
# fraction of the largest feasible step that is taken
STEP_FRACTION = 0.98
INFEAS_RAY_TOL = 1e-8
# fallback tolerances when the iteration stalls before the target accuracy
# (strict complementarity failures cap the attainable precision); a
# stall-accepted solution is OPTIMAL with a message
STALL_FEAS_TOL = 2e-6
STALL_GAP_TOL = 2e-6
# iterations without a 10% better residual score before the loop stops
STALL_WINDOW = 8
# times a step is halved when its end point cannot be factored
STEP_HALVINGS = 20


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


def _as_sym(M: np.ndarray, what: str, tol: float = SYMMETRY_TOL) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise PreconditionFailure("square matrix", f"{what}: shape {M.shape}")
    skew = np.max(np.abs(M - M.T)) if M.size else 0.0
    scale = max(1.0, float(np.max(np.abs(M))) if M.size else 0.0)
    if skew > tol * scale:
        raise PreconditionFailure(
            "coefficient matrices symmetric", f"{what}: skew {skew:.3e}"
        )
    return 0.5 * (M + M.T)


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal standard-form SDP data, each coefficient stored once.

    `C` is one symmetric (n_b, n_b) matrix per block. `A` is one
    C-contiguous (p, n_b, n_b) stack per block, so that `A[k][i]` is the
    matrix of constraint i in block k, and `b` is the (p,) right-hand side.
    """

    block_dims: Tuple[int, ...]
    C: Tuple[np.ndarray, ...]
    A: Tuple[np.ndarray, ...]
    b: np.ndarray

    @staticmethod
    def make(
        block_dims: Sequence[int],
        C: Sequence[np.ndarray],
        A: Sequence[np.ndarray],
        b: Sequence[float],
    ) -> "SdpProblem":
        dims = tuple(int(d) for d in block_dims)
        if any(d < 1 for d in dims):
            raise PreconditionFailure("block dims >= 1", str(dims))
        if any(d > BLOCK_CAP for d in dims):
            raise PreconditionFailure(
                "block dimension within cap", f"{max(dims)} > {BLOCK_CAP}"
            )
        if len(C) != len(dims):
            raise PreconditionFailure("one objective matrix per block")
        Cs = []
        for k, (M, d) in enumerate(zip(C, dims)):
            M = _as_sym(M, f"C[{k}]")
            if M.shape != (d, d):
                raise PreconditionFailure(
                    "objective block dims consistent", f"C[{k}]: {M.shape}"
                )
            Cs.append(M)
        b = np.array(b, dtype=float)
        if b.ndim != 1:
            raise PreconditionFailure("right-hand side a vector", f"b: {b.shape}")
        if len(A) != len(dims):
            raise PreconditionFailure("one coefficient stack per block")
        stacks = [np.asarray(Ab, dtype=float) for Ab in A]
        skewed = []
        for k, (Ab, d) in enumerate(zip(stacks, dims)):
            if Ab.shape != (len(b), d, d):
                raise PreconditionFailure(
                    "constraint block dims consistent", f"A[:][{k}]: {Ab.shape}"
                )
            # each matrix against its own scale, as _as_sym does
            skew = np.abs(Ab - Ab.transpose(0, 2, 1)).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(Ab).max(axis=(1, 2)))
            bad = np.flatnonzero(skew > SYMMETRY_TOL * scale)
            skewed += [(int(i), k, float(skew[i])) for i in bad]
        if skewed:
            i, k, skew = min(skewed)
            raise PreconditionFailure(
                "coefficient matrices symmetric", f"A[{i}][{k}]: skew {skew:.3e}"
            )
        A = tuple(
            np.ascontiguousarray(0.5 * (Ab + Ab.transpose(0, 2, 1))) for Ab in stacks
        )
        return SdpProblem(dims, tuple(Cs), A, b)

    @property
    def num_constraints(self) -> int:
        return len(self.b)

    @property
    def constraints(self) -> Tuple[Tuple[Tuple[np.ndarray, ...], float], ...]:
        """(per-block matrices, b_i) of each constraint, as views of the
        stacks. Kept only for the benchmark's layer trace, which reads it
        until solves carry their own trace (ROADMAP direction 5)."""
        return tuple(
            (tuple(Ab[i] for Ab in self.A), float(bi))
            for i, bi in enumerate(self.b)
        )

    def dump_sdpa(self) -> str:
        """Sparse SDPA rendering: one line per nonzero upper-triangle entry,
        "constraint block row col value" (constraint 0 is the objective),
        ordered by constraint, block, row and column.

        Convention: the emitted file encodes max <F0,Y> s.t. <Fi,Y>=c_i,
        Y >= 0 with F0 = -C, Fi = A_i, c = b, i.e. this problem's exact
        negated-objective image in SDPA's dual slot.
        """
        head = [
            str(self.num_constraints),
            str(len(self.block_dims)),
            " ".join(str(d) for d in self.block_dims),
            " ".join(repr(bi) for bi in self.b.tolist()),
        ]
        entries = []
        for blk, (Cb, Ab) in enumerate(zip(self.C, self.A), start=1):
            r, c = np.triu_indices(Cb.shape[0])
            vals = np.vstack([-Cb[r, c], Ab[:, r, c]])  # row 0: objective
            idx, t = np.nonzero(vals)
            blks = np.full(len(idx), blk)
            entries.append((idx, blks, r[t] + 1, c[t] + 1, vals[idx, t]))
        cols = [np.concatenate(col) for col in zip(*entries)]
        order = np.argsort(cols[0], kind="stable")  # blocks stay in order
        body = zip(*(col[order].tolist() for col in cols))
        lines = head + [f"{i} {blk} {r} {c} {v!r}" for i, blk, r, c, v in body]
        return "\n".join(lines) + "\n"


@dataclass
class SolverOptions:
    # primal feasibility is reduced together with the gap, so it is asked
    # one decade below gap_tol to leave A X = b accurate at the optimum
    feas_tol: float = 1e-9
    gap_tol: float = 1e-8


@dataclass
class SdpSolution:
    status: SdpStatus
    X: Optional[List[np.ndarray]]
    dual: Optional[np.ndarray]
    Z: Optional[List[np.ndarray]]
    primal_value: float
    dual_value: float
    gap: float
    iterations: int
    residuals: Dict[str, float] = field(default_factory=dict)
    # normalized improving ray backing an infeasible/unbounded verdict
    ray_dual: Optional[Tuple[np.ndarray, List[np.ndarray]]] = None
    ray_primal: Optional[List[np.ndarray]] = None
    message: str = ""
    # "target", or "stall_band" when accepted inside the stall tolerances
    accuracy: str = "target"

    @property
    def is_optimal(self) -> bool:
        return self.status is SdpStatus.OPTIMAL


def min_eigenvalue(M: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    M = _as_sym(M, "min_eigenvalue input", tol=EIG_SYMMETRY_TOL)
    return float(np.linalg.eigvalsh(M)[0])


def numeric_rank(M: np.ndarray, tau: float = 1e-6) -> int:
    """Number of eigenvalues above tau * lambda_max for a PSD matrix."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0
    M = _as_sym(M, "numeric_rank input", tol=EIG_SYMMETRY_TOL)
    w = np.linalg.eigvalsh(M)
    lam_max = float(w[-1])
    norm = max(abs(float(w[0])), lam_max)
    if float(w[0]) < -1e-6 * max(norm, 1.0):
        raise PreconditionFailure(
            "matrix PSD within tolerance", f"min eig {w[0]:.3e}"
        )
    if lam_max <= 0.0:
        return 0
    return int(np.sum(w > tau * lam_max))


# ---- solver internals -----------------------------------------------------


def _chol(M: np.ndarray) -> Optional[np.ndarray]:
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        # tiny symmetric jitter for borderline rounding; an iterate that still
        # fails has left the cone through rounding, and the solver then
        # shortens the step to it
        n = M.shape[0]
        jitter = 1e-14 * max(1.0, float(np.trace(M)) / max(n, 1))
        try:
            return np.linalg.cholesky(M + jitter * np.eye(n))
        except np.linalg.LinAlgError:
            return None


def _max_step(L: np.ndarray, dM: np.ndarray) -> float:
    """Largest alpha with M + alpha*dM >= 0, given M = L L'."""
    n = L.shape[0]
    Linv_d = np.linalg.solve(L, dM)
    S = np.linalg.solve(L, Linv_d.T)
    w_min = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    if w_min >= -1e-14:
        return np.inf
    return 1.0 / (-w_min)


def _apply_A(A: Sequence[np.ndarray], X: List[np.ndarray]) -> np.ndarray:
    """(<A_i, X>)_i, summed over the blocks in block order."""
    out = np.zeros(len(A[0]))
    for Ab, Xb in zip(A, X):
        out += np.tensordot(Ab, Xb, axes=([1, 2], [0, 1]))
    return out


def _apply_At(A: Sequence[np.ndarray], lam: np.ndarray) -> List[np.ndarray]:
    """sum_i lam_i A_i, per block."""
    return [np.tensordot(lam, Ab, axes=(0, 0)) for Ab in A]


def _inner(Xs: List[np.ndarray], Ys: List[np.ndarray]) -> float:
    return float(sum(np.tensordot(X, Y, axes=([0, 1], [0, 1])) for X, Y in zip(Xs, Ys)))


def _chol_blocks(Ms: List[np.ndarray]) -> Optional[List[np.ndarray]]:
    """Cholesky factor of every block, or None if one fails."""
    Ls = []
    for M in Ms:
        L = _chol(M)
        if L is None:
            return None
        Ls.append(L)
    return Ls


def _nt_scale(
    X: List[np.ndarray],
    Z: List[np.ndarray],
    factors: Optional[Tuple[List[np.ndarray], List[np.ndarray]]] = None,
) -> Optional[Tuple[List[np.ndarray], ...]]:
    """Per-block Nesterov-Todd scaling data, or None on Cholesky failure.

    `factors`, the blocks' Cholesky factors of X and Z when the caller
    already has them, are used instead of factoring again.
    """
    Ls_x, Ls_z = factors or (_chol_blocks(X), _chol_blocks(Z))
    if Ls_x is None or Ls_z is None:
        return None
    Gs, Gis, sigmas, Ws = [], [], [], []
    for Lx, Lz in zip(Ls_x, Ls_z):
        _, sv, Vt = np.linalg.svd(Lz.T @ Lx)
        sv = np.maximum(sv, 1e-150)
        G = Lx @ Vt.T / np.sqrt(sv)
        Gi = (np.sqrt(sv)[:, None] * Vt) @ np.linalg.inv(Lx)
        Gs.append(G)
        Gis.append(Gi)
        sigmas.append(sv)
        Ws.append(G @ G.T)
    return Ls_x, Ls_z, Gs, Gis, sigmas, Ws


def _corrector_rhs(
    Gs: List[np.ndarray],
    Gis: List[np.ndarray],
    sigmas: List[np.ndarray],
    dX: List[np.ndarray],
    dZ: List[np.ndarray],
    target: float,
) -> List[np.ndarray]:
    """Mehrotra corrector right-hand side, built in the scaled space."""
    Rc = []
    for G, Gi, sv, dXb, dZb in zip(Gs, Gis, sigmas, dX, dZ):
        dXh = Gi @ dXb @ Gi.T
        dZh = G.T @ dZb @ G
        cross = dXh @ dZh
        cross = 0.5 * (cross + cross.T)
        rhs_hat = -cross
        rhs_hat[np.diag_indices_from(rhs_hat)] += target - sv ** 2
        omega = 2.0 / np.add.outer(sv, sv)
        Rc.append(G @ (rhs_hat * omega) @ G.T)
    return Rc


def _schur_matrix(A: Sequence[np.ndarray], Ws: List[np.ndarray]) -> np.ndarray:
    """M_ij = sum over blocks of tr(A_i W A_j W)."""
    p = len(A[0])
    M = np.zeros((p, p))
    for Ab, W in zip(A, Ws):
        TW = np.einsum("ij,kjl,lm->kim", W, Ab, W, optimize=True)
        M += np.tensordot(TW, Ab, axes=([1, 2], [1, 2]))
    return 0.5 * (M + M.T)


def _schur_solver(M: np.ndarray, p: int):
    """Factorized solver for the Schur system, with iterative refinement.

    Refinement keeps directions accurate when M is nearly singular close
    to the boundary; falls back to least squares if the factorization
    fails outright.
    """
    fac = (
        _chol(M + 1e-13 * max(1.0, float(np.trace(M)) / p) * np.eye(p)) if p else None
    )

    def solve_one(rhs: np.ndarray) -> Optional[np.ndarray]:
        if not p:
            return np.zeros(0)
        if fac is not None:
            sol = np.linalg.solve(fac.T, np.linalg.solve(fac, rhs))
            scale = float(np.linalg.norm(rhs)) + 1e-300
            res_norm = np.inf
            for _ in range(4):
                r = rhs - M @ sol
                rn = float(np.linalg.norm(r))
                if rn <= 1e-14 * scale or rn >= res_norm:
                    break
                res_norm = rn
                sol = sol + np.linalg.solve(fac.T, np.linalg.solve(fac, r))
            return sol
        try:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None

    return solve_one


def _accept_stalled(
    stall_best: Optional[dict],
    status: SdpStatus,
    message: str,
    iterations: int,
) -> Optional[SdpSolution]:
    """Best stalled iterate as OPTIMAL if it meets the fallback band.

    `iterations` is the number of iterations run, which exceeds the index
    of the accepted iterate when the loop went on past it.
    """
    if stall_best is None:
        return None
    res = stall_best["residuals"]
    if not (
        res["primal"] <= STALL_FEAS_TOL
        and res["dual"] <= STALL_FEAS_TOL
        and res["gap"] <= STALL_GAP_TOL
    ):
        return None
    # stalled short of the target tolerances but within the declared
    # fallback band: report optimal at reduced accuracy
    return SdpSolution(
        status=SdpStatus.OPTIMAL,
        X=stall_best["X"],
        dual=stall_best["lam"],
        Z=stall_best["Z"],
        primal_value=stall_best["pobj"],
        dual_value=stall_best["dobj"],
        gap=abs(stall_best["pobj"] - stall_best["dobj"])
        / (1.0 + abs(stall_best["pobj"])),
        iterations=iterations,
        residuals=res,
        message=(
            f"stalled near optimum ({message or status.value}); "
            f"accepted at feas {max(res['primal'], res['dual']):.1e}, "
            f"gap {res['gap']:.1e}"
        ),
        accuracy="stall_band",
    )


def solve(problem: SdpProblem, options: Optional[SolverOptions] = None) -> SdpSolution:
    """Run the interior-point method on a standard-form problem.

    The method is path-following on the homogeneous self-dual embedding.
    Every iterate is strictly feasible for the embedding, so a degenerate
    optimal face of the original problem never forces vanishing steps; the
    embedding's tau variable separates optimality (tau bounded away from
    zero) from infeasibility (tau -> 0 with kappa > 0) without guesswork.
    The start point is pinned to the data-scaled identity because the
    central-path limit on a non-unique optimal face is determined by it;
    keeping it canonical makes solutions reproducible.

    Near the optimum, rounding in the elimination of dtau can push the end
    of a step out of the cone. A step whose end point is not finite or
    cannot be Cholesky-factored is halved, up to STEP_HALVINGS times; the
    factors of the accepted point are reused by the next scaling.
    """
    opts = options or SolverOptions()
    A, b, C = problem.A, problem.b, problem.C
    p, dims = problem.num_constraints, problem.block_dims
    norm_b = max(1.0, float(np.max(np.abs(b))) if p else 0.0)
    norm_C = max(1.0, max(float(np.max(np.abs(Cb))) for Cb in C))

    eta = 1.0
    if p:
        eta = max(
            1.0,
            max(
                float(np.sqrt(sum(float(np.sum(Ab[i] ** 2)) for Ab in A)))
                for i in range(p)
            ),
        )
    X = [np.eye(d) for d in dims]
    S = [eta * np.eye(d) for d in dims]
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nu = sum(dims) + 1.0
    # Cholesky factors of (X, S), carried over from the accepted step
    factors = None

    best: Optional[SdpSolution] = None
    status = SdpStatus.MAX_ITERATIONS
    message = ""
    # iterations run: Newton systems formed, whether or not a step follows
    iterations = 0
    stall_best: Optional[dict] = None
    stall_score = np.inf
    since_improved = 0

    for _ in range(MAX_ITERATIONS):
        rp = b * tau - _apply_A(A, X)
        Aty = _apply_At(A, y)
        Rd = [Cb * tau - Ab - Sb for Cb, Ab, Sb in zip(C, Aty, S)]
        cx = _inner(C, X)
        by = float(b @ y)
        rg = kappa + cx - by
        mu = (_inner(X, S) + tau * kappa) / nu

        # convergence is judged on the de-embedded iterate (X, y, S) / tau
        pobj = cx / tau
        dobj = by / tau
        denom = 1.0 + abs(pobj) + abs(dobj)
        err_p = float(np.max(np.abs(rp))) / (tau * norm_b) if p else 0.0
        err_d = max(float(np.max(np.abs(R))) for R in Rd) / (tau * norm_C)
        err_gap = abs(pobj - dobj) / denom
        err_comp = _inner(X, S) / (tau * tau) / denom

        if not (np.isfinite(pobj) and np.isfinite(dobj) and np.isfinite(mu)):
            status, message = SdpStatus.NUMERICAL_FAILURE, "nonfinite iterate"
            break

        score = max(err_p, err_d, err_gap, 0.1 * err_comp)
        if np.isfinite(score) and score < 0.9 * stall_score:
            stall_score = score
            since_improved = 0
            stall_best = {
                "X": [Xb / tau for Xb in X],
                "Z": [Sb / tau for Sb in S],
                "lam": y / tau,
                "pobj": pobj,
                "dobj": dobj,
                "residuals": {
                    "primal": err_p,
                    "dual": err_d,
                    "gap": err_gap,
                    "complementarity": err_comp,
                },
            }
        else:
            since_improved += 1
            if since_improved >= STALL_WINDOW:
                status = SdpStatus.MAX_ITERATIONS
                message = "no progress"
                break

        if (
            err_p <= opts.feas_tol
            and err_d <= opts.feas_tol
            and err_gap <= opts.gap_tol
            and err_comp <= 10 * opts.gap_tol
        ):
            status = SdpStatus.OPTIMAL
            best = SdpSolution(
                status=status,
                X=[Xb / tau for Xb in X],
                dual=y / tau,
                Z=[Sb / tau for Sb in S],
                primal_value=pobj,
                dual_value=dobj,
                gap=abs(pobj - dobj) / (1.0 + abs(pobj)),
                iterations=iterations,
                residuals={
                    "primal": err_p,
                    "dual": err_d,
                    "gap": err_gap,
                    "complementarity": err_comp,
                },
            )
            break

        # improving-ray tests on the homogeneous iterate (scale invariant)
        if by > 0.0 and p:
            ray_res = max(
                float(np.max(np.abs(Ab + Sb))) for Ab, Sb in zip(Aty, S)
            )
            if ray_res <= INFEAS_RAY_TOL * by:
                status = SdpStatus.INFEASIBLE
                message = "dual improving ray found"
                best = SdpSolution(
                    status=status,
                    X=None,
                    dual=None,
                    Z=None,
                    primal_value=np.inf,
                    dual_value=np.inf,
                    gap=np.inf,
                    iterations=iterations,
                    ray_dual=(y / by, [Sb / by for Sb in S]),
                    message=message,
                )
                break
        ctx = -cx
        if ctx > 0.0:
            ray_res = float(np.max(np.abs(_apply_A(A, X)))) if p else 0.0
            if ray_res <= INFEAS_RAY_TOL * ctx:
                status = SdpStatus.UNBOUNDED
                message = "primal improving ray found"
                best = SdpSolution(
                    status=status,
                    X=None,
                    dual=None,
                    Z=None,
                    primal_value=-np.inf,
                    dual_value=-np.inf,
                    gap=np.inf,
                    iterations=iterations,
                    ray_primal=[Xb / ctx for Xb in X],
                    message=message,
                )
                break
        if tau < 1e-12 * max(1.0, kappa):
            status = SdpStatus.NUMERICAL_FAILURE
            message = "embedding collapsed without a clean certificate"
            break

        nt = _nt_scale(X, S, factors)
        iterations += 1
        if nt is None:
            status, message = SdpStatus.NUMERICAL_FAILURE, "Cholesky breakdown"
            break
        Ls_x, Ls_s, Gs, Gis, sigmas, Ws = nt

        msolve = _schur_solver(_schur_matrix(A, Ws), p)

        WCW = [W @ Cb @ W for W, Cb in zip(Ws, C)]
        u = _apply_A(A, WCW)
        q = _inner(C, WCW)
        v_rhs = b + u
        Mi_v = msolve(v_rhs)
        WRdW = [W @ R @ W for W, R in zip(Ws, Rd)]
        A_WRdW = _apply_A(A, WRdW)
        C_WRdW = _inner(C, WRdW)
        diff = u - b

        def direction(sigma: float, Rc: List[np.ndarray], r5: float):
            """Solve the embedding's Newton system by eliminating dS, dX,
            dkappa and bordering the Schur system with the dtau column."""
            one_m = 1.0 - sigma
            r1 = -_apply_A(A, Rc) + one_m * (A_WRdW + rp)
            r2 = (
                (sigma - 1.0) * rg
                - _inner(C, Rc)
                + one_m * C_WRdW
                - r5 / tau
            )
            Mi_r1 = msolve(r1)
            if Mi_v is None or Mi_r1 is None:
                return None
            den = float(diff @ Mi_v) - q - kappa / tau
            dtau = (r2 - float(diff @ Mi_r1)) / den
            dy = dtau * Mi_v + Mi_r1
            Atdy = _apply_At(A, dy)
            dS = [
                Cb * dtau - Ab + one_m * R
                for Cb, Ab, R in zip(C, Atdy, Rd)
            ]
            dX = [Rcb - W @ dSb @ W for Rcb, W, dSb in zip(Rc, Ws, dS)]
            # rounding in W dS W leaves dX slightly skew; X stays symmetric
            dX = [0.5 * (dXb + dXb.T) for dXb in dX]
            dkappa = (r5 - kappa * dtau) / tau
            return dX, dy, dS, dtau, dkappa

        def max_step(dX, dS, dtau, dkappa) -> float:
            a = np.inf
            for L, dM in zip(Ls_x, dX):
                a = min(a, _max_step(L, dM))
            for L, dM in zip(Ls_s, dS):
                a = min(a, _max_step(L, dM))
            if dtau < 0.0:
                a = min(a, -tau / dtau)
            if dkappa < 0.0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor: sigma = 0
        aff = direction(0.0, [-Xb for Xb in X], -tau * kappa)
        if aff is None:
            status, message = SdpStatus.NUMERICAL_FAILURE, "Schur solve failed"
            break
        dX_a, dy_a, dS_a, dtau_a, dkap_a = aff
        a_aff = min(1.0, max_step(dX_a, dS_a, dtau_a, dkap_a))
        mu_aff = (
            _inner(
                [Xb + a_aff * dXb for Xb, dXb in zip(X, dX_a)],
                [Sb + a_aff * dSb for Sb, dSb in zip(S, dS_a)],
            )
            + (tau + a_aff * dtau_a) * (kappa + a_aff * dkap_a)
        ) / nu
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 1.0))

        # corrector; the tau-kappa row gets its own second-order term
        Rc = _corrector_rhs(Gs, Gis, sigmas, dX_a, dS_a, sigma * mu)
        r5 = sigma * mu - tau * kappa - dtau_a * dkap_a
        step = direction(sigma, Rc, r5)
        if step is None:
            status, message = SdpStatus.NUMERICAL_FAILURE, "Schur solve failed"
            break
        dX, dy, dS, dtau, dkappa = step

        # one step length for the whole embedding keeps it self-dual; it is
        # halved while its end point is not finite or cannot be factored
        a = min(1.0, STEP_FRACTION * max_step(dX, dS, dtau, dkappa))
        for _ in range(STEP_HALVINGS + 1):
            X_t = [Xb + a * dXb for Xb, dXb in zip(X, dX)]
            S_t = [Sb + a * dSb for Sb, dSb in zip(S, dS)]
            y_t = y + a * dy
            tau_t, kappa_t = tau + a * dtau, kappa + a * dkappa
            finite = all(
                np.isfinite(M).all()
                for M in [*X_t, *S_t, y_t, np.array([tau_t, kappa_t])]
            )
            Ls_x = _chol_blocks(X_t) if finite else None
            Ls_s = _chol_blocks(S_t) if Ls_x is not None else None
            if Ls_s is not None:
                break
            a *= 0.5
        else:
            status = SdpStatus.NUMERICAL_FAILURE
            message = "Cholesky breakdown" if finite else "nonfinite iterate"
            break
        X, S, y, tau, kappa = X_t, S_t, y_t, tau_t, kappa_t
        factors = (Ls_x, Ls_s)

    if best is None:
        best = _accept_stalled(stall_best, status, message, iterations)

    if best is None:
        cx = _inner(C, X)
        by = float(b @ y)
        pobj, dobj = cx / tau, by / tau
        rp = b * tau - _apply_A(A, X)
        Rd = [
            Cb * tau - Ab - Sb
            for Cb, Ab, Sb in zip(C, _apply_At(A, y), S)
        ]
        best = SdpSolution(
            status=status,
            X=[Xb / tau for Xb in X],
            dual=y / tau,
            Z=[Sb / tau for Sb in S],
            primal_value=pobj,
            dual_value=dobj,
            gap=abs(pobj - dobj) / (1.0 + abs(pobj)),
            iterations=iterations,
            residuals={
                "primal": float(np.max(np.abs(rp))) / (tau * norm_b)
                if p
                else 0.0,
                "dual": max(float(np.max(np.abs(R))) for R in Rd)
                / (tau * norm_C),
            },
            message=message or "iteration limit reached",
        )
    return best
