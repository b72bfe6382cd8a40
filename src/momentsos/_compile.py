"""Compiler from moment-form programs to standard-form SDPs.

A moment-form program is

    minimize    c'z
    subject to  E z = e                      (equality rows)
                S_B(z) = sum_a z_a T_B[:,:,a] >= 0   per block B,

with z the dense vector of pseudo-moments. Equalities are eliminated by an
SVD null-space parametrization z = z_part + N u, giving an LMI in u whose
standard-form image is solved by `sdp.solve`; the solver's dual vector
recovers u (hence z) and its primal blocks are exactly the Gram matrices of
the dual certificate. Blocks may carry a deflation map P (facial reduction)
when equality rows force a known kernel; Gram matrices are re-inflated as
P G P' on decode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .poly import Monomial, Polynomial, PreconditionFailure, monomial_basis
from .moments import MomentVector, _basis_and_index
from .sdp import SdpProblem, SdpSolution, SdpStatus, SolverOptions, solve


@dataclass
class BlockSpec:
    """One PSD block S_B(z) = T @ z with an optional deflation map."""

    label: str
    T: np.ndarray  # (dim, dim, s)
    P: Optional[np.ndarray] = None  # (dim, dim_reduced), orthonormal columns

    @property
    def dim(self) -> int:
        return self.T.shape[0]

    @property
    def reduced_dim(self) -> int:
        return self.dim if self.P is None else self.P.shape[1]

    def reduced_tensor(self) -> np.ndarray:
        if self.P is None:
            return self.T
        return np.einsum("ai,abz,bj->ijz", self.P, self.T, self.P, optimize=True)


class MomentStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    MAX_ITERATIONS = "max_iterations"
    NUMERICAL_FAILURE = "numerical_failure"


# solver statuses live on the compiled side, where the moment program is the
# dual: a compiled-primal improving ray kills the moment program's
# feasibility, a compiled-dual ray makes it unbounded
_STATUS_MAP = {
    SdpStatus.OPTIMAL: MomentStatus.OPTIMAL,
    SdpStatus.INFEASIBLE: MomentStatus.UNBOUNDED,
    SdpStatus.UNBOUNDED: MomentStatus.INFEASIBLE,
    SdpStatus.MAX_ITERATIONS: MomentStatus.MAX_ITERATIONS,
    SdpStatus.NUMERICAL_FAILURE: MomentStatus.NUMERICAL_FAILURE,
}


@dataclass
class MomentSolution:
    status: MomentStatus
    value: float
    z: Optional[np.ndarray]
    gram_blocks: Optional[List[np.ndarray]]  # full (un-deflated) sizes
    eq_multipliers: Optional[np.ndarray]
    stationarity_residual: float
    sdp_solution: SdpSolution
    block_labels: List[str] = field(default_factory=list)

    @property
    def is_optimal(self) -> bool:
        return self.status is MomentStatus.OPTIMAL


@dataclass
class MomentSdp:
    """Moment-form SDP over a dense moment coordinate vector z."""

    n: int  # ambient variable count of the monomials indexing z
    order: int  # z covers N^n_{2*order}
    objective: np.ndarray  # c, length s(2*order)
    blocks: List[BlockSpec]
    eq_rows: np.ndarray  # (q, s)
    eq_rhs: np.ndarray  # (q,)

    @property
    def num_moments(self) -> int:
        return int(self.objective.shape[0])

    @property
    def num_equalities(self) -> int:
        return int(self.eq_rows.shape[0])

    def block_dims(self) -> List[int]:
        return [B.dim for B in self.blocks]

    # ---- compilation ------------------------------------------------------

    def _eliminate(self) -> Tuple[np.ndarray, np.ndarray]:
        """Solve E z = e: returns (z_part, N) with N an orthonormal basis of
        the null space. Raises on inconsistent rows."""
        E, e = self.eq_rows, self.eq_rhs
        s = self.num_moments
        if E.shape[0] == 0:
            return np.zeros(s), np.eye(s)
        U, sv, Vt = np.linalg.svd(E, full_matrices=True)
        tol = max(E.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
        rank = int(np.sum(sv > tol))
        z_part = Vt[:rank].T @ ((U.T @ e)[:rank] / sv[:rank])
        if float(np.max(np.abs(E @ z_part - e))) > 1e-9 * max(
            1.0, float(np.max(np.abs(e)))
        ):
            raise PreconditionFailure(
                "equality rows consistent", "no solution to E z = e"
            )
        N = Vt[rank:].T
        return z_part, N

    def to_sdp(self) -> Tuple[SdpProblem, dict]:
        """Standard-form problem whose dual is this moment program.

        Returns the problem and the decode map {z_part, N, ...}.
        """
        z_part, N = self._eliminate()
        p = N.shape[1]
        c_red = N.T @ self.objective
        Cs, As = [], [[] for _ in range(p)]
        for B in self.blocks:
            T = B.reduced_tensor()
            Cs.append(np.tensordot(T, z_part, axes=(2, 0)))
            F = np.tensordot(T, N, axes=(2, 0))  # (dim, dim, p)
            for k in range(p):
                As[k].append(-F[:, :, k])
        constraints = [(tuple(As[k]), -float(c_red[k])) for k in range(p)]
        problem = SdpProblem.make(
            [B.reduced_dim for B in self.blocks], Cs, constraints
        )
        return problem, {"z_part": z_part, "N": N}

    # ---- solving ------------------------------------------------------------

    def solve(self, options: Optional[SolverOptions] = None) -> MomentSolution:
        problem, decode = self.to_sdp()
        sol = solve(problem, options)
        status = _STATUS_MAP[sol.status]
        if sol.status is not SdpStatus.OPTIMAL:
            value = {
                MomentStatus.INFEASIBLE: np.inf,
                MomentStatus.UNBOUNDED: -np.inf,
            }.get(status, np.nan)
            return MomentSolution(
                status=status,
                value=value,
                z=None,
                gram_blocks=None,
                eq_multipliers=None,
                stationarity_residual=np.nan,
                sdp_solution=sol,
                block_labels=[B.label for B in self.blocks],
            )

        z = decode["z_part"] + decode["N"] @ sol.dual
        value = float(self.objective @ z)

        grams = []
        for B, Xb in zip(self.blocks, sol.X):
            G = Xb if B.P is None else B.P @ Xb @ B.P.T
            grams.append(0.5 * (G + G.T))

        # stationarity in coefficient space: c = A*(S) + E' mu
        adj = np.zeros(self.num_moments)
        for B, G in zip(self.blocks, grams):
            adj += np.tensordot(B.T, G, axes=([0, 1], [0, 1]))
        resid_vec = self.objective - adj
        if self.num_equalities:
            mu, *_ = np.linalg.lstsq(self.eq_rows.T, resid_vec, rcond=None)
            stat_res = float(np.max(np.abs(resid_vec - self.eq_rows.T @ mu)))
        else:
            mu = np.zeros(0)
            stat_res = float(np.max(np.abs(resid_vec)))

        return MomentSolution(
            status=status,
            value=value,
            z=z,
            gram_blocks=grams,
            eq_multipliers=mu,
            stationarity_residual=stat_res,
            sdp_solution=sol,
            block_labels=[B.label for B in self.blocks],
        )

    def moment_vector(
        self, solution: MomentSolution, provenance: str = "interior_point"
    ) -> MomentVector:
        if solution.z is None:
            raise PreconditionFailure("solution has moments")
        return MomentVector(self.n, self.order, solution.z, provenance=provenance)


# ---- builders --------------------------------------------------------------


def localizing_tensor(n: int, order: int, d: int, g: Polynomial) -> np.ndarray:
    """T with S(z)_{ab} = sum_gamma g_gamma z_{alpha_a + alpha_b + gamma},
    rows/cols over monomial_basis(n, d), z over monomial_basis(n, 2*order)."""
    if 2 * d + g.degree() > 2 * order:
        raise PreconditionFailure(
            "2d + deg g <= 2*order", f"{2 * d + g.degree()} > {2 * order}"
        )
    basis, _ = _basis_and_index(n, d)
    _, full_idx = _basis_and_index(n, 2 * order)
    s_d = len(basis)
    s = len(full_idx)
    T = np.zeros((s_d, s_d, s))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            for gamma, c in g.terms.items():
                key = tuple(x + y + w for x, y, w in zip(a, b, gamma))
                T[i, j, full_idx[key]] += c
    return T


def moment_tensor(n: int, order: int, d: int) -> np.ndarray:
    return localizing_tensor(n, order, d, Polynomial.constant(n, 1.0))


def scalar_row_tensor(n: int, order: int, g: Polynomial) -> np.ndarray:
    """1x1 block L_z(g) >= 0."""
    return localizing_tensor(n, order, 0, g)


def coefficient_row(n: int, order: int, p: Polynomial) -> np.ndarray:
    """Row vector r with r'z = L_z(p)."""
    _, full_idx = _basis_and_index(n, 2 * order)
    row = np.zeros(len(full_idx))
    for alpha, c in p.terms.items():
        if alpha not in full_idx:
            raise PreconditionFailure(
                "deg p <= 2*order", f"{alpha} outside N^{n}_{2 * order}"
            )
        row[full_idx[alpha]] += c
    return row


def y0_row(n: int, order: int) -> Tuple[np.ndarray, float]:
    _, full_idx = _basis_and_index(n, 2 * order)
    row = np.zeros(len(full_idx))
    row[0] = 1.0
    return row, 1.0


def equality_block_rows(
    n: int, order: int, d: int, g: Polynomial
) -> Tuple[np.ndarray, np.ndarray]:
    """Entrywise rows for M_d(g z) = 0, upper triangle: s(d)(s(d)+1)/2 rows."""
    basis, _ = _basis_and_index(n, d)
    _, full_idx = _basis_and_index(n, 2 * order)
    s_d = len(basis)
    rows = []
    for i in range(s_d):
        for j in range(i, s_d):
            row = np.zeros(len(full_idx))
            for gamma, c in g.terms.items():
                key = tuple(
                    x + y + w for x, y, w in zip(basis[i], basis[j], gamma)
                )
                row[full_idx[key]] += c
            rows.append(row)
    return np.array(rows), np.zeros(len(rows))


def kernel_deflation(
    n: int,
    block_order: int,
    block_weight_degree: int,
    ideal_generator: Polynomial,
    equality_budget: int,
) -> Optional[np.ndarray]:
    """Orthonormal deflation map P for a PSD block whose kernel is forced.

    If equality rows impose L_z(h q) = 0 for every q with
    deg q <= equality_budget (h = ideal_generator), then every block of row
    order D and weight degree w has the forced kernel
    {coeffs of h p : deg(h p) <= D, w + D + deg p <= equality_budget};
    under that degree bound every entry of S_B(z) K already lies in the
    equality row space, so P' S_B P >= 0 is an exact reformulation.
    Returns P with P'P = I spanning the orthogonal complement, or None when
    no kernel is forced.
    """
    h = ideal_generator
    D = block_order
    max_p_deg = min(
        D - h.degree(),
        equality_budget - block_weight_degree - D,
    )
    if max_p_deg < 0:
        return None
    basis, idx = _basis_and_index(n, D)
    kernel = []
    for p_alpha in monomial_basis(n, max_p_deg):
        vec = np.zeros(len(basis))
        for gamma, c in h.terms.items():
            key = tuple(x + y for x, y in zip(p_alpha, gamma))
            vec[idx[key]] += c
        kernel.append(vec)
    K = np.array(kernel).T  # (dim, k)
    # orthonormal complement of span(K)
    U, sv, _ = np.linalg.svd(K, full_matrices=True)
    tol = max(K.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank == 0:
        return None
    return U[:, rank:]
