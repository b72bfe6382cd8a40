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

The builders at the end (block tensors, entrywise equality rows, coefficient
rows, deflation kernels) all scatter the one index pattern of S(g z) from
`moments._moment_pattern`; the y0 = 1 row is the coefficient row of the
constant 1, and a scalar row L_z(g) >= 0 is the localizing tensor at d = 0.
`relaxation_blocks` assembles the blocks shared by Q_r, Q-hat and the lift,
and `moment_program` adds the normalization z_0 = 1 to every program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .poly import Polynomial, PreconditionFailure, SemialgebraicSet, basis_size
from .moments import MomentVector, _basis_and_index, _moment_pattern
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
    rows/cols over monomial_basis(n, d), z over monomial_basis(n, 2*order).
    With d = 0 it is the 1x1 block L_z(g) >= 0."""
    if 2 * d + g.degree() > 2 * order:
        raise PreconditionFailure(
            "2d + deg g <= 2*order", f"{2 * d + g.degree()} > {2 * order}"
        )
    basis, _ = _basis_and_index(n, d)
    pattern = _moment_pattern(basis, g)
    T = np.zeros((len(basis), len(basis), basis_size(n, 2 * order)))
    np.add.at(T, (pattern.row, pattern.col, pattern.index), pattern.coef)
    return T


def moment_tensor(n: int, order: int, d: int) -> np.ndarray:
    return localizing_tensor(n, order, d, Polynomial.constant(n, 1.0))


def moment_program(
    n: int, order: int, objective: np.ndarray, blocks: List[BlockSpec],
    eq_rows: Optional[np.ndarray] = None,
) -> MomentSdp:
    """min objective'z over `blocks` subject to z_0 = 1, the first
    equality row, and eq_rows z = 0 when given."""
    E = coefficient_row(n, order, Polynomial.constant(n, 1.0))[None, :]
    if eq_rows is not None:
        E = np.vstack([E, eq_rows])
    rhs = np.r_[1.0, np.zeros(len(E) - 1)]
    return MomentSdp(n, order, objective, blocks, E, rhs)


def relaxation_blocks(K: SemialgebraicSet, order: int, form: str) -> List[BlockSpec]:
    """M_order(z) >= 0 and, for each g_j of K, M_{order - r_j}(g_j z) >= 0
    (form "localizing") or the scalar row L_z(g_j) >= 0 (form "scalar")."""
    blocks = [BlockSpec("moment", moment_tensor(K.n, order, order))]
    for j, (g, rj) in enumerate(zip(K.constraints, K.half_degrees()), start=1):
        d = order - rj if form == "localizing" else 0
        T = localizing_tensor(K.n, order, d, g)
        blocks.append(BlockSpec(f"{form}[{j}]", T))
    return blocks


def coefficient_row(n: int, order: int, p: Polynomial) -> np.ndarray:
    """Row vector r with r'z = L_z(p); the y0 row is that of the constant 1."""
    outside = [a for a in p.terms if len(a) != n or sum(a) > 2 * order]
    if outside:
        raise PreconditionFailure(
            "deg p <= 2*order", f"{outside[0]} outside N^{n}_{2 * order}"
        )
    pattern = _moment_pattern(np.zeros((1, n), dtype=int), p)
    row = np.zeros(basis_size(n, 2 * order))
    np.add.at(row, pattern.index, pattern.coef)
    return row


def equality_block_rows(
    n: int, order: int, d: int, g: Polynomial
) -> Tuple[np.ndarray, np.ndarray]:
    """Entrywise rows for M_d(g z) = 0, upper triangle: s(d)(s(d)+1)/2 rows,
    the pair (a, b), a <= b, at its row-major position."""
    basis, _ = _basis_and_index(n, d)
    pattern = _moment_pattern(basis, g, upper=True)
    count = len(basis) * (len(basis) + 1) // 2
    E = np.zeros((count, basis_size(n, 2 * order)))
    # the pattern lists each pair's terms together, pairs in row order
    pair = np.repeat(np.arange(count), len(g.terms))
    np.add.at(E, (pair, pattern.index), pattern.coef)
    return E, np.zeros(count)


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
    p_basis, _ = _basis_and_index(n, max_p_deg)
    # column 0 of the pattern of S(h z) pairs each p with the constant
    # monomial, so its entries are the coefficients of h p
    pattern = _moment_pattern(p_basis, h)
    first = pattern.col == 0
    K = np.zeros((basis_size(n, D), len(p_basis)))
    np.add.at(K, (pattern.index[first], pattern.row[first]), pattern.coef[first])
    # orthonormal complement of span(K)
    U, sv, _ = np.linalg.svd(K, full_matrices=True)
    tol = max(K.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    if rank == 0:
        return None
    return U[:, rank:]
