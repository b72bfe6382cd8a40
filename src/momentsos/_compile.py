"""Compiler from moment-form programs to standard-form SDPs.

A moment-form program is

    minimize    c'z
    subject to  E z = e                      (equality rows)
                S_B(z) = sum_t coef_B[t] z[index_B[t]] >= 0   per block B,

with z the dense vector of pseudo-moments. Equalities are eliminated by an
SVD null-space parametrization z = z_part + N u, giving an LMI in u whose
standard-form image is solved by `sdp.solve`; the solver's dual vector
recovers u (hence z) and its primal blocks are exactly the Gram matrices of
the dual certificate, over the same rows and columns as the block. A block
need not span a whole monomial basis: the rho_j programs keep a principal
submatrix of each block (see `convexcert.rho_program`).

Every block is a moment or localizing matrix S(g z), kept as the index
layers (`moments.BlockSpec`) of the one pattern of `moments._moment_pattern`:
compiling it gathers columns of N, and no dense (dim, dim, s) tensor is
built. The y0 = 1 row is the coefficient row of the constant 1, and a scalar
row L_z(g) >= 0 is the localizing block at d = 0.
`relaxation_blocks` assembles the blocks shared by Q_r, Q-hat and the lift,
and `moment_program` adds the normalization z_0 = 1 to every program.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from .poly import Polynomial, PreconditionFailure, SemialgebraicSet, basis_size
from .moments import BlockSpec, MomentVector, _basis_and_index, _moment_pattern
from .sdp import (
    BLOCK_CAP,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    SolverOptions,
    solve,
)

# bytes of a dense (dim, dim, s) block; the block's compiled (p, dim, dim)
# stack, p < s, is smaller
TENSOR_BYTES_CAP = 2**30


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
    gram_blocks: Optional[List[np.ndarray]]  # one per block, at its dim
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
        Cs = [B.apply(z_part) for B in self.blocks]
        As = [-B.apply(N.T) for B in self.blocks]
        problem = SdpProblem.make(
            self.block_dims(), Cs, As, -(N.T @ self.objective)
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

        grams = [0.5 * (Xb + Xb.T) for Xb in sol.X]

        # stationarity in coefficient space: c = A*(S) + E' mu
        adj = np.zeros(self.num_moments)
        for B, G in zip(self.blocks, grams):
            weights = (B.coef[:, None, None] * G).ravel()
            adj += np.bincount(B.index.ravel(), weights, self.num_moments)
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

    def moment_vector(self, solution: MomentSolution) -> MomentVector:
        if solution.z is None:
            raise PreconditionFailure("solution has moments")
        return MomentVector(
            self.n, self.order, solution.z, provenance="interior_point"
        )


# ---- builders --------------------------------------------------------------


def _pattern_block(
    label: str, basis, g: Optional[Polynomial], num_moments: int
) -> BlockSpec:
    """S(g z) over the exponent rows `basis`, z of length `num_moments`.

    The size limits are checked before the pattern is built: a block
    above `sdp.BLOCK_CAP`, or one whose dense (dim, dim, s) form is above
    TENSOR_BYTES_CAP, raises PreconditionFailure."""
    dim = len(basis)
    if dim > BLOCK_CAP:
        raise PreconditionFailure(
            "block dimension within cap", f"{dim} > {BLOCK_CAP}"
        )
    size = dim * dim * num_moments * np.dtype(float).itemsize
    if size > TENSOR_BYTES_CAP:
        raise PreconditionFailure(
            "block tensor within cap",
            f"({dim}, {dim}, {num_moments}) takes {size / 2**30:.1f} GiB "
            f"> {TENSOR_BYTES_CAP / 2**30:g} GiB",
        )
    return BlockSpec.from_pattern(label, basis, g)


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
    s = basis_size(K.n, 2 * order)
    blocks = [_pattern_block("moment", _basis_and_index(K.n, order)[0], None, s)]
    for j, (g, rj) in enumerate(zip(K.constraints, K.half_degrees()), start=1):
        basis = _basis_and_index(K.n, order - rj if form == "localizing" else 0)[0]
        blocks.append(_pattern_block(f"{form}[{j}]", basis, g, s))
    return blocks


def coefficient_row(n: int, order: int, p: Polynomial) -> np.ndarray:
    """Row vector r with r'z = L_z(p); the y0 row is that of the constant 1."""
    outside = [a for a in p.terms if len(a) != n or sum(a) > 2 * order]
    if outside:
        raise PreconditionFailure(
            "deg p <= 2*order", f"{outside[0]} outside N^{n}_{2 * order}"
        )
    pattern = _moment_pattern(np.zeros((1, n), dtype=int), p)
    return np.bincount(pattern.index, pattern.coef, basis_size(n, 2 * order))
