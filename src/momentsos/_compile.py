"""Compiler from moment-form programs to standard-form SDPs.

A moment-form program is

    minimize    c'z
    subject to  E z = e                      (equality rows)
                S_B(z) = sum_t coef_B[t] z[index_B[t]] >= 0   per block B,

with z the dense vector of pseudo-moments. Equalities are eliminated by a
parametrization z = z_part + N u, giving an LMI in u whose standard-form
image is solved by `sdp.solve`; the solver's dual vector recovers u (hence
z) and its primal blocks are exactly the Gram matrices of the dual
certificate, over the same rows and columns as the block. When every
equality row is a unit row, as the single row z_0 = 1 of Q_r, Q-hat and
the lift supports is, u is the free coordinates of z and N a selection,
never formed. Other rows, such as the rho_j rows L_z(g_j(Y) m) = 0, are
eliminated through an SVD null-space basis N. A block need not span a whole monomial
basis: the rho_j programs keep a principal submatrix of each block (see
`convexcert.rho_program`).

Every block is a moment or localizing matrix S(g z), kept as the index
layers (`moments.BlockSpec`) of the one pattern of `moments._moment_pattern`,
and no dense (dim, dim, s) tensor is built. By selection, a block's
entries are read off the layers, and `sdp._entry_pattern` returns the
block's stored form: a one-hot block, every single-term block among
them, as its `sdp.OneHot` record, the four fields of those entries, and
any other block as a dense stack. Through N, no stack is built: every
block is handed to the solver as its `sdp.Mapped` record, its layers
and N', from which the solver rebuilds chunks of the stack, whose rows
gather columns of N. The y0 = 1 row is the coefficient row
of the constant 1, and a scalar row L_z(g) >= 0 is the localizing block
at d = 0.
`relaxation_blocks` assembles the blocks shared by Q_r, Q-hat and the lift,
and `moment_program` adds the normalization z_0 = 1 to every program and,
for an ideal (h, m) such as the rho_j programs' (g_j(Y), the monomials of
degree <= 2(d_j - r_j)), the rows L_z(h m_i) = 0.

Every certificate of a solved program is read off here, by
`MomentSdp.certificate`: each block keeps the basis and weight it was
built from, so its Gram matrix is the Gram term weight * z' G z of the
identity, the multiplier of z_0 = 1 is its bound, and the multipliers of
the ideal's rows give its free term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .poly import (
    Polynomial, PreconditionFailure, SemialgebraicSet, _grlex_index, basis_size
)
from .moments import BlockSpec, MomentVector, _basis, _moment_pattern
from .sdp import (
    BLOCK_CAP,
    Mapped,
    SdpProblem,
    SdpSolution,
    SdpStatus,
    _entry_pattern,
    solve,
)
from .sos import GramIdentity

# bytes of a dense (dim, dim, s) block; the block's compiled (p, dim, dim)
# stack, p < s, is smaller
TENSOR_BYTES_CAP = 2**30


# solver statuses live on the compiled side, where the moment program is the
# dual: a compiled-primal improving ray kills the moment program's
# feasibility, a compiled-dual ray makes it unbounded
_MOMENT_SIDE = {
    SdpStatus.INFEASIBLE: SdpStatus.UNBOUNDED,
    SdpStatus.UNBOUNDED: SdpStatus.INFEASIBLE,
}


@dataclass
class MomentSolution:
    status: SdpStatus  # of the moment program
    value: float
    z: Optional[np.ndarray]
    gram_blocks: Optional[List[np.ndarray]]  # one per block, at its dim
    eq_multipliers: Optional[np.ndarray]
    stationarity_residual: float
    sdp_solution: SdpSolution

    @property
    def is_optimal(self) -> bool:
        return self.status is SdpStatus.OPTIMAL


@dataclass
class MomentSdp:
    """Moment-form SDP over a dense moment coordinate vector z."""

    n: int  # ambient variable count of the monomials indexing z
    order: int  # z covers N^n_{2*order}
    objective: np.ndarray  # c, length s(2*order)
    blocks: List[BlockSpec]
    eq_rows: np.ndarray  # (q, s)
    eq_rhs: np.ndarray  # (q,)
    # (h, m) when the rows after z_0 = 1 are L_z(h m_i) = 0 (`moment_program`)
    ideal: Optional[Tuple[Polynomial, np.ndarray]] = None

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
        # a copy of N's rows, so that the decode map does not pin all of Vt
        N = Vt[rank:].copy().T
        return z_part, N

    def _unit_columns(self) -> Optional[np.ndarray]:
        """The column of each equality row when every row is a unit row
        (one entry, equal to 1) and no two rows share a column, else None."""
        rows, cols = np.nonzero(self.eq_rows)
        if not np.array_equal(rows, np.arange(self.num_equalities)):
            return None
        if np.any(self.eq_rows[rows, cols] != 1.0):
            return None
        return cols if len(set(cols.tolist())) == len(cols) else None

    def to_sdp(self) -> Tuple[SdpProblem, dict]:
        """Standard-form problem whose dual is this moment program.

        Unit equality rows are eliminated by selection: the fixed
        coordinates take their right-hand sides in z_part, and u is the
        free coordinates. The decode map is then {z_part, free}; otherwise
        the SVD of `_eliminate` gives {z_part, N}. For the one row z_0 = 1
        of `moment_program`, N is exactly the identity less its first
        column, so both give the same stacks, b and z, bit for bit.
        Every stack is exactly symmetric, as the index layers are, so the
        problem is built without `SdpProblem.make`'s checks. A selected
        block's entries give its stored form (`_selected_stack`): a
        one-hot block's `OneHot` record, with no stack built, or any
        other block's dense stack. Through N, no stack is built or held:
        each block is stored as its `sdp.Mapped` record, its layers and
        N' (a view of the decode map's N), one-hot or not.
        """
        fixed = self._unit_columns()
        if fixed is None:
            z_part, N = self._eliminate()
            As = [Mapped(B, N.T) for B in self.blocks]
            b = -(N.T @ self.objective)
            decode = {"z_part": z_part, "N": N}
        else:
            z_part = np.zeros(self.num_moments)
            z_part[fixed] = self.eq_rhs
            free = np.delete(np.arange(self.num_moments), fixed)
            coord = np.full(self.num_moments, -1)
            coord[free] = np.arange(len(free))
            As = [_selected_stack(B, coord, len(free)) for B in self.blocks]
            # + 0.0 makes a -0.0 objective entry +0.0, as N' c sums it
            b = -(self.objective[free] + 0.0)
            decode = {"z_part": z_part, "free": free}
        Cs = [B.apply(z_part) for B in self.blocks]
        problem = SdpProblem(tuple(self.block_dims()), tuple(Cs), tuple(As), b)
        return problem, decode

    # ---- solving ------------------------------------------------------------

    def solve(self) -> MomentSolution:
        problem, decode = self.to_sdp()
        sol = solve(problem)
        status = _MOMENT_SIDE.get(sol.status, sol.status)
        if sol.status is not SdpStatus.OPTIMAL:
            value = {
                SdpStatus.INFEASIBLE: np.inf,
                SdpStatus.UNBOUNDED: -np.inf,
            }.get(status, np.nan)
            return MomentSolution(
                status=status,
                value=value,
                z=None,
                gram_blocks=None,
                eq_multipliers=None,
                stationarity_residual=np.nan,
                sdp_solution=sol,
            )

        z = _decode(decode, sol.dual)
        value = float(self.objective @ z)

        grams = [0.5 * (Xb + Xb.T) for Xb in sol.X]

        # stationarity in coefficient space: c = A*(S) + E' mu
        adj = np.zeros(self.num_moments)
        for B, G in zip(self.blocks, grams):
            adj += B.adjoint(G, self.num_moments)
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
        )

    def certificate(
        self, target: Polynomial, solution: MomentSolution
    ) -> GramIdentity:
        """The identity target - mu_0 = sum_B B.weight z_B' G_B z_B + q h
        read off a solve, unjudged: mu_0 is the multiplier of z_0 = 1, each
        block's Gram matrix multiplies its weight over its basis, and with
        an ideal (h, m) the free term has q = sum_i mu_i m_i. `target` is
        the polynomial whose Riesz row is the objective."""
        if not solution.is_optimal:
            raise PreconditionFailure("solution optimal", solution.status.value)
        mu = solution.eq_multipliers
        grams = [
            (B.weight, [tuple(a) for a in B.basis.tolist()], G)
            for B, G in zip(self.blocks, solution.gram_blocks)
        ]
        free = []
        if self.ideal is not None:
            h, m = self.ideal
            terms = zip(map(tuple, m.tolist()), mu[1:].tolist())
            free.append((Polynomial.make(self.n, dict(terms)), h))
        return GramIdentity(target, float(mu[0]), grams, free)

    def moment_vector(self, solution: MomentSolution) -> MomentVector:
        if solution.z is None:
            raise PreconditionFailure("solution has moments")
        return MomentVector(
            self.n, self.order, solution.z, provenance="interior_point"
        )


def _decode(decode: dict, u: np.ndarray) -> np.ndarray:
    """The moments z of the compiled dual vector u, by the decode map of
    `MomentSdp.to_sdp`."""
    z = decode["z_part"].copy()
    if "free" in decode:
        # z_part is 0.0 there, and 0.0 + u is the sum N u gives
        z[decode["free"]] += u
    else:
        z += decode["N"] @ u
    return z


def _selected_stack(B: BlockSpec, coord: np.ndarray, q: int):
    """-S_B over the free coordinates, in its stored form
    (`sdp._entry_pattern`): its `OneHot` record when it is one-hot, else
    the C-contiguous (q, dim, dim) stack.

    `coord` maps each moment to its free coordinate, or to -1 when it is
    fixed. Each layer puts its coefficient at (coord, row, col); a layer
    holds one moment per position, and the layers of distinct terms hold
    distinct moments there, so no index repeats and an entry's value is
    -c. The terms that `B.apply(N.T)` adds besides are exact zeros, so the
    stack is -B.apply(N.T) bit for bit, -0.0 zeros included."""
    dim = B.dim
    flat, coef = [], []
    for c, idx in zip(B.coef, B.index):
        u = coord[idx]
        row, col = np.nonzero(u >= 0)
        flat.append((u[row, col] * dim + row) * dim + col)
        coef.append(np.full(len(row), c))
    return _entry_pattern(q, dim, np.concatenate(flat), -np.concatenate(coef))


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
    ideal: Optional[Tuple[Polynomial, np.ndarray]] = None,
) -> MomentSdp:
    """min objective'z over `blocks` subject to z_0 = 1, the first
    equality row, and, for an ideal (h, m), one row L_z(h m_i) = 0 per
    exponent row m_i of m. Row i is built from the exponents m_i + gamma_t
    of the terms of h, term by term, so the rows take O(q |h|) work space
    beyond E and the m_i may come in any order."""
    q = 0 if ideal is None else len(ideal[1])
    E = np.zeros((1 + q, basis_size(n, 2 * order)))
    E[0] = coefficient_row(n, order, Polynomial.constant(n, 1.0))
    if ideal is not None:
        h, multipliers = ideal
        exponent = (multipliers[:, None] + h.exponents).reshape(-1, n)
        rows = np.repeat(np.arange(1, 1 + q), len(h.coefficients))
        np.add.at(E, (rows, _grlex_index(exponent)), np.tile(h.coefficients, q))
    rhs = np.r_[1.0, np.zeros(q)]
    return MomentSdp(n, order, objective, blocks, E, rhs, ideal)


def relaxation_blocks(K: SemialgebraicSet, order: int, form: str) -> List[BlockSpec]:
    """M_order(z) >= 0 and, for each g_j of K, M_{order - r_j}(g_j z) >= 0
    (form "localizing") or the scalar row L_z(g_j) >= 0 (form "scalar")."""
    s = basis_size(K.n, 2 * order)
    blocks = [_pattern_block("moment", _basis(K.n, order), None, s)]
    for j, (g, rj) in enumerate(zip(K.constraints, K.half_degrees()), start=1):
        basis = _basis(K.n, order - rj if form == "localizing" else 0)
        blocks.append(_pattern_block(f"{form}[{j}]", basis, g, s))
    return blocks


def coefficient_row(n: int, order: int, p: Polynomial) -> np.ndarray:
    """Row vector r with r'z = L_z(p); the y0 row is that of the constant 1."""
    outside = (p.exponents.sum(axis=1) > 2 * order) | (p.n != n)
    if outside.any():
        alpha = tuple(p.exponents[np.argmax(outside)].tolist())
        raise PreconditionFailure(
            "deg p <= 2*order", f"{alpha} outside N^{n}_{2 * order}"
        )
    pattern = _moment_pattern(np.zeros((1, n), dtype=int), p)
    return np.bincount(pattern.index, pattern.coef, basis_size(n, 2 * order))
