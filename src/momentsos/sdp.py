"""Dense primal-dual interior-point solver for block-diagonal SDPs.

Standard form:

    minimize    <C, X>
    subject to  <A_i, X> = b_i,   i = 1..p
                X >= 0  (blockwise PSD)

The dual is max b'lam s.t. C - sum_i lam_i A_i = Z >= 0. The solver is a
Mehrotra-style predictor-corrector on the central path of the homogeneous
self-dual embedding, with Nesterov-Todd scaling W = G G'. The Schur
complement is a dense p x p matrix. A one-hot block, where each matrix
position is nonzero in at most one constraint and each column of a
constraint matrix holds at most one entry (a moment block), adds its part
by gathering from W A_i W the entries each constraint owns. W A_i is
gathered from the columns of W, not multiplied, and one batched product
with W forms W A_i W a cache-sized chunk of constraints at a time. Any
other block adds B B', one symmetric rank-k update, where row i of B is
svec(G' A_i G). The Cholesky factor is inverted once per iteration, over
itself, by recursive 2x2 blocking, so each Schur solve is two
matrix-vector products, and one Schur system is held at a time. The
other per-block LAPACK calls (Cholesky, the scaling's SVD and inverse,
the step length's solves and eigenvalues) run once per block order on a
stack of the blocks of that order, with results byte-identical to
per-block calls (`_order_classes`).

The solver starts from a data-scaled identity point that is strictly
feasible for the embedding (not for the problem itself) and reports
primal/dual infeasibility through normalized improving rays instead of
exceptions. Deterministic: no randomness anywhere in the iteration.

`SdpProblem` stores the constraint matrices of each block once, in `A`,
in one of three forms: a one-hot block as its `OneHot` record, the four
fields of its entries; a block compiled through a null-space basis N as
its `Mapped` record, the block's index layers and N', with no stack; any
other block as a dense (p, n_b, n_b) stack. Only a builder that knows a
block's layout makes a `OneHot` record: the moment compiler and
`sos_decompose` read the entries off the layout (`_entry_pattern`),
while `SdpProblem.make` stores the dense stacks it is given as they are.
The Schur gather of a one-hot block is derived from its entries once per
problem (`_gather`). On a one-hot block A'y is a scatter of the entries.
A(X) scatters a larger one-hot block's entries into a buffer of
CHUNK_BYTES, a chunk of constraints at a time (`OneHot.entries`), for
the same matrix-vector product on each chunk that the whole stack would
take; its bytes are those of the whole-stack product
(`_constraint_chunks`). A one-hot block that fits in CHUNK_BYTES is
built once per problem and read whole. A `Mapped` block's A(X) and A'y
go through its layers and one product with N', and its Schur term and
the start scale read chunks of CHUNK_BYTES rebuilt from the layers,
which are the stack's rows bit for bit. `SolverOptions` holds the two
target tolerances; every other setting of the iteration is a module
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from typing import (
    Any, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union
)

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
# bytes of constraint matrices that _schur_matrix and A(X) hold at once.
# At 1 MiB a chunk of W A_i and its product with W fit in a 2 MiB L2 cache
# together, so the one-hot Schur term reads and writes them there instead
# of in main memory
CHUNK_BYTES = 1 << 20
# order at or below which _tril_inv inverts a triangular block directly
TRIL_INV_LEAF = 64


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


def _check_block_dims(dims: Tuple[int, ...]) -> None:
    if not dims:
        raise PreconditionFailure("at least one block")
    if any(d < 1 for d in dims):
        raise PreconditionFailure("block dims >= 1", str(dims))
    if any(d > BLOCK_CAP for d in dims):
        raise PreconditionFailure(
            "block dimension within cap", f"{max(dims)} > {BLOCK_CAP}"
        )


class OneHot(NamedTuple):
    """The constraint matrices of a one-hot block (`_one_hot`), stored as
    their entries alone: `owner, row, col, value` of every nonzero,
    strictly increasing in (owner, row, col), the `np.nonzero` order of
    the block's stack. The gather of `_schur_matrix` is derived from them
    (`_gather`)."""

    owner: np.ndarray
    row: np.ndarray
    col: np.ndarray
    value: np.ndarray

    def entries(self, lo: int, hi: int):
        """((owner - lo, row, col), value) of the entries of constraints
        lo..hi-1: one run, as the entries are sorted by owner."""
        at = slice(*np.searchsorted(self.owner, (lo, hi)))
        return (self.owner[at] - lo, self.row[at], self.col[at]), self.value[at]


class Mapped(NamedTuple):
    """The constraint matrices of a block compiled through a null-space
    basis N, A_i = -sum_t coef[t] N[index[t], i], stored as the block's
    index layers `block` (a `moments.BlockSpec`, read by its `index`,
    `coef`, `apply` and `adjoint`) and NT = N', a (p, s) array. No (p, n, n)
    stack is held: `chunk` rebuilds the matrices of a run of constraints,
    A(X) is one gemv with NT after the layers' adjoint, and A'y one
    `apply` of N y."""

    block: Any
    NT: np.ndarray

    def chunk(self, lo: int, hi: int) -> np.ndarray:
        """The (hi - lo, n, n) stack of constraints lo..hi-1: rows lo..hi-1
        of the whole stack -B.apply(N') bit for bit, since `apply` works
        entry by entry."""
        out = self.block.apply(self.NT[lo:hi])
        return np.negative(out, out=out)


@dataclass(frozen=True)
class SdpProblem:
    """Block-diagonal standard-form SDP data, each coefficient stored once.

    `C` is one symmetric (n_b, n_b) matrix per block, and `b` is the (p,)
    right-hand side. `A[k]` holds the constraint matrices of block k: a
    one-hot block as its `OneHot` record, a block compiled through a
    null-space basis as its `Mapped` record, any other block as a
    C-contiguous (p, n_b, n_b) stack, so that `A[k][i]` is the matrix of
    constraint i. The constructor checks what `solve` reads: the block
    dimensions, each C, each stack's shape, a `Mapped` record's N' of p
    rows and (k, n_b, n_b) layers of indices inside N', that b is a
    vector, and that a `OneHot` record is the entries of a one-hot block
    (`_is_record`). It does not check values: every stack, every
    `Mapped` block's layers and every C must equal their transposes
    exactly, and a `OneHot` record must hold both entries of each
    off-diagonal pair, so a caller that builds the fields itself (the
    moment compiler, `sos_decompose`) guarantees those by construction.

    `make` validates dense input, symmetrizes it as 0.5 (A + A') and
    0.5 (C + C'), and stores the stacks as they are, one-hot or not. The
    solver builds the dense stack of a small one-hot block once, at its
    first A(X) (`_whole_stacks`).
    """

    block_dims: Tuple[int, ...]
    C: Tuple[np.ndarray, ...]
    A: Tuple[Union[np.ndarray, OneHot, Mapped], ...]
    b: np.ndarray

    def __post_init__(self):
        _check_block_dims(self.block_dims)
        if getattr(self.b, "ndim", None) != 1:
            raise PreconditionFailure("right-hand side a vector", str(np.shape(self.b)))
        if not len(self.C) == len(self.A) == len(self.block_dims):
            raise PreconditionFailure("one C and one A per block")
        p = len(self.b)
        for k, (Cb, Ab, n) in enumerate(zip(self.C, self.A, self.block_dims)):
            if np.shape(Cb) != (n, n):
                raise PreconditionFailure("objective block dims consistent", f"C[{k}]")
            if isinstance(Ab, OneHot):
                fits = _is_record(Ab, p, n)
            elif isinstance(Ab, Mapped):
                index, NT = Ab.block.index, Ab.NT
                fits = (
                    np.ndim(NT) == 2
                    and len(NT) == p
                    and index.ndim == 3
                    and index.shape[1:] == (n, n)
                    and np.shape(Ab.block.coef) == index.shape[:1]
                    and np.all((index >= 0) & (index < NT.shape[1]))
                )
            else:
                fits = isinstance(Ab, np.ndarray) and Ab.shape == (p, n, n)
            if not fits:
                raise PreconditionFailure(
                    "constraint block a (p, n_b, n_b) stack, or a OneHot or "
                    "Mapped record of one",
                    f"A[{k}]",
                )

    @staticmethod
    def make(
        block_dims: Sequence[int],
        C: Sequence[np.ndarray],
        A: Sequence[np.ndarray],
        b: Sequence[float],
    ) -> "SdpProblem":
        dims = tuple(int(d) for d in block_dims)
        _check_block_dims(dims)
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
        sym = []
        skewed = []
        for k, (Ab, d) in enumerate(zip(A, dims)):
            Ab = np.asarray(Ab, dtype=float, order="C")
            if Ab.shape != (len(b), d, d):
                raise PreconditionFailure(
                    "constraint block dims consistent", f"A[:][{k}]: {Ab.shape}"
                )
            Ab_t = Ab.transpose(0, 2, 1)
            # each matrix against its own scale, as _as_sym does
            skew = np.abs(Ab - Ab_t).max(axis=(1, 2))
            scale = np.maximum(1.0, np.abs(Ab).max(axis=(1, 2)))
            bad = np.flatnonzero(skew > SYMMETRY_TOL * scale)
            skewed += [(int(i), k, float(skew[i])) for i in bad]
            sym.append(0.5 * (Ab + Ab_t))
        if skewed:
            # the first skew constraint, and its first skew block
            i, k, skew = min(skewed)
            raise PreconditionFailure(
                "coefficient matrices symmetric", f"A[{i}][{k}]: skew {skew:.3e}"
            )
        return SdpProblem(dims, tuple(Cs), tuple(sym), b)

    @property
    def num_constraints(self) -> int:
        return len(self.b)

    def stack(self, k: int) -> np.ndarray:
        """The dense (p, n_b, n_b) constraint stack of block k: the stored
        one, or a new one rebuilt from a record (`_rows`)."""
        Ab = self.A[k]
        if isinstance(Ab, np.ndarray):
            return Ab
        return _rows(Ab, self.block_dims[k], 0, self.num_constraints)

    @cached_property
    def _whole_stacks(self) -> Tuple[Optional[np.ndarray], ...]:
        """Per block, the stack that A(X) reads whole: the stored one, or a
        one-hot block's, built once from its entries, when it fits in
        CHUNK_BYTES; None for a larger one-hot block, which A(X) builds a
        chunk at a time (`_constraint_chunks`), and for a `Mapped` block,
        whose A(X) goes through its layers. Rebuilding a small one-hot
        block in every A(X) would cost more than the product itself."""
        p = self.num_constraints
        return tuple(
            None
            if isinstance(Ab, Mapped)
            or isinstance(Ab, OneHot) and 8 * p * n * n > CHUNK_BYTES
            else self.stack(k)
            for k, (Ab, n) in enumerate(zip(self.A, self.block_dims))
        )

    @cached_property
    def _gathers(self) -> Tuple[Optional[tuple], ...]:
        """Per block, a one-hot block's Schur gather (`_gather`), derived
        once per problem rather than in every iteration; None for any
        other block."""
        return tuple(
            _gather(Ab, n) if isinstance(Ab, OneHot) else None
            for Ab, n in zip(self.A, self.block_dims)
        )

    @property
    def constraints(self) -> Iterator[Tuple[Tuple[np.ndarray, ...], float]]:
        """(per-block matrices, b_i) of each constraint, in order and one
        constraint at a time: the matrices of `stack`, a view of a stored
        stack or a new matrix rebuilt from a record (`_rows`), so no dense
        stack of a record is built. Kept only for the benchmark's layer
        trace, which reads it until solves carry their own trace (ROADMAP
        direction 4)."""
        for i, bi in enumerate(self.b):
            mats = [
                _rows(Ab, n, i, i + 1)[0] for Ab, n in zip(self.A, self.block_dims)
            ]
            yield tuple(mats), float(bi)

    def dump_sdpa(self) -> str:
        """Sparse SDPA rendering: one line per nonzero upper-triangle entry,
        "constraint block row col value" (constraint 0 is the objective),
        ordered by constraint, block, row and column.

        Convention: the emitted file encodes max <F0,Y> s.t. <Fi,Y>=c_i,
        Y >= 0 with F0 = -C, Fi = A_i, c = b, i.e. this problem's exact
        negated-objective image in SDPA's dual slot. A block's lines are
        its nonzeros in the upper triangle as `np.nonzero` finds them in
        its stack, by constraint, row and column, read a chunk of
        constraints at a time (`_chunk_bounds`, `_rows`): views of a
        stored stack, or chunks rebuilt from a record, whose nonzeros are
        a `OneHot` record's entries.
        """
        head = [
            str(self.num_constraints),
            str(len(self.block_dims)),
            " ".join(str(d) for d in self.block_dims),
            " ".join(repr(bi) for bi in self.b.tolist()),
        ]
        p, entries = self.num_constraints, []
        for blk, (Cb, Ab) in enumerate(zip(self.C, self.A), start=1):
            n = Cb.shape[0]
            r, c = np.triu_indices(n)
            objective = -Cb[r, c]
            t = np.flatnonzero(objective)
            parts = [(np.zeros_like(t), r[t], c[t], objective[t])]
            for lo, hi in _chunk_bounds(p, n):
                M = _rows(Ab, n, lo, hi)
                owner, row, col = np.nonzero(M)
                upper = row <= col
                at = owner[upper], row[upper], col[upper]
                parts.append((at[0] + lo + 1, at[1], at[2], M[at]))
            for i, row, col, value in parts:
                entries.append((i, np.full(len(i), blk), row + 1, col + 1, value))
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


def _order_classes(dims: Sequence[int]) -> List[List[int]]:
    """Indices of the matrices of each order in `dims`, by first appearance.

    The per-block LAPACK calls run once per order on a (k, n, n) stack:
    numpy's stacked calls make the same LAPACK and BLAS call on each
    matrix as a call on that matrix alone, so the results are the same
    bytes.
    """
    classes: Dict[int, List[int]] = {}
    for i, d in enumerate(dims):
        classes.setdefault(d, []).append(i)
    return list(classes.values())


def _max_step(
    Ls: List[np.ndarray], dMs: List[np.ndarray], classes: List[List[int]]
) -> float:
    """Largest alpha with M_i + alpha*dM_i >= 0 for every block i, given
    the factors M_i = L_i L_i' as one stack per order class
    (`_chol_blocks`), by one batched call per class.

    Each block's step is 1/(-w) for the smallest eigenvalue w of
    L^-1 dM L^-T, or inf when w >= -1e-14. 1/(-w) falls as w falls, so
    the smallest eigenvalue of all blocks gives the smallest step; a NaN
    eigenvalue is skipped, as `min` skips a NaN step."""
    a = np.inf
    for L, idx in zip(Ls, classes):
        Linv_d = np.linalg.solve(L, np.stack([dMs[i] for i in idx]))
        S = np.linalg.solve(L, Linv_d.transpose(0, 2, 1))
        w = np.linalg.eigvalsh(0.5 * (S + S.transpose(0, 2, 1)))[:, 0]
        w_min = float(np.fmin.reduce(w))
        if w_min < -1e-14:
            a = min(a, 1.0 / (-w_min))
    return a


def _chunk_bounds(p: int, n: int) -> List[Tuple[int, int]]:
    """(lo, hi) of each chunk of constraints of an order-n block, in order:
    a multiple of 16 matrices that fits in CHUNK_BYTES, or 16, and a last
    chunk of one joins the chunk before it.

    Then one matrix-vector product per chunk gives the bytes of the
    product with the whole stack: OpenBLAS's gemv kernel (0.3.31, Haswell,
    one thread) sums the rows four at a time from the first and the last
    p mod 4 in a loop of its own, so every row keeps its place in a group,
    while numpy hands a single row to a dot product, which sums in another
    order. Under more BLAS threads the whole-stack product is split
    between the threads, and its bytes can differ from those of the
    chunks."""
    step = 16 * max(1, CHUNK_BYTES // (16 * 8 * n * n))
    bounds = list(range(0, p, step))
    if len(bounds) > 1 and p - bounds[-1] == 1:
        bounds.pop()
    bounds.append(p)
    return list(zip(bounds, bounds[1:]))


def _rows(Ab, n: int, lo: int, hi: int) -> np.ndarray:
    """The (hi - lo, n, n) matrices of constraints lo..hi-1 of a stored
    block: a view of a stack, a `Mapped` block's rebuilt chunk, or a new
    stack holding a one-hot block's entries."""
    if isinstance(Ab, np.ndarray):
        return Ab[lo:hi]
    if isinstance(Ab, Mapped):
        return Ab.chunk(lo, hi)
    out = np.zeros((hi - lo, n, n))
    at, value = Ab.entries(lo, hi)
    out[at] = value
    return out


def _constraint_chunks(
    problem: SdpProblem, k: int
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """(lo, hi, stack) with the matrices of constraints lo..hi-1 in block
    k, over all constraints in order: a stack of `_whole_stacks` whole,
    and otherwise one chunk per `_chunk_bounds`: a `Mapped` block's
    rebuilt chunk, or a larger one-hot block's entries scattered into one
    reused buffer, zero elsewhere, that is cleared again after each
    chunk."""
    p, Ab = problem.num_constraints, problem._whole_stacks[k]
    if Ab is not None:
        yield 0, p, Ab
        return
    Ab, n = problem.A[k], problem.block_dims[k]
    bounds = _chunk_bounds(p, n)
    if isinstance(Ab, Mapped):
        for lo, hi in bounds:
            yield lo, hi, Ab.chunk(lo, hi)
        return
    buf = np.zeros((max((hi - lo for lo, hi in bounds), default=0), n, n))
    for lo, hi in bounds:
        chunk = buf[: hi - lo]
        at, value = Ab.entries(lo, hi)
        chunk[at] = value
        yield lo, hi, chunk
        chunk[at] = 0.0


def _apply_A(problem: SdpProblem, X: List[np.ndarray]) -> np.ndarray:
    """(<A_i, X>)_i, summed over the blocks in block order: per block, the
    matrix-vector product that `np.tensordot` makes, on chunks of the
    constraints (`_constraint_chunks`) with the same bytes. A `Mapped`
    block subtracts N' times its layers' adjoint at X_b, the moment vector
    whose product with N's column i is -<A_i, X_b>."""
    p = problem.num_constraints
    out = np.zeros(p)
    for k, (Ab, Xb) in enumerate(zip(problem._whole_stacks, X)):
        stored = problem.A[k]
        if isinstance(stored, Mapped):
            out -= stored.NT @ stored.block.adjoint(Xb, stored.NT.shape[1])
            continue
        x = Xb.reshape(-1)
        if Ab is not None:
            # a small problem's A(X) is mostly per-call overhead
            out += Ab.reshape(p, x.size) @ x
            continue
        for lo, hi, chunk in _constraint_chunks(problem, k):
            out[lo:hi] += chunk.reshape(hi - lo, x.size) @ x
    return out


def _apply_At(problem: SdpProblem, lam: np.ndarray) -> List[np.ndarray]:
    """sum_i lam_i A_i, per block. A one-hot block is a scatter of
    lam_owner * value over its entries: each position has one owner, so
    the dense contraction adds only exact zeros to that product. Adding
    0.0 turns a product of -0.0 into the +0.0 those sums give. A `Mapped`
    block is -S_B(N lam), one `apply` of the moment vector N lam."""
    out = []
    for Ab, n in zip(problem.A, problem.block_dims):
        if isinstance(Ab, Mapped):
            Mb = Ab.block.apply(lam @ Ab.NT)
            out.append(np.negative(Mb, out=Mb))
            continue
        if isinstance(Ab, OneHot):
            Mb = np.zeros((n, n))
            Mb[Ab.row, Ab.col] = lam[Ab.owner] * Ab.value + 0.0
            out.append(Mb)
            continue
        # one gemv, the one np.tensordot makes, except that for a single
        # entry it multiplies directly, keeping a -0.0 product
        rows = Ab.reshape(len(lam), n * n)
        At = lam * rows if rows.size == 1 else lam @ rows
        out.append(At.reshape(n, n))
    return out


def _inner(Xs: List[np.ndarray], Ys: List[np.ndarray]) -> float:
    return float(sum(np.vdot(X, Y) for X, Y in zip(Xs, Ys)))


def _finite(Ms: Sequence[np.ndarray]) -> bool:
    # one test on all entries costs less than one per block
    return bool(np.isfinite(np.concatenate([np.ravel(M) for M in Ms])).all())


def _direction_failure(step) -> str:
    """Why the solver cannot step along a search direction (dX, dy, dS,
    dtau, dkappa), or "". A nonfinite direction is caught here, before
    the step length's eigenvalue solver meets it."""
    if step is None:
        return "Schur solve failed"
    dX, dy, dS, dtau, dkappa = step
    if not _finite([*dX, *dS, dy, np.array([dtau, dkappa])]):
        return "nonfinite search direction"
    return ""


def _chol_blocks(
    Ms: List[np.ndarray], classes: List[List[int]]
) -> Optional[List[np.ndarray]]:
    """Cholesky factors of the blocks, one (k, n, n) stack per order class
    (`_order_classes`), or None if one fails. A class is factored by one
    batched call; when that raises, its matrices are factored one by one,
    so that `_chol`'s jitter retry decides each."""
    Ls = []
    for idx in classes:
        try:
            Ls.append(np.linalg.cholesky(np.stack([Ms[i] for i in idx])))
        except np.linalg.LinAlgError:
            one_by_one = [_chol(Ms[i]) for i in idx]
            if any(L is None for L in one_by_one):
                return None
            Ls.append(np.stack(one_by_one))
    return Ls


def _nt_scale(
    Ls: List[np.ndarray], classes: List[List[int]]
) -> Tuple[List[np.ndarray], ...]:
    """Per-block Nesterov-Todd scaling data of X and Z, given the factors
    of [*X, *Z] by `_chol_blocks` over `classes`, the order classes of
    [*dims, *dims]. A class holds as many X blocks as Z blocks, the X
    blocks first, so its stack is the X half then the Z half."""
    k = sum(len(idx) for idx in classes) // 2
    Gs, Gis, sigmas, Ws = [None] * k, [None] * k, [None] * k, [None] * k
    for L, idx in zip(Ls, classes):
        m = len(idx) // 2
        Lx = L[:m]
        _, sv, Vt = np.linalg.svd(L[m:].transpose(0, 2, 1) @ Lx)
        sv = np.maximum(sv, 1e-150)
        root = np.sqrt(sv)
        G = Lx @ Vt.transpose(0, 2, 1) / root[:, None, :]
        Gi = (root[:, :, None] * Vt) @ np.linalg.inv(Lx)
        W = G @ G.transpose(0, 2, 1)
        for j, i in enumerate(idx[:m]):
            Gs[i], Gis[i], sigmas[i], Ws[i] = G[j], Gi[j], sv[j], W[j]
    return Gs, Gis, sigmas, Ws


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
        rhs_hat.flat[:: len(sv) + 1] += target - sv ** 2
        omega = 2.0 / np.add.outer(sv, sv)
        Rc.append(G @ (rhs_hat * omega) @ G.T)
    return Rc


def _one_hot(p: int, n: int, owner, row, col) -> bool:
    """Whether entries at (owner, row, col), no index twice, make a
    one-hot (p, n, n) block: every matrix position is nonzero in at most
    one constraint and every column of a constraint matrix holds at most
    one entry. Each moment block M_r(y) is: entry (a, b) holds moment
    alpha_a + alpha_b, so a position is one moment, and for a column b and
    a moment alpha only one row a has alpha_a + alpha_b = alpha."""
    return bool(
        np.bincount(row * n + col, minlength=n * n).max(initial=0) <= 1
        and np.bincount(owner * n + col, minlength=p * n).max(initial=0) <= 1
    )


def _is_record(Ab: OneHot, p: int, n: int) -> bool:
    """Whether a `OneHot` record is what `solve` reads it as: four 1-d
    arrays of one length, integer indices inside the (p, n, n) block,
    entries strictly increasing in (owner, row, col), and one-hot."""
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in Ab):
        return False
    owner, row, col, _ = Ab
    if len({len(a) for a in Ab}) != 1 or not all(
        np.issubdtype(a.dtype, np.integer) for a in (owner, row, col)
    ):
        return False
    tops = ((owner, p), (row, n), (col, n))
    if not all(np.all((a >= 0) & (a < top)) for a, top in tops):
        return False
    key = np.ravel_multi_index((owner, row, col), (p, n, n))
    return bool(np.all(np.diff(key) > 0)) and _one_hot(p, n, owner, row, col)


def _entry_pattern(p: int, n: int, flat: np.ndarray, value: np.ndarray):
    """The `OneHot` record of a (p, n, n) block with entries `value` at
    the flat C-order indices `flat` and zeros elsewhere, or None when the
    block is not one-hot (`_one_hot`). The indices come in any order,
    without repeats; zero values are dropped. A builder that knows a
    block's entries calls this, and builds no stack to find its pattern.
    """
    order = np.argsort(flat)
    flat, value = flat[order], value[order]
    flat, value = flat[value != 0], value[value != 0]
    owner, rest = np.divmod(flat, n * n)
    row, col = np.divmod(rest, n)
    return OneHot(owner, row, col, value) if _one_hot(p, n, owner, row, col) else None


def _gather(Ab: OneHot, n: int) -> tuple:
    """The gather of a one-hot block's Schur term (`_schur_matrix`): the
    flat indices of its upper-triangle entries, by owner (`positions`),
    their values doubled off the diagonal (`weights`), where each owner's
    run starts (`starts`), and the owners in run order (`owners`)."""
    upper = Ab.row <= Ab.col
    rows, cols, owners = Ab.row[upper], Ab.col[upper], Ab.owner[upper]
    weights = np.where(rows == cols, 1.0, 2.0) * Ab.value[upper]
    starts = np.flatnonzero(np.diff(owners, prepend=-1))
    return rows * n + cols, weights, starts, owners[starts]


@lru_cache(maxsize=64)
def _svec_pattern(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Flat indices of the upper triangle of an n x n matrix, row by row,
    and the svec weights: 1 on the diagonal, sqrt(2) off it. Cached, since
    `np.triu_indices` costs as much as the Schur step of a small block;
    read-only, since every caller shares them."""
    rows, cols = np.triu_indices(n)
    positions = rows * n + cols
    weights = np.where(rows == cols, 1.0, np.sqrt(2.0))
    positions.setflags(write=False)
    weights.setflags(write=False)
    return positions, weights


def _schur_matrix(problem: SdpProblem, Gs: List[np.ndarray]) -> np.ndarray:
    """M_ij = sum over blocks of tr(A_i W A_j W), where W = G G' per block.

    For a one-hot block (`OneHot`), column j of the block's term is a
    weighted sum of the entries of W A_i W at the positions A_j owns, so
    one gather (`_gather`, derived once per problem) and one segmented sum
    replace the dense contraction. W A_i needs no product: column b of it
    is v W[:, a] for the one entry v at (a, b) of A_i, the exact value of
    the product, since every other term of its sums is zero. So W A_i is
    scattered into one reused buffer, CHUNK_BYTES of constraints at a
    time, and a single batched product with W gives their W A_i W. For any
    other block the term is <H_i, H_j> with H_i = G' A_i G: the rows of B
    are svec(H_i), the upper triangles with off-diagonal entries scaled by
    sqrt(2), and the term is B B', one symmetric rank-k update (SYRK) that
    is exactly symmetric and positive semidefinite. The H_i are formed
    CHUNK_BYTES at a time, from views of a stack or from the chunks a
    `Mapped` block rebuilds, which are the stack's rows bit for bit
    (`_rows`), so only B is held in full, and B is dropped once its term
    is added: one block's B is held at a time.
    """
    p = problem.num_constraints
    M = np.zeros((p, p))
    for Ab, gather, G in zip(problem.A, problem._gathers, Gs):
        n = G.shape[0]
        step = max(1, CHUNK_BYTES // (8 * n * n))
        if not isinstance(Ab, OneHot):
            svec_positions, svec_weights = _svec_pattern(n)
            B = np.empty((p, len(svec_positions)))
            for lo in range(0, p, step):
                rows = _rows(Ab, n, lo, min(lo + step, p))
                H = np.matmul(np.matmul(G.T, rows), G)
                H = H.reshape(-1, n * n)
                np.take(H, svec_positions, axis=1, out=B[lo : lo + step])
            B *= svec_weights
            M += B @ B.T
            del B  # so that no two blocks' B are held together
            continue
        positions, weights, starts, owners = gather
        if not len(positions):
            continue
        W = G @ G.T
        W_cols = np.ascontiguousarray(W.T)  # column a of W is W_cols[a]
        # every owner in range(p) appears, as in a moment block, unless
        # some constraint has no entry in the block
        columns = slice(None) if len(owners) == p else owners
        # zero outside the entries a chunk writes, which it clears again
        WA = np.zeros((min(step, p), n, n))
        for lo in range(0, p, step):
            hi = min(lo + step, p)
            WA_chunk = WA[: hi - lo]
            (i, row, col), value = Ab.entries(lo, hi)
            WA_chunk[i, :, col] = W_cols[row] * value[:, None]
            TW = np.matmul(WA_chunk, W).reshape(hi - lo, -1)
            WA_chunk[i, :, col] = 0.0
            gathered = TW[:, positions]
            gathered *= weights
            M[lo:hi, columns] += np.add.reduceat(gathered, starts, axis=1)
    M += M.T
    M *= 0.5
    return M


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower-triangular matrix, written over L,
    which is returned. The strict upper triangle of L must be zero.

    Recursive 2x2 blocking: with L = [L11 0; L21 L22], the inverse is
    [L11^-1, 0; -L22^-1 L21 L11^-1, L22^-1], so each level is two half-size
    inverses, in place, and two matrix products, whose result replaces L21
    once they have read it. `np.linalg.inv` (a general LU) runs only on
    diagonal blocks of order TRIL_INV_LEAF or less. Those keep the
    rounding-level entries LU may leave above their diagonal, so up to that
    order the result is `np.linalg.inv(L)` itself.
    """
    n = L.shape[0]
    if n <= TRIL_INV_LEAF:
        L[...] = np.linalg.inv(L)
        return L
    h = n // 2
    _tril_inv(L[:h, :h])
    _tril_inv(L[h:, h:])
    L[h:, :h] = -L[h:, h:] @ (L[h:, :h] @ L[:h, :h])
    return L


def _schur_solver(M: np.ndarray, p: int):
    """Factorized solver for the Schur system, with iterative refinement.

    M is factored with a shift of 1e-13 times its mean diagonal entry on
    the diagonal, added in place and taken off again by writing the saved
    diagonal back, so M is unchanged bit for bit when this returns and no
    shifted copy is made. `_chol`'s jitter retry sees the shifted M;
    refinement and the least-squares fallback see M itself. The Cholesky
    factor is inverted once, over itself (`_tril_inv`), so that each
    solve and each refinement pass is two matrix-vector products.
    Refinement keeps directions accurate when M is nearly singular close to
    the boundary; falls back to least squares if the factorization fails
    outright. The solver holds M and the inverse factor, two p x p
    matrices.
    """
    fac = None
    if p:
        diagonal = M.diagonal().copy()
        M.flat[:: p + 1] += 1e-13 * max(1.0, float(np.trace(M)) / p)
        try:
            fac = _chol(M)
        finally:
            M.flat[:: p + 1] = diagonal
    fac_inv = _tril_inv(fac) if fac is not None else None

    def solve_one(rhs: np.ndarray) -> Optional[np.ndarray]:
        if not p:
            return np.zeros(0)
        if fac_inv is not None:
            sol = fac_inv.T @ (fac_inv @ rhs)
            # the norms np.linalg.norm takes, without its checks
            scale = math.sqrt(rhs @ rhs) + 1e-300
            res_norm = np.inf
            for _ in range(4):
                r = rhs - M @ sol
                rn = math.sqrt(r @ r)
                if rn <= 1e-14 * scale or rn >= res_norm:
                    break
                res_norm = rn
                sol = sol + fac_inv.T @ (fac_inv @ r)
            return sol
        try:
            return np.linalg.lstsq(M, rhs, rcond=None)[0]
        except np.linalg.LinAlgError:
            return None

    return solve_one


def _result(
    snapshot: dict,
    status: SdpStatus,
    iterations: int,
    message: str = "",
    accuracy: str = "target",
) -> SdpSolution:
    """The solution (X, y, S) / tau of an iterate of the embedding, with
    the residuals it was judged on. `snapshot` is the record that `solve`
    makes of each iterate."""
    tau, pobj, dobj = snapshot["tau"], snapshot["pobj"], snapshot["dobj"]
    return SdpSolution(
        status=status,
        X=[Xb / tau for Xb in snapshot["X"]],
        dual=snapshot["y"] / tau,
        Z=[Sb / tau for Sb in snapshot["S"]],
        primal_value=pobj,
        dual_value=dobj,
        gap=abs(pobj - dobj) / (1.0 + abs(pobj)),
        iterations=iterations,
        residuals=snapshot["residuals"],
        message=message,
        accuracy=accuracy,
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

    Every exit but an improving ray builds its result from the record of
    one iterate (`_result`): the optimal one, the best one when the loop
    stops inside the stall band, and otherwise the last one.

    The p x p Schur matrix and its factor set the working memory, and one
    Schur system is held at a time: the last iteration's solver is dropped
    before the next M is built, and `_schur_solver` shifts M in place and
    inverts the factor over itself. So at most three p x p matrices
    are live at once: M and B B' next to one dense block's B while M is
    formed (`_schur_matrix`), M and the copy of its transpose while M is
    symmetrized, or M, its factor and a jitter retry's sum while M is
    factored.
    """
    opts = options or SolverOptions()
    b, C = problem.b, problem.C
    p, dims = problem.num_constraints, problem.block_dims
    norm_b = max(1.0, float(np.max(np.abs(b))) if p else 0.0)
    norm_C = max(1.0, max(float(np.max(np.abs(Cb))) for Cb in C))

    eta = 1.0
    if p:
        # the largest Frobenius norm of a constraint, its squares summed
        # over the blocks in block order
        squares = [
            [
                float(np.sum(Ai ** 2))
                for _, _, Ab in _constraint_chunks(problem, k)
                for Ai in Ab
            ]
            for k in range(len(dims))
        ]
        eta = max(1.0, max(float(np.sqrt(sum(norms))) for norms in zip(*squares)))
    X = [np.eye(d) for d in dims]
    S = [eta * np.eye(d) for d in dims]
    y = np.zeros(p)
    tau, kappa = 1.0, 1.0
    nu = sum(dims) + 1.0
    # order classes of the X blocks followed by the S blocks
    classes = _order_classes([*dims, *dims])
    # Cholesky factors of [*X, *S] (`_chol_blocks`); each step factors its
    # own end point. At the start they cannot fail: X is I and S is eta I,
    # and an infinite eta makes the first pass stop at its nonfinite mu
    Ls = _chol_blocks([*X, *S], classes)

    status = SdpStatus.MAX_ITERATIONS
    message = ""
    # iterations run: Newton systems formed, whether or not a step follows
    iterations = 0
    stall_best: Optional[dict] = None
    stall_score = np.inf
    since_improved = 0

    # every pass but the last ends in a step or a break; the last records
    # the end point of the last step allowed and stops before any test
    for passes in range(MAX_ITERATIONS + 1):
        AX = _apply_A(problem, X)
        rp = b * tau - AX
        Aty = _apply_At(problem, y)
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
        # the iterate is divided by tau only when a result is built from it
        snapshot = {
            "X": X,
            "S": S,
            "y": y,
            "tau": tau,
            "pobj": pobj,
            "dobj": dobj,
            "residuals": {
                "primal": err_p,
                "dual": err_d,
                "gap": err_gap,
                "complementarity": err_comp,
            },
        }
        if passes == MAX_ITERATIONS:
            break

        if not (np.isfinite(pobj) and np.isfinite(dobj) and np.isfinite(mu)):
            status, message = SdpStatus.NUMERICAL_FAILURE, "nonfinite iterate"
            break

        score = max(err_p, err_d, err_gap, 0.1 * err_comp)
        if np.isfinite(score) and score < 0.9 * stall_score:
            stall_score = score
            since_improved = 0
            stall_best = snapshot
        else:
            since_improved += 1
            if since_improved >= STALL_WINDOW:
                message = "no progress"
                break

        if (
            err_p <= opts.feas_tol
            and err_d <= opts.feas_tol
            and err_gap <= opts.gap_tol
            and err_comp <= 10 * opts.gap_tol
        ):
            return _result(snapshot, SdpStatus.OPTIMAL, iterations)

        # improving-ray tests on the homogeneous iterate (scale invariant)
        if by > 0.0 and p:
            ray_res = max(
                float(np.max(np.abs(Ab + Sb))) for Ab, Sb in zip(Aty, S)
            )
            if ray_res <= INFEAS_RAY_TOL * by:
                return SdpSolution(
                    status=SdpStatus.INFEASIBLE,
                    X=None,
                    dual=None,
                    Z=None,
                    primal_value=np.inf,
                    dual_value=np.inf,
                    gap=np.inf,
                    iterations=iterations,
                    ray_dual=(y / by, [Sb / by for Sb in S]),
                    message="dual improving ray found",
                )
        ctx = -cx
        if ctx > 0.0:
            ray_res = float(np.max(np.abs(AX))) if p else 0.0
            if ray_res <= INFEAS_RAY_TOL * ctx:
                return SdpSolution(
                    status=SdpStatus.UNBOUNDED,
                    X=None,
                    dual=None,
                    Z=None,
                    primal_value=-np.inf,
                    dual_value=-np.inf,
                    gap=np.inf,
                    iterations=iterations,
                    ray_primal=[Xb / ctx for Xb in X],
                    message="primal improving ray found",
                )
        if tau < 1e-12 * max(1.0, kappa):
            status = SdpStatus.NUMERICAL_FAILURE
            message = "embedding collapsed without a clean certificate"
            break

        iterations += 1
        Gs, Gis, sigmas, Ws = _nt_scale(Ls, classes)

        # the last iteration's solver holds its M and inverse factor; they
        # go before the next M is built, so one Schur system is held at a time
        msolve = Mi_v = None
        msolve = _schur_solver(_schur_matrix(problem, Gs), p)

        WCW = [W @ Cb @ W for W, Cb in zip(Ws, C)]
        u = _apply_A(problem, WCW)
        q = _inner(C, WCW)
        v_rhs = b + u
        Mi_v = msolve(v_rhs)
        WRdW = [W @ R @ W for W, R in zip(Ws, Rd)]
        A_WRdW = _apply_A(problem, WRdW)
        C_WRdW = _inner(C, WRdW)
        diff = u - b

        def direction(
            sigma: float, Rc: List[np.ndarray], A_Rc: np.ndarray, r5: float
        ):
            """Solve the embedding's Newton system by eliminating dS, dX,
            dkappa and bordering the Schur system with the dtau column.
            `A_Rc` is (<A_i, Rc>)_i."""
            one_m = 1.0 - sigma
            r1 = -A_Rc + one_m * (A_WRdW + rp)
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
            Atdy = _apply_At(problem, dy)
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
            a = _max_step(Ls, [*dX, *dS], classes)
            if dtau < 0.0:
                a = min(a, -tau / dtau)
            if dkappa < 0.0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor: sigma = 0, Rc = -X, so A(Rc) = -A(X), negation being exact
        aff = direction(0.0, [-Xb for Xb in X], -AX, -tau * kappa)
        message = _direction_failure(aff)
        if message:
            status = SdpStatus.NUMERICAL_FAILURE
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
        sigma = min(max((max(mu_aff, 0.0) / mu) ** 3, 1e-8), 1.0)

        # corrector; the tau-kappa row gets its own second-order term
        Rc = _corrector_rhs(Gs, Gis, sigmas, dX_a, dS_a, sigma * mu)
        r5 = sigma * mu - tau * kappa - dtau_a * dkap_a
        step = direction(sigma, Rc, _apply_A(problem, Rc), r5)
        message = _direction_failure(step)
        if message:
            status = SdpStatus.NUMERICAL_FAILURE
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
            finite = _finite([*X_t, *S_t, y_t, np.array([tau_t, kappa_t])])
            Ls_t = _chol_blocks([*X_t, *S_t], classes) if finite else None
            if Ls_t is not None:
                break
            a *= 0.5
        else:
            status = SdpStatus.NUMERICAL_FAILURE
            message = "Cholesky breakdown" if finite else "nonfinite iterate"
            break
        X, S, y, tau, kappa, Ls = X_t, S_t, y_t, tau_t, kappa_t, Ls_t

    res = stall_best["residuals"] if stall_best is not None else None
    if (
        res is not None
        and res["primal"] <= STALL_FEAS_TOL
        and res["dual"] <= STALL_FEAS_TOL
        and res["gap"] <= STALL_GAP_TOL
    ):
        # stalled short of the target tolerances but within the declared
        # fallback band: report optimal at reduced accuracy. `iterations`
        # counts every iteration run, also those past the accepted iterate
        return _result(
            stall_best,
            SdpStatus.OPTIMAL,
            iterations,
            f"stalled near optimum ({message or status.value}); "
            f"accepted at feas {max(res['primal'], res['dual']):.1e}, "
            f"gap {res['gap']:.1e}",
            "stall_band",
        )
    return _result(snapshot, status, iterations, message or "iteration limit reached")
