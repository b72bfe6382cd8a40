"""Pseudo-moment sequences, Riesz functional, moment/localizing matrices.

A MomentVector holds y = (y_alpha) for |alpha| <= 2d in graded-lex order.
Nothing here assumes y comes from a measure; that is the point of the
downstream relaxations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .poly import (
    Monomial,
    Polynomial,
    PreconditionFailure,
    _grlex_index,
    _monomial_values,
    basis_size,
    monomial_basis,
)
from .sdp import numeric_rank


@lru_cache(maxsize=None)
def _basis(n: int, d: int) -> np.ndarray:
    """monomial_basis(n, d) as a read-only (s(d), n) exponent array."""
    exponents = np.array(monomial_basis(n, d), dtype=int).reshape(-1, n)
    exponents.flags.writeable = False
    return exponents


class MomentPattern(NamedTuple):
    """S(g z)[row, col] = sum of coef * z[index] over the entries, one per
    (row, col, term gamma of g) in that lexicographic order; `index` is the
    graded-lex position of exponent = alpha_row + alpha_col + gamma."""

    row: np.ndarray
    col: np.ndarray
    exponent: np.ndarray
    index: np.ndarray
    coef: np.ndarray


def _moment_pattern(
    basis, g: Optional[Polynomial] = None, upper: bool = False
) -> MomentPattern:
    """The pattern of S(g z), or of S(z) when g is None, over the exponent
    rows `basis`; with `upper`, only its entries with row <= col. Every
    moment, localizing, Gram and coefficient-row builder reads it, summing in
    entry order (`np.add.at`, `np.bincount`) as the loops it replaced did."""
    basis = np.asarray(basis, dtype=int)
    s, n = basis.shape
    if upper:
        rows, cols = np.triu_indices(s)
    else:
        rows, cols = np.divmod(np.arange(s * s), s)
    if g is None:
        gammas, coefs = np.zeros((1, n), dtype=int), np.ones(1)
    else:
        gammas, coefs = g.exponents, g.coefficients
    exponent = (basis[rows, None] + basis[cols, None] + gammas).reshape(-1, n)
    return MomentPattern(
        np.repeat(rows, len(coefs)),
        np.repeat(cols, len(coefs)),
        exponent,
        _grlex_index(exponent),
        np.tile(coefs, len(rows)),
    )


@dataclass
class BlockSpec:
    """A moment or localizing block S(g z) = sum_t coef[t] z[index[t]], in
    layers, one per term t of g: index[t] holds the graded-lex moment index
    of each entry, alpha_row + alpha_col + gamma_t, and coef[t] is the
    coefficient of gamma_t in g.

    A block built by `from_pattern` keeps its exponent rows `basis` and its
    `weight` g (the constant 1 for a moment block): the dual Gram matrix of
    the block multiplies weight * z_basis' G z_basis, which is how
    `_compile.MomentSdp.certificate` reads the identity off a solve. A block
    given as raw layers has neither."""

    label: str
    index: np.ndarray  # (k, dim, dim)
    coef: np.ndarray  # (k,)
    basis: Optional[np.ndarray] = None  # (dim, n) exponent rows
    weight: Optional[Polynomial] = None

    @staticmethod
    def from_pattern(
        label: str, basis, g: Optional[Polynomial] = None
    ) -> "BlockSpec":
        """S(g z), or S(z) when g is None, over the exponent rows `basis`."""
        basis = np.asarray(basis, dtype=int)
        if g is None:
            g = Polynomial.constant(basis.shape[1], 1.0)
        index = _moment_pattern(basis, g).index.reshape(len(basis), len(basis), -1)
        index = np.ascontiguousarray(np.moveaxis(index, 2, 0))
        return BlockSpec(label, index, g.coefficients, basis, g)

    @property
    def dim(self) -> int:
        return self.index.shape[1]

    def apply(self, Z: np.ndarray) -> np.ndarray:
        """sum_t coef[t] Z[..., index[t]]: the block at each moment vector
        on the last axis of Z, summed over the terms in order.

        The first term is gathered into the result and each later one into
        one reused layer, so no temporary beyond that layer is held. 0.0 is
        added to the first term, as a sum started from 0 adds it, which
        makes a -0.0 there +0.0. A block of no terms (g = 0) is zero."""
        Z = np.asarray(Z, dtype=float)
        if not len(self.coef):
            return np.zeros(Z.shape[:-1] + self.index.shape[1:])
        if self.index.max() >= Z.shape[-1]:
            raise IndexError(
                f"moment index {self.index.max()} out of range for "
                f"{Z.shape[-1]} moments"
            )
        out = np.take(Z, self.index[0], axis=-1)
        out *= self.coef[0]
        out += 0.0
        layer = np.empty_like(out) if len(self.coef) > 1 else None
        for c, idx in zip(self.coef[1:], self.index[1:]):
            # mode="clip" writes to out directly ("raise" would buffer it);
            # the indices were checked above
            np.take(Z, idx, axis=-1, out=layer, mode="clip")
            layer *= c
            out += layer
        return out

    def adjoint(self, X: np.ndarray, s: int) -> np.ndarray:
        """The adjoint of `apply` at one (dim, dim) matrix X, a vector of
        s moments: entry m is sum_t coef[t] times the sum of X over the
        positions where index[t] holds m, so <apply(z), X> = z' adjoint(X)."""
        weights = (self.coef[:, None, None] * X).ravel()
        return np.bincount(self.index.ravel(), weights, s)


@dataclass(frozen=True)
class MomentVector:
    """Truncated pseudo-moment sequence over N^n_{2*order}.

    `provenance` records how the vector was produced; "interior_point"
    marks solver output, which matters for the flatness caveat below.
    """

    n: int
    order: int
    values: np.ndarray
    provenance: str = "constructed"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        expected = basis_size(self.n, 2 * self.order)
        if vals.shape != (expected,):
            raise PreconditionFailure(
                "length exactly s(2d)", f"{vals.shape} vs ({expected},)"
            )

    # ---- constructors ---------------------------------------------------

    @staticmethod
    def from_point(x: Sequence[float], order: int) -> "MomentVector":
        """Moments of the Dirac measure at x."""
        return MomentVector.from_mixture([x], [1.0], order)

    @staticmethod
    def from_mixture(
        points: Sequence[Sequence[float]],
        weights: Sequence[float],
        order: int,
    ) -> "MomentVector":
        """Moments of sum_k w_k * Dirac(x_k); weights need not sum to 1."""
        points = np.asarray(points, dtype=float)
        if len(points) == 0:
            raise PreconditionFailure("at least one atom")
        n = points.shape[1]
        atoms = _monomial_values(points, _basis(n, 2 * order))
        # a numpy sum, not a BLAS product: independent of the thread count
        vals = (np.asarray(weights, dtype=float)[:, None] * atoms).sum(axis=0)
        return MomentVector(n, order, vals, provenance="measure")

    # ---- indexing --------------------------------------------------------

    def index_of(self, alpha: Monomial) -> int:
        key = np.array([alpha], dtype=int)
        if key.shape != (1, self.n) or key.min() < 0 or key.sum() > 2 * self.order:
            raise PreconditionFailure(
                "degree within 2*order", f"{tuple(alpha)} exceeds {2 * self.order}"
            )
        return int(_grlex_index(key)[0])

    @property
    def y0(self) -> float:
        return float(self.values[0])

    def to_json(self) -> dict:
        return {"n": self.n, "order": self.order, "values": self.values.tolist()}

    @staticmethod
    def from_json(data: dict) -> "MomentVector":
        return MomentVector(
            int(data["n"]),
            int(data["order"]),
            np.asarray(data["values"], dtype=float),
            provenance=data.get("provenance", "constructed"),
        )


def riesz(y: MomentVector, p: Polynomial) -> float:
    """L_y(p) = sum_alpha p_alpha y_alpha."""
    if p.n != y.n:
        raise PreconditionFailure("matching variable counts", f"{p.n} vs {y.n}")
    if p.degree() > 2 * y.order:
        raise PreconditionFailure(
            "deg(p) <= 2*order(y)", f"{p.degree()} > {2 * y.order}"
        )
    # term by term, in stored order: no BLAS dot, whose rounding would
    # depend on the thread count
    total = 0.0
    for c, v in zip(p.coefficients.tolist(), y.values[_grlex_index(p.exponents)]):
        total += c * v
    return total


def moment_matrix(y: MomentVector, d: int) -> np.ndarray:
    """M_d(y)(alpha, beta) = y_{alpha+beta} over the graded-lex basis."""
    if d > y.order:
        raise PreconditionFailure("d <= order(y)", f"{d} > {y.order}")
    return y.values[_moment_matrix_index(y.n, d)]


@lru_cache(maxsize=None)
def _moment_matrix_index(n: int, d: int) -> np.ndarray:
    """The moment index of each entry of M_d, read-only."""
    index = BlockSpec.from_pattern("moment", _basis(n, d)).index[0]
    index.flags.writeable = False
    return index


def localizing_matrix(y: MomentVector, g: Polynomial, d: int) -> np.ndarray:
    """M_d(g y)(alpha, beta) = sum_gamma g_gamma y_{alpha+beta+gamma}."""
    if g.n != y.n:
        raise PreconditionFailure("matching variable counts", f"{g.n} vs {y.n}")
    if 2 * d + g.degree() > 2 * y.order:
        raise PreconditionFailure(
            "2d + deg g <= 2*order(y)", f"{2 * d + g.degree()} > {2 * y.order}"
        )
    return BlockSpec.from_pattern("localizing", _basis(y.n, d), g).apply(y.values)


class FlatnessReport(NamedTuple):
    rank_d: int
    rank_dm1: int
    flat: bool
    caveat: bool


def flatness(y: MomentVector, d: int, tau: float = 1e-6) -> FlatnessReport:
    """Rank comparison rank M_d(y) == rank M_{d-1}(y) at threshold tau.

    `caveat` is True when the vector came from an interior-point solve:
    such solutions take the maximum-rank point of the optimal face, so a
    failed rank test there says nothing about exactness. The flag is set
    mechanically from provenance.
    """
    if d < 1:
        raise PreconditionFailure("d >= 1", str(d))
    rank_d = numeric_rank(moment_matrix(y, d), tau)
    rank_dm1 = numeric_rank(moment_matrix(y, d - 1), tau)
    return FlatnessReport(
        rank_d=rank_d,
        rank_dm1=rank_dm1,
        flat=rank_d == rank_dm1,
        caveat=y.provenance == "interior_point",
    )


def mean_point(y: MomentVector) -> np.ndarray:
    """The vector (L_y(X_1), ..., L_y(X_n)) of first-order pseudo-moments."""
    if y.order < 1:
        raise PreconditionFailure("order >= 1")
    if abs(y.y0 - 1.0) > 1e-9:
        raise PreconditionFailure("y0 = 1", f"y0 = {y.y0!r}")
    return np.array(y.values[1 : y.n + 1])
