"""Pseudo-moment sequences, Riesz functional, moment/localizing matrices.

A MomentVector holds y = (y_alpha) for |alpha| <= 2d in graded-lex order.
Nothing here assumes y comes from a measure; that is the point of the
downstream relaxations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .poly import (
    Monomial,
    Polynomial,
    PreconditionFailure,
    _monomial_values,
    basis_size,
    monomial_basis,
)
from .sdp import numeric_rank


@lru_cache(maxsize=None)
def _basis_and_index(n: int, d: int) -> Tuple[Tuple[Monomial, ...], Dict[Monomial, int]]:
    basis = tuple(monomial_basis(n, d))
    return basis, {alpha: i for i, alpha in enumerate(basis)}


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
        basis, _ = _basis_and_index(n, 2 * order)
        atoms = _monomial_values(points, np.array(basis))
        # a numpy sum, not a BLAS product: independent of the thread count
        vals = (np.asarray(weights, dtype=float)[:, None] * atoms).sum(axis=0)
        return MomentVector(n, order, vals, provenance="measure")

    # ---- indexing --------------------------------------------------------

    def index_of(self, alpha: Monomial) -> int:
        _, idx = _basis_and_index(self.n, 2 * self.order)
        key = tuple(alpha)
        if key not in idx:
            raise PreconditionFailure(
                "degree within 2*order", f"{key} exceeds {2 * self.order}"
            )
        return idx[key]

    @property
    def y0(self) -> float:
        return float(self.values[0])

    def entry(self, alpha: Monomial) -> float:
        return float(self.values[self.index_of(alpha)])

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
    total = 0.0
    for alpha, c in p.terms.items():
        total += c * y.values[y.index_of(alpha)]
    return total


def moment_matrix(y: MomentVector, d: int) -> np.ndarray:
    """M_d(y)(alpha, beta) = y_{alpha+beta} over the graded-lex basis."""
    if d > y.order:
        raise PreconditionFailure("d <= order(y)", f"{d} > {y.order}")
    basis, idx = _basis_and_index(y.n, d)
    _, full_idx = _basis_and_index(y.n, 2 * y.order)
    s = len(basis)
    M = np.empty((s, s))
    for i, a in enumerate(basis):
        for j in range(i, s):
            b = basis[j]
            v = y.values[full_idx[tuple(x + z for x, z in zip(a, b))]]
            M[i, j] = v
            M[j, i] = v
    return M


def localizing_matrix(y: MomentVector, g: Polynomial, d: int) -> np.ndarray:
    """M_d(g y)(alpha, beta) = sum_gamma g_gamma y_{alpha+beta+gamma}."""
    if g.n != y.n:
        raise PreconditionFailure("matching variable counts", f"{g.n} vs {y.n}")
    if 2 * d + g.degree() > 2 * y.order:
        raise PreconditionFailure(
            "2d + deg g <= 2*order(y)", f"{2 * d + g.degree()} > {2 * y.order}"
        )
    basis, _ = _basis_and_index(y.n, d)
    _, full_idx = _basis_and_index(y.n, 2 * y.order)
    s = len(basis)
    M = np.zeros((s, s))
    for i, a in enumerate(basis):
        for j in range(i, s):
            b = basis[j]
            v = 0.0
            for gamma, c in g.terms.items():
                key = tuple(x + z + w for x, z, w in zip(a, b, gamma))
                v += c * y.values[full_idx[key]]
            M[i, j] = v
            M[j, i] = v
    return M


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
