"""Sparse multivariate polynomial arithmetic and calculus.

Monomials are exponent tuples alpha in N^n; a polynomial stores its terms
as an exponent array and a coefficient vector. Everything downstream
(moment matrices, Gram bases, SDP lifts) indexes into the
graded-lexicographic monomial basis produced by :func:`monomial_basis`,
whose positions `_grlex_index` computes, so that ordering is fixed here once
and never revisited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]

# Input coefficients with magnitude at or below this are dropped by `make`
# and `from_json`, and printed terms by `__str__`; arithmetic never prunes.
ZERO_TOL = 1e-12


class PreconditionFailure(ValueError):
    """An operation's precondition failed; `clause` names which one."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        msg = clause if not detail else f"{clause}: {detail}"
        super().__init__(msg)


def monomial_basis(n: int, d: int) -> List[Monomial]:
    """All monomials of degree <= d in n variables, graded-lex ordered.

    Size is s(d) = C(n+d, d); the constant monomial comes first.
    """
    if n < 1:
        raise PreconditionFailure("n >= 1", f"got n={n}")
    if d < 0:
        raise PreconditionFailure("d >= 0", f"got d={d}")
    basis: List[Monomial] = []
    for k in range(d + 1):
        for combo in combinations_with_replacement(range(n), k):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            basis.append(tuple(alpha))
    return basis


def basis_size(n: int, d: int) -> int:
    """s(d) = C(n+d, d), the dimension of R[X]_d."""
    return math.comb(n + d, d)


@lru_cache(maxsize=None)
def _binomials(rows: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only table C(t + n-j-1, n-j) for t < rows and j < n, flat
    at j * rows + t, and the offsets j * rows."""
    table = np.array(
        [math.comb(t + n - j - 1, n - j) for j in range(n) for t in range(rows)]
    )
    table.flags.writeable = False
    return table, np.arange(n) * rows


def _grlex_index(exponents: np.ndarray) -> np.ndarray:
    """Position of each exponent row in the graded-lex order of
    monomial_basis, the same for every degree bound: the sum over variables
    j of C(t_j + n-j-1, n-j), with t_j the row's degree in variables j..n-1
    (monomials of lower degree for j = 0, then those of equal degree that
    agree with the row before variable j-1 and exceed it there)."""
    tails = np.cumsum(exponents[:, ::-1], axis=1)[:, ::-1]
    rows = int(tails[:, 0].max(initial=0)) + 1
    table, offsets = _binomials(rows, exponents.shape[1])
    return table[tails + offsets].sum(axis=1)


def _monomial_values(points: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """out[k, t] = prod_i points[k, i] ** exponents[t, i] for points (N, n)
    and exponents (T, n).

    Powers come from a table built by repeated multiplication: numpy's
    array `**` is not bit-identical to libm `pow`. Products run over the
    variables in order and no BLAS call is made, so a value depends neither
    on the batch size nor on the BLAS thread count.
    """
    out = np.ones((len(points), len(exponents)))
    for i, column in enumerate(exponents.T):
        top = int(column.max(initial=0))
        if top == 0:
            continue
        powers = np.ones((top + 1, len(points)))
        for e in range(1, top + 1):
            powers[e] = powers[e - 1] * points[:, i]
        out *= powers[column].T
    return out


@dataclass(frozen=True, eq=False)
class Polynomial:
    """Sparse real polynomial in n variables.

    Term t is coefficients[t] * X^exponents[t], with `exponents` a read-only
    (T, n) integer array of distinct rows and `coefficients` a read-only
    (T,) vector of nonzeros. Instances are immutable. Arithmetic merges
    equal monomials and drops only exact zeros; coefficients at or below
    ZERO_TOL are dropped only at input (`make`, `from_json`).
    """

    n: int
    exponents: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        self.exponents.flags.writeable = False
        self.coefficients.flags.writeable = False

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_arrays(n: int, exponents, coefficients) -> "Polynomial":
        """sum_t coefficients[t] X^exponents[t] over exponent rows (T, n).

        Equal rows are summed in input order, from 0.0 (`np.bincount`), as
        a dict accumulated term by term would; terms keep their first
        appearance, and only exact zeros are dropped."""
        exponents = np.asarray(exponents, dtype=int).reshape(-1, n)
        _, first, inverse = np.unique(
            _grlex_index(exponents), return_index=True, return_inverse=True
        )
        sums = np.bincount(inverse, weights=coefficients, minlength=len(first))
        order = np.argsort(first)
        order = order[sums[order] != 0.0]
        return Polynomial(n, exponents[first[order]], sums[order])

    @staticmethod
    def sum_of(n: int, polys: Iterable["Polynomial"]) -> "Polynomial":
        """The sum of `polys`, merged once over all their terms in order."""
        polys = [Polynomial.zero(n), *polys]
        return Polynomial.from_arrays(
            n,
            np.concatenate([p.exponents for p in polys]),
            np.concatenate([p.coefficients for p in polys]),
        )

    @staticmethod
    def make(n: int, terms: Mapping[Monomial, float]) -> "Polynomial":
        """The polynomial of an input map from distinct monomials alpha to
        coefficients, without those at or below ZERO_TOL in magnitude."""
        for alpha in terms:
            if len(alpha) != n:
                raise PreconditionFailure(
                    "monomial length equals variable count", f"{alpha} vs n={n}"
                )
            if any(e < 0 or e != int(e) for e in alpha):
                raise PreconditionFailure("exponents nonnegative integers", str(alpha))
        exponents = np.array(list(terms), dtype=int).reshape(len(terms), n)
        coefficients = np.array(list(terms.values()), dtype=float)
        keep = np.abs(coefficients) > ZERO_TOL
        return Polynomial(n, exponents[keep], coefficients[keep])

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, np.zeros((0, n), dtype=int), np.zeros(0))

    @staticmethod
    def constant(n: int, c: float) -> "Polynomial":
        return Polynomial(n, np.zeros((1, n), dtype=int), np.ones(1)) * float(c)

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The coordinate polynomial X_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise PreconditionFailure("variable index in range", f"i={i}, n={n}")
        return Polynomial.monomial(n, tuple(int(k == i) for k in range(n)))

    @staticmethod
    def monomial(n: int, alpha: Monomial, c: float = 1.0) -> "Polynomial":
        return Polynomial.make(n, {tuple(alpha): 1.0}) * float(c)

    # ---- basic queries ------------------------------------------------

    @cached_property
    def terms(self) -> Mapping[Monomial, float]:
        """The terms as a read-only map from exponent tuple to coefficient,
        in stored order."""
        keys = map(tuple, self.exponents.tolist())
        return MappingProxyType(dict(zip(keys, self.coefficients.tolist())))

    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        return int(self.exponents.sum(axis=1).max(initial=0))

    def l1_norm(self) -> float:
        return sum(np.abs(self.coefficients).tolist())

    def coeff(self, alpha: Monomial) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def is_zero(self) -> bool:
        return not len(self.coefficients)

    def __call__(self, x: Sequence[float]) -> float:
        return self.eval(x)

    def eval(self, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
        """Value at one point x of shape (n,), as a float, or at a batch of
        points of shape (N, n), as an array of shape (N,).

        Terms are summed in stored order; a point's value does not depend
        on the batch it comes in.
        """
        pts = np.asarray(x, dtype=float)
        if pts.ndim not in (1, 2) or pts.shape[-1] != self.n:
            raise PreconditionFailure("dim(x) = n", f"{pts.shape} vs {self.n}")
        batch = pts.reshape(-1, self.n)
        values = _monomial_values(batch, self.exponents)
        total = np.zeros(len(batch))
        for t, c in enumerate(self.coefficients.tolist()):
            total += c * values[:, t]
        return total if pts.ndim == 2 else float(total[0])

    # ---- ring operations ----------------------------------------------

    def _check_same_n(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise PreconditionFailure(
                "matching variable counts", f"{self.n} vs {other.n}"
            )

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        self._check_same_n(other)
        return Polynomial.from_arrays(
            self.n,
            np.concatenate([self.exponents, other.exponents]),
            np.concatenate([self.coefficients, other.coefficients]),
        )

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, self.exponents, -self.coefficients)

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            coefficients = self.coefficients * other
            keep = coefficients != 0.0
            return Polynomial(self.n, self.exponents[keep], coefficients[keep])
        self._check_same_n(other)
        return Polynomial.from_arrays(
            self.n,
            self.exponents[:, None] + other.exponents[None],
            np.multiply.outer(self.coefficients, other.coefficients).reshape(-1),
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise PreconditionFailure("exponent >= 0", str(k))
        result = Polynomial.constant(self.n, 1.0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # ---- calculus -----------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to X_{i+1}."""
        if not 0 <= i < self.n:
            raise PreconditionFailure("variable index in range", f"i={i}")
        rows = self.exponents[:, i] > 0
        exponents = self.exponents[rows]
        coefficients = self.coefficients[rows] * exponents[:, i]
        exponents[:, i] -= 1
        return Polynomial(self.n, exponents, coefficients)

    def gradient(self) -> List["Polynomial"]:
        return [self.diff(i) for i in range(self.n)]

    def hessian(self) -> List[List["Polynomial"]]:
        grad = self.gradient()
        hess = [[None] * self.n for _ in range(self.n)]
        for i in range(self.n):
            for j in range(i, self.n):
                hij = grad[i].diff(j)
                hess[i][j] = hij
                hess[j][i] = hij
        return hess

    def hessian_at(self, x: np.ndarray) -> np.ndarray:
        """Hessian matrices at a batch of points (N, n), as (N, n, n)."""
        H = [[h.eval(x) for h in row] for row in self.hessian()]
        return np.moveaxis(np.array(H), -1, 0)

    def compose_univariate(self, inner: "Polynomial") -> "Polynomial":
        """Substitute `inner` for the single variable of this polynomial.

        Requires n == 1; returns a polynomial in inner.n variables.
        """
        if self.n != 1:
            raise PreconditionFailure("univariate outer polynomial", f"n={self.n}")
        result = Polynomial.zero(inner.n)
        power = Polynomial.constant(inner.n, 1.0)
        degrees = self.exponents[:, 0].tolist()
        prev = 0
        for k, c in sorted(zip(degrees, self.coefficients.tolist())):
            for _ in range(k - prev):
                power = power * inner
            prev = k
            result = result + c * power
        return result

    # ---- rendering / serialization -------------------------------------

    def _grlex_terms(self) -> List[Tuple[Monomial, float]]:
        """(alpha, coefficient) of every stored term, graded-lex ordered."""
        order = np.argsort(_grlex_index(self.exponents))
        keys = map(tuple, self.exponents[order].tolist())
        return list(zip(keys, self.coefficients[order].tolist()))

    def __str__(self) -> str:
        parts = []
        for alpha, c in self._grlex_terms():
            if abs(c) <= ZERO_TOL:
                continue
            mono = "*".join(
                f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(alpha)
                if e
            )
            if mono:
                parts.append(f"{c:+g}*{mono}")
            else:
                parts.append(f"{c:+g}")
        out = " ".join(parts) or "0"
        return out[1:] if out.startswith("+") else out

    def to_json(self) -> List[dict]:
        """List of {"exponents": [...], "coeff": c}, graded-lex ordered,
        one per stored term."""
        return [
            {"exponents": list(alpha), "coeff": c}
            for alpha, c in self._grlex_terms()
        ]

    @staticmethod
    def from_json(n: int, data: Iterable[dict]) -> "Polynomial":
        """Parse the serialized term list; duplicate monomials are an error."""
        terms: Dict[Monomial, float] = {}
        for item in data:
            alpha = tuple(item["exponents"])
            if len(alpha) != n:
                raise PreconditionFailure(
                    "monomial length equals variable count", str(alpha)
                )
            if alpha in terms:
                raise PreconditionFailure("no duplicate monomials", str(alpha))
            terms[alpha] = float(item["coeff"])
        return Polynomial.make(n, terms)


@dataclass(frozen=True)
class SemialgebraicSet:
    """K = {x in R^n : g_j(x) >= 0 for all j}, optionally with a ball bound.

    `ball_bound` M records that |x| <= M on K, used for the redundant
    Archimedean constraint M^2 - |X|^2 and for sampling boxes.
    """

    n: int
    constraints: Tuple[Polynomial, ...]
    ball_bound: Optional[float] = None

    def __post_init__(self):
        # m = 0 is allowed: K is all of R^n
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for g in self.constraints:
            if g.n != self.n:
                raise PreconditionFailure(
                    "all g_j share variable count", f"{g.n} vs {self.n}"
                )
            if g.is_zero():
                raise PreconditionFailure("constraints nonzero")
        if self.ball_bound is not None and not self.ball_bound > 0:
            raise PreconditionFailure("ball_bound strictly positive")

    @property
    def m(self) -> int:
        return len(self.constraints)

    def half_degrees(self) -> List[int]:
        """r_j = ceil(deg g_j / 2) for each constraint."""
        return [(g.degree() + 1) // 2 for g in self.constraints]

    def contains(self, x: Sequence[float] | np.ndarray, tol: float = 0.0):
        """Membership of one point (a bool) or of each point of an (N, n)
        batch (a bool array)."""
        inside = np.ones(np.shape(x)[:-1], dtype=bool)
        for g in self.constraints:
            inside &= g.eval(x) >= -tol
        return inside if inside.ndim else bool(inside)

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "constraints": [g.to_json() for g in self.constraints],
        }
        if self.ball_bound is not None:
            out["ball_bound"] = self.ball_bound
        return out

    @staticmethod
    def from_json(data: dict) -> "SemialgebraicSet":
        n = int(data["n"])
        gs = tuple(Polynomial.from_json(n, g) for g in data["constraints"])
        return SemialgebraicSet(n, gs, data.get("ball_bound"))


# ---- the perturbation and averaged-Hessian constructions ----------------


def theta_polynomial(n: int, r: int) -> Polynomial:
    """theta_r(X) = 1 + sum_{k=1..r} sum_i X_i^{2k} / k!."""
    if r < 0:
        raise PreconditionFailure("r >= 0", str(r))
    exponents, weights = [np.zeros((1, n), dtype=int)], [1.0]
    for k in range(1, r + 1):
        exponents.append(2 * k * np.eye(n, dtype=int))
        weights += [1.0 / math.factorial(k)] * n
    return Polynomial.from_arrays(n, np.vstack(exponents), weights)


def theta_perturbation(f: Polynomial, eps: float, r: int) -> Polynomial:
    """f + eps*(theta_{r0} + theta_r) with r0 = floor(deg f / 2) + 1.

    The perturbation dominates f's top degree, making the sum coercive;
    requires r >= r0 so the added tail really is the higher-order one.
    """
    if not eps > 0:
        raise PreconditionFailure("eps > 0", str(eps))
    r0 = f.degree() // 2 + 1
    if r < r0:
        raise PreconditionFailure("r >= floor(deg f / 2) + 1", f"r={r} < r0={r0}")
    return f + eps * (theta_polynomial(f.n, r0) + theta_polynomial(f.n, r))


def _ray_average(h: Polynomial) -> Polynomial:
    """int_0^1 int_0^t h(sX) ds dt: a term of degree k is divided by
    int_0^1 int_0^t s^k ds dt = 1/((k+1)(k+2)), in stored order."""
    k = h.exponents.sum(axis=1)
    return Polynomial(h.n, h.exponents, h.coefficients / ((k + 1) * (k + 2)))


def _translate(p: Polynomial, u: Sequence[float]) -> Polynomial:
    """p(X + u), with (X_i + u_i)^e = sum_b C(e, b) u_i^(e-b) X_i^b expanded
    variable by variable on the exponent arrays and merged once."""
    exponents, coefficients = p.exponents, p.coefficients
    for i, ui in enumerate(map(float, u)):
        if ui == 0.0:
            continue
        e = exponents[:, i]
        moved, weighted = [], []
        for b in range(int(e.max(initial=0)) + 1):
            rows = np.flatnonzero(e >= b)
            w = [math.comb(k, b) * ui ** (k - b) for k in e[rows].tolist()]
            moved.append(exponents[rows])
            moved[-1][:, i] = b
            weighted.append(coefficients[rows] * w)
        exponents, coefficients = np.concatenate(moved), np.concatenate(weighted)
    return Polynomial.from_arrays(p.n, exponents, coefficients)


def averaged_hessian_remainder(
    f: Polynomial, u: Sequence[float]
) -> List[List[Polynomial]]:
    """F(X,u) = int_0^1 int_0^t Hess f(u + s(X-u)) ds dt, entrywise: each
    Hessian entry h is translated to u, averaged along rays (`_ray_average`,
    as `random_sos_convex` integrates its candidates) and translated back.
    Then f(X) = f(u) + grad f(u)'(X-u) + (X-u)' F(X,u) (X-u) up to rounding.
    """
    if len(u) != f.n:
        raise PreconditionFailure("dim(u) = n", f"{len(u)} vs {f.n}")
    n = f.n
    hess = f.hessian()
    out: List[List[Polynomial]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = _translate(_ray_average(_translate(hess[i][j], u)), np.negative(u))
            out[i][j] = entry
            out[j][i] = entry
    return out


def taylor_remainder_identity(f: Polynomial, u: Sequence[float]) -> Polynomial:
    """Residual f(X) - [f(u) + grad f(u)'(X-u) + (X-u)'F(X,u)(X-u)].

    Zero up to rounding; exposed for validation.
    """
    n = f.n
    F = averaged_hessian_remainder(f, u)
    xu = [Polynomial.variable(n, i) - float(u[i]) for i in range(n)]
    linear = [g.eval(u) * x for g, x in zip(f.gradient(), xu)]
    quadratic = [xu[i] * F[i][j] * xu[j] for i in range(n) for j in range(n)]
    return f - Polynomial.sum_of(n, linear + quadratic) - f.eval(u)
