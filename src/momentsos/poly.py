"""Sparse multivariate polynomial arithmetic and calculus.

Monomials are exponent tuples alpha in N^n, polynomials are finite maps
alpha -> coefficient. Everything downstream (moment matrices, Gram bases,
SDP lifts) indexes into the graded-lexicographic monomial basis produced by
:func:`monomial_basis`, so that ordering is fixed here once and never
revisited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]

# Coefficients with magnitude at or below this are dropped after arithmetic.
ZERO_TOL = 1e-12


class PreconditionFailure(ValueError):
    """An operation's precondition failed; `clause` names which one."""

    def __init__(self, clause: str, detail: str = ""):
        self.clause = clause
        msg = clause if not detail else f"{clause}: {detail}"
        super().__init__(msg)


def monomial_degree(alpha: Monomial) -> int:
    return sum(alpha)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def grlex_key(alpha: Monomial) -> tuple:
    # graded lex: sort by total degree, then lexicographically with X1 the
    # most significant variable (larger exponent on X1 comes first).
    return (sum(alpha), tuple(-e for e in alpha))


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


@dataclass(frozen=True)
class Polynomial:
    """Sparse real polynomial in n variables.

    `terms` maps exponent tuples to nonzero coefficients. Instances are
    treated as immutable; use the arithmetic operators, which prune
    coefficients below ZERO_TOL.
    """

    n: int
    terms: Mapping[Monomial, float] = field(default_factory=dict)

    def __post_init__(self):
        for alpha in self.terms:
            if len(alpha) != self.n:
                raise PreconditionFailure(
                    "monomial length equals variable count",
                    f"{alpha} vs n={self.n}",
                )
            if any(e < 0 for e in alpha):
                raise PreconditionFailure("exponents nonnegative", str(alpha))

    # ---- constructors -------------------------------------------------

    @staticmethod
    def make(n: int, terms: Mapping[Monomial, float]) -> "Polynomial":
        """Normalized constructor: merges duplicates, prunes near-zeros."""
        clean: Dict[Monomial, float] = {}
        for alpha, c in terms.items():
            key = tuple(int(e) for e in alpha)
            clean[key] = clean.get(key, 0.0) + float(c)
        clean = {a: c for a, c in clean.items() if abs(c) > ZERO_TOL}
        return Polynomial(n, clean)

    @staticmethod
    def zero(n: int) -> "Polynomial":
        return Polynomial(n, {})

    @staticmethod
    def constant(n: int, c: float) -> "Polynomial":
        return Polynomial.make(n, {tuple([0] * n): c})

    @staticmethod
    def variable(n: int, i: int) -> "Polynomial":
        """The coordinate polynomial X_{i+1} (0-based index i)."""
        if not 0 <= i < n:
            raise PreconditionFailure("variable index in range", f"i={i}, n={n}")
        alpha = [0] * n
        alpha[i] = 1
        return Polynomial(n, {tuple(alpha): 1.0})

    @staticmethod
    def monomial(n: int, alpha: Monomial, c: float = 1.0) -> "Polynomial":
        return Polynomial.make(n, {tuple(alpha): c})

    # ---- basic queries ------------------------------------------------

    def degree(self) -> int:
        """Max total degree over stored terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def l1_norm(self) -> float:
        return sum(abs(c) for c in self.terms.values())

    def coeff(self, alpha: Monomial) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def is_zero(self) -> bool:
        return not self.terms

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
        exponents = np.array(list(self.terms), dtype=int).reshape(-1, self.n)
        values = _monomial_values(batch, exponents)
        total = np.zeros(len(batch))
        for t, c in enumerate(self.terms.values()):
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
        out = dict(self.terms)
        for alpha, c in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + c
        return Polynomial.make(self.n, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            if other == 0:
                return Polynomial.zero(self.n)
            return Polynomial.make(
                self.n, {a: c * other for a, c in self.terms.items()}
            )
        self._check_same_n(other)
        out: Dict[Monomial, float] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = monomial_mul(a, b)
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial.make(self.n, out)

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
        return self.n == other.n and dict(self.terms) == dict(other.terms)

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    # ---- calculus -----------------------------------------------------

    def diff(self, i: int) -> "Polynomial":
        """Partial derivative with respect to X_{i+1}."""
        if not 0 <= i < self.n:
            raise PreconditionFailure("variable index in range", f"i={i}")
        out: Dict[Monomial, float] = {}
        for alpha, c in self.terms.items():
            if alpha[i] == 0:
                continue
            beta = list(alpha)
            beta[i] -= 1
            out[tuple(beta)] = out.get(tuple(beta), 0.0) + c * alpha[i]
        return Polynomial.make(self.n, out)

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
        by_degree = sorted(self.terms.items(), key=lambda kv: kv[0][0])
        prev = 0
        for (k,), c in by_degree:
            for _ in range(k - prev):
                power = power * inner
            prev = k
            result = result + c * power
        return result

    # ---- rendering / serialization -------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for alpha in sorted(self.terms, key=grlex_key):
            c = self.terms[alpha]
            mono = "*".join(
                f"X{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(alpha)
                if e
            )
            if mono:
                parts.append(f"{c:+g}*{mono}")
            else:
                parts.append(f"{c:+g}")
        out = " ".join(parts)
        return out[1:] if out.startswith("+") else out

    def to_json(self) -> List[dict]:
        """List of {"exponents": [...], "coeff": c}, graded-lex ordered."""
        return [
            {"exponents": list(alpha), "coeff": self.terms[alpha]}
            for alpha in sorted(self.terms, key=grlex_key)
        ]

    @staticmethod
    def from_json(n: int, data: Iterable[dict]) -> "Polynomial":
        """Parse the serialized term list; duplicate monomials are an error."""
        terms: Dict[Monomial, float] = {}
        for item in data:
            alpha = tuple(int(e) for e in item["exponents"])
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
    terms: Dict[Monomial, float] = {tuple([0] * n): 1.0}
    for k in range(1, r + 1):
        w = 1.0 / math.factorial(k)
        for i in range(n):
            alpha = [0] * n
            alpha[i] = 2 * k
            terms[tuple(alpha)] = terms.get(tuple(alpha), 0.0) + w
    return Polynomial.make(n, terms)


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


def _shift_scale_powers(p: Polynomial, u: Sequence[float]) -> List[Polynomial]:
    """Expand p(u + s*(X-u)) as sum_k s^k q_k(X); returns [q_0, ..., q_D].

    Exact binomial expansion per term, collected by s-degree.
    """
    n = p.n
    out: Dict[int, Dict[Monomial, float]] = {}
    x_minus_u = [
        Polynomial.variable(n, i) - Polynomial.constant(n, u[i]) for i in range(n)
    ]
    for alpha, c in p.terms.items():
        # product over i of (u_i + s*(X_i - u_i))^alpha_i, tracked as a map
        # s-degree -> Polynomial in X
        acc: Dict[int, Polynomial] = {0: Polynomial.constant(n, c)}
        for i, e in enumerate(alpha):
            if e == 0:
                continue
            vi_pows = [Polynomial.constant(n, 1.0)]
            for _ in range(e):
                vi_pows.append(vi_pows[-1] * x_minus_u[i])
            nxt: Dict[int, Polynomial] = {}
            for sd, poly in acc.items():
                for b in range(e + 1):
                    w = math.comb(e, b) * (u[i] ** (e - b))
                    if w == 0.0 and b < e:
                        continue
                    term = poly * vi_pows[b] * w
                    if term.is_zero():
                        continue
                    cur = nxt.get(sd + b)
                    nxt[sd + b] = term if cur is None else cur + term
            acc = nxt
        for sd, poly in acc.items():
            tgt = out.setdefault(sd, {})
            for a2, c2 in poly.terms.items():
                tgt[a2] = tgt.get(a2, 0.0) + c2
    top = max(out) if out else 0
    return [Polynomial.make(n, out.get(k, {})) for k in range(top + 1)]


def averaged_hessian_remainder(
    f: Polynomial, u: Sequence[float]
) -> List[List[Polynomial]]:
    """F(X,u) = int_0^1 int_0^t Hess f(u + s(X-u)) ds dt, entrywise.

    Each Hessian entry is polynomial in s, so the double integral reduces to
    exact rational weights int_0^1 int_0^t s^k ds dt = 1/((k+1)(k+2)).
    The result satisfies
    f(X) = f(u) + grad f(u)'(X-u) + (X-u)' F(X,u) (X-u)
    up to float rounding.
    """
    if len(u) != f.n:
        raise PreconditionFailure("dim(u) = n", f"{len(u)} vs {f.n}")
    n = f.n
    hess = f.hessian()
    out: List[List[Polynomial]] = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            qs = _shift_scale_powers(hess[i][j], u)
            entry = Polynomial.zero(n)
            for k, q in enumerate(qs):
                weight = Fraction(1, (k + 1) * (k + 2))
                entry = entry + float(weight) * q
            out[i][j] = entry
            out[j][i] = entry
    return out


def taylor_remainder_identity(
    f: Polynomial, u: Sequence[float]
) -> Polynomial:
    """Residual f(X) - [f(u) + grad f(u)'(X-u) + (X-u)'F(X,u)(X-u)].

    Zero up to rounding; exposed for validation.
    """
    n = f.n
    F = averaged_hessian_remainder(f, u)
    grad = f.gradient()
    xu = [Polynomial.variable(n, i) - Polynomial.constant(n, u[i]) for i in range(n)]
    recon = Polynomial.constant(n, f.eval(u))
    for i in range(n):
        recon = recon + grad[i].eval(u) * xu[i]
    for i in range(n):
        for j in range(n):
            recon = recon + xu[i] * F[i][j] * xu[j]
    return f - recon
