"""Polynomial arithmetic, calculus, basis combinatorics and semialgebraic sets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ref_add, ref_diff, ref_mul, ref_neg, ref_pow
from momentsos.poly import (
    Polynomial,
    PreconditionFailure,
    SemialgebraicSet,
    basis_size,
    monomial_basis,
)


def random_polynomial(rng, n, deg, scale=1.0):
    basis = monomial_basis(n, deg)
    terms = {}
    for alpha in basis:
        if rng.random() < 0.6:
            terms[alpha] = scale * rng.standard_normal()
    return Polynomial.make(n, terms)


# ---- monomial basis -------------------------------------------------------


def test_basis_n2_d1():
    assert monomial_basis(2, 1) == [(0, 0), (1, 0), (0, 1)]


def test_basis_sizes_small():
    assert len(monomial_basis(2, 3)) == 10
    # stars and bars: C(4+3, 3) = 35, the moment-side block size at order 3
    # in the doubled-variable convexity test
    assert len(monomial_basis(4, 3)) == 35


@given(st.integers(1, 6), st.integers(0, 6))
def test_basis_count_matches_binomial(n, d):
    assert len(monomial_basis(n, d)) == math.comb(n + d, d) == basis_size(n, d)


def test_basis_graded_lex_order():
    b = monomial_basis(2, 2)
    assert b == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    # constant first, degrees nondecreasing
    degs = [sum(a) for a in b]
    assert degs == sorted(degs)


def test_basis_order_four_vars_degree_two_tail():
    # the degree-2 tail in 4 variables, as used to index paired (X,Y) moments
    tail = [a for a in monomial_basis(4, 2) if sum(a) == 2]
    assert tail == [
        (2, 0, 0, 0),
        (1, 1, 0, 0),
        (1, 0, 1, 0),
        (1, 0, 0, 1),
        (0, 2, 0, 0),
        (0, 1, 1, 0),
        (0, 1, 0, 1),
        (0, 0, 2, 0),
        (0, 0, 1, 1),
        (0, 0, 0, 2),
    ]


# ---- evaluation and arithmetic -------------------------------------------


def test_eval_fixtures():
    x1x2 = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    assert x1x2.eval([1.0, 1.0]) == pytest.approx(0.75)

    disk = Polynomial.make(
        2, {(0, 0): 0.5 - 0.25 - 0.25, (1, 0): 1.0, (0, 1): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    )
    # 0.5 - (x1-0.5)^2 - (x2-0.5)^2 expanded
    assert disk.eval([0.5, 0.5]) == pytest.approx(0.5)

    p = Polynomial.make(2, {(0, 0): 3.5, (2, 1): 2.0})
    assert p.eval([0.0, 0.0]) == pytest.approx(3.5)


def test_eval_dimension_mismatch():
    p = Polynomial.variable(2, 0)
    with pytest.raises(PreconditionFailure):
        p.eval([1.0])
    for bad in (np.zeros((5, 1)), np.zeros((5, 3)), np.zeros((2, 2, 2)), 1.0):
        with pytest.raises(PreconditionFailure):
            p.eval(bad)


def reference_eval(p, x):
    """Term-by-term evaluation with Python floats and `**`."""
    total = 0.0
    for alpha, c in p.terms.items():
        v = c
        for xi, e in zip(x, alpha):
            v *= float(xi) ** e
        total += v
    return total


def test_batch_eval_matches_pointwise():
    rng = np.random.default_rng(2024)
    for n in range(1, 5):
        polys = [Polynomial.zero(n), Polynomial.constant(n, -2.5)]
        polys += [random_polynomial(rng, n, int(rng.integers(1, 9))) for _ in range(6)]
        for p in polys:
            X = rng.uniform(-1.5, 1.5, size=(40, n))
            batch = p.eval(X)
            assert batch.shape == (40,)
            for x, v in zip(X, batch):
                assert isinstance(p.eval(x), float)
                assert v == pytest.approx(p.eval(x), rel=1e-12, abs=0.0)
                # rounding differs from the reference only in the last bits
                scale = sum(
                    abs(c) * float(np.prod(np.abs(x) ** np.array(a)))
                    for a, c in p.terms.items()
                )
                assert abs(v - reference_eval(p, x)) <= 1e-12 * scale
        assert Polynomial.zero(n).eval(np.zeros((0, n))).shape == (0,)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 3))
def test_arithmetic_is_pointwise(seed, n):
    rng = np.random.default_rng(seed)
    p = random_polynomial(rng, n, 4)
    q = random_polynomial(rng, n, 4)
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=n)
        ref_sum = p.eval(x) + q.eval(x)
        ref_prod = p.eval(x) * q.eval(x)
        scale = 1.0 + abs(ref_sum)
        assert (p + q).eval(x) == pytest.approx(ref_sum, rel=1e-10, abs=1e-10 * scale)
        scale = 1.0 + abs(ref_prod)
        assert (p * q).eval(x) == pytest.approx(ref_prod, rel=1e-10, abs=1e-10 * scale)


def test_power_matches_repeated_product():
    rng = np.random.default_rng(7)
    p = random_polynomial(rng, 2, 2)
    assert p ** 3 == p * p * p
    assert p ** 0 == Polynomial.constant(2, 1.0)


def test_zero_pruning():
    p = Polynomial.variable(1, 0)
    q = p - p
    assert q.is_zero()
    assert q.degree() == 0
    assert q.l1_norm() == 0.0
    # arithmetic keeps a coefficient below ZERO_TOL; only input drops it
    x = Polynomial.variable(2, 0)
    kept = x * 1e-13 + 1.0
    assert kept.terms == {(1, 0): 1e-13, (0, 0): 1.0}
    assert (kept - 1.0).l1_norm() == 1e-13
    assert (kept * x).diff(0).terms == {(1, 0): 2e-13, (0, 0): 1.0}
    assert Polynomial.make(2, dict(kept.terms)).terms == {(0, 0): 1.0}
    assert len(kept.to_json()) == 2
    assert Polynomial.from_json(2, kept.to_json()).terms == {(0, 0): 1.0}
    assert str(kept) == "1"


def coefficient_bits(terms):
    return [(alpha, float(c).hex()) for alpha, c in terms.items()]


@st.composite
def polynomial_terms(draw, n):
    """A {monomial: coefficient} map whose coefficients include values below
    ZERO_TOL and values that cancel exactly."""
    exponent = st.tuples(*[st.integers(0, 3)] * n)
    coefficient = st.floats(-4.0, 4.0, allow_nan=False) | st.sampled_from(
        [1.0, -1.0, 0.5, -0.5, 1e-13, -1e-13]
    )
    terms = draw(st.dictionaries(exponent, coefficient, max_size=6))
    return {alpha: c for alpha, c in terms.items() if c != 0.0}


@settings(max_examples=80, deadline=None)
@given(st.data(), st.integers(1, 3))
def test_arithmetic_matches_dict_reference(data, n):
    p_terms = data.draw(polynomial_terms(n))
    q_terms = data.draw(polynomial_terms(n))
    p = Polynomial.from_arrays(n, list(p_terms), list(p_terms.values()))
    q = Polynomial.from_arrays(n, list(q_terms), list(q_terms.values()))
    assert coefficient_bits(p.terms) == coefficient_bits(p_terms)
    cases = [
        (p + q, ref_add(p_terms, q_terms)),
        (p - q, ref_add(p_terms, ref_neg(q_terms))),
        (p * q, ref_mul(p_terms, q_terms)),
        (p ** 3, ref_pow(p_terms, 3, n)),
    ]
    cases += [(p.diff(i), ref_diff(p_terms, i)) for i in range(n)]
    for got, ref in cases:
        assert coefficient_bits(got.terms) == coefficient_bits(ref)


def test_l1_norm():
    p = Polynomial.make(2, {(1, 0): 2.0, (0, 1): -3.0})
    assert p.l1_norm() == pytest.approx(5.0)


# ---- calculus -------------------------------------------------------------


def test_gradient_hessian_bilinear():
    p = Polynomial.make(2, {(1, 1): 1.0})  # X1*X2
    grad = p.gradient()
    assert grad[0] == Polynomial.variable(2, 1)
    assert grad[1] == Polynomial.variable(2, 0)
    hess = p.hessian()
    assert hess[0][0].is_zero()
    assert hess[1][1].is_zero()
    assert hess[0][1] == Polynomial.constant(2, 1.0)
    assert hess[1][0] == hess[0][1]


def test_gradient_hessian_quartic():
    p = Polynomial.make(1, {(4,): 1.0})
    assert p.gradient()[0] == Polynomial.make(1, {(3,): 4.0})
    assert p.hessian()[0][0] == Polynomial.make(1, {(2,): 12.0})


def test_constant_has_zero_derivatives():
    p = Polynomial.constant(3, 4.2)
    assert all(g.is_zero() for g in p.gradient())
    assert all(h.is_zero() for row in p.hessian() for h in row)


# ---- semialgebraic sets ----------------------------------------------------


def test_set_construction_and_half_degrees():
    g1 = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    g2 = Polynomial.make(
        2, {(0, 0): 0.0, (1, 0): 1.0, (0, 1): 1.0, (2, 0): -1.0, (0, 2): -1.0}
    )
    K = SemialgebraicSet(2, (g1, g2))
    assert K.m == 2
    assert K.half_degrees() == [1, 1]
    assert K.contains([0.5, 0.5])
    assert not K.contains([0.0, 0.0])


def test_set_edge_cases():
    # m = 0 describes all of R^n
    free = SemialgebraicSet(2, ())
    assert free.m == 0
    assert free.contains([1e6, -1e6])
    assert free.half_degrees() == []
    with pytest.raises(PreconditionFailure):
        SemialgebraicSet(2, (Polynomial.variable(3, 0),))
    with pytest.raises(PreconditionFailure):
        SemialgebraicSet(1, (Polynomial.variable(1, 0),), ball_bound=0.0)


# ---- serialization ---------------------------------------------------------


def test_polynomial_json_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        p = random_polynomial(rng, 3, 4)
        q = Polynomial.from_json(3, p.to_json())
        assert q == p


def test_input_rejects_fractional_and_negative_exponents():
    for alpha in [(1.5, 0), (-1, 2)]:
        with pytest.raises(PreconditionFailure, match="nonnegative integers"):
            Polynomial.make(2, {alpha: 1.0, (1, 0): 2.0})
        with pytest.raises(PreconditionFailure, match="nonnegative integers"):
            Polynomial.from_json(2, [{"exponents": list(alpha), "coeff": 1.0}])
    p = Polynomial.from_json(2, [{"exponents": [2.0, 0], "coeff": 1.0}])
    assert p.terms == {(2, 0): 1.0}


def test_polynomial_json_rejects_duplicates():
    data = [
        {"exponents": [1, 0], "coeff": 1.0},
        {"exponents": [1, 0], "coeff": 2.0},
    ]
    with pytest.raises(PreconditionFailure):
        Polynomial.from_json(2, data)


def test_set_json_round_trip():
    g = Polynomial.make(2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 1.0})
    K = SemialgebraicSet(2, (g,), ball_bound=2.0)
    K2 = SemialgebraicSet.from_json(K.to_json())
    assert K2.n == K.n
    assert K2.constraints == K.constraints
    assert K2.ball_bound == K.ball_bound


def test_str_rendering():
    p = Polynomial.make(2, {(0, 0): -0.25, (1, 1): 1.0})
    assert str(p) == "-0.25 +1*X1*X2"
