"""Polynomial arithmetic, basis combinatorics, and the integral identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsos.poly import (
    Polynomial,
    PreconditionFailure,
    SemialgebraicSet,
    averaged_hessian_remainder,
    basis_size,
    monomial_basis,
    taylor_remainder_identity,
    theta_perturbation,
    theta_polynomial,
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


# ---- theta perturbation ----------------------------------------------------


def test_theta_1_univariate():
    assert theta_polynomial(1, 1) == Polynomial.make(1, {(0,): 1.0, (2,): 1.0})


def test_theta_at_zero_is_one():
    for n in (1, 2, 3):
        for r in (0, 1, 3):
            assert theta_polynomial(n, r).eval([0.0] * n) == pytest.approx(1.0)


def test_theta_perturbation_formula():
    f = Polynomial.make(1, {(2,): 1.0})
    out = theta_perturbation(f, 0.1, 2)
    # r0 = floor(2/2)+1 = 2, so the perturbation is 0.1*(theta_2 + theta_2)
    expected = Polynomial.make(1, {(0,): 0.2, (2,): 1.2, (4,): 0.1})
    assert out == expected


def test_theta_perturbation_rejects_small_r():
    f = Polynomial.make(1, {(2,): 1.0})
    with pytest.raises(PreconditionFailure):
        theta_perturbation(f, 0.1, 1)


def test_theta_perturbation_dominates_f():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 3))
        f = random_polynomial(rng, n, 4)
        eps = float(rng.uniform(0.01, 1.0))
        r0 = f.degree() // 2 + 1
        g = theta_perturbation(f, eps, r0 + int(rng.integers(0, 3)))
        x = rng.uniform(-2, 2, size=n)
        # theta_r >= 1 pointwise (even powers), so g >= f + 2*eps >= f + eps
        assert g.eval(x) >= f.eval(x) + eps


# ---- averaged Hessian remainder -------------------------------------------


def test_remainder_univariate_square():
    f = Polynomial.make(1, {(2,): 1.0})
    F = averaged_hessian_remainder(f, [0.0])
    assert F[0][0] == Polynomial.constant(1, 1.0)


def test_remainder_univariate_cube():
    f = Polynomial.make(1, {(3,): 1.0})
    F = averaged_hessian_remainder(f, [0.0])
    # int_0^1 int_0^t 6s ds dt = 1, so F = X
    assert F[0][0] == Polynomial.variable(1, 0)


def test_remainder_linear_is_zero():
    f = Polynomial.make(3, {(1, 0, 0): 2.0, (0, 0, 1): -1.0, (0, 0, 0): 5.0})
    F = averaged_hessian_remainder(f, [0.3, -0.7, 1.1])
    assert all(entry.is_zero() for row in F for entry in row)


def test_remainder_identity_random():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        f = random_polynomial(rng, n, int(rng.integers(1, 7)))
        if f.is_zero():
            continue
        u = rng.uniform(-1, 1, size=n)
        resid = taylor_remainder_identity(f, u)
        assert resid.l1_norm() <= 1e-9 * max(f.l1_norm(), 1.0)


def test_remainder_symmetric():
    rng = np.random.default_rng(5)
    f = random_polynomial(rng, 3, 4)
    F = averaged_hessian_remainder(f, [0.1, 0.2, -0.3])
    for i in range(3):
        for j in range(3):
            assert F[i][j] == F[j][i]


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
