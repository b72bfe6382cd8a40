"""Moment-form compiler: elimination, decode, deflation geometry."""

import numpy as np
import pytest

from momentsos._compile import (
    BlockSpec,
    MomentSdp,
    MomentStatus,
    coefficient_row,
    equality_block_rows,
    kernel_deflation,
    localizing_tensor,
    moment_tensor,
)
from momentsos.moments import mean_point
from momentsos.poly import Polynomial

# the y0 = 1 row
ONE = Polynomial.constant(1, 1.0)


def interval_program(f):
    """min L_y(f) over M_1(y) >= 0, M_0((1-X^2) y) >= 0, y0 = 1."""
    g = Polynomial.make(1, {(0,): 1.0, (2,): -1.0})
    c = coefficient_row(1, 1, f)
    row = coefficient_row(1, 1, ONE)
    return MomentSdp(
        n=1,
        order=1,
        objective=c,
        blocks=[
            BlockSpec("moment", moment_tensor(1, 1, 1)),
            BlockSpec("loc", localizing_tensor(1, 1, 0, g)),
        ],
        eq_rows=np.array([row]),
        eq_rhs=np.array([1.0]),
    )


def test_min_x_on_interval():
    ms = interval_program(Polynomial.variable(1, 0))
    sol = ms.solve()
    assert sol.status is MomentStatus.OPTIMAL
    assert sol.value == pytest.approx(-1.0, abs=1e-6)
    y = ms.moment_vector(sol)
    assert y.provenance == "interior_point"
    assert mean_point(y) == pytest.approx([-1.0], abs=1e-6)
    # dual decode: f - lambda* = sigma0 + lambda1 * g with lambda* = mu[0]
    assert sol.eq_multipliers[0] == pytest.approx(-1.0, abs=1e-6)
    sigma0 = sol.gram_blocks[0]
    assert sigma0 == pytest.approx(0.5 * np.ones((2, 2)), abs=1e-4)
    assert sol.gram_blocks[1][0, 0] == pytest.approx(0.5, abs=1e-4)
    assert sol.stationarity_residual <= 1e-9


def test_scalar_row_blocks():
    # same program with the localizing block written as a 1x1 scalar row
    f = Polynomial.variable(1, 0)
    g = Polynomial.make(1, {(0,): 1.0, (2,): -1.0})
    c = coefficient_row(1, 1, f)
    row = coefficient_row(1, 1, ONE)
    ms = MomentSdp(
        n=1,
        order=1,
        objective=c,
        blocks=[
            BlockSpec("moment", moment_tensor(1, 1, 1)),
            BlockSpec("row", localizing_tensor(1, 1, 0, g)),
        ],
        eq_rows=np.array([row]),
        eq_rhs=np.array([1.0]),
    )
    sol = ms.solve()
    assert sol.value == pytest.approx(-1.0, abs=1e-6)


def test_infeasible_moment_program():
    # X >= 1 and -X >= 0 cannot both hold
    g1 = Polynomial.make(1, {(1,): 1.0, (0,): -1.0})
    g2 = Polynomial.make(1, {(1,): -1.0})
    c = coefficient_row(1, 1, Polynomial.variable(1, 0))
    row = coefficient_row(1, 1, ONE)
    ms = MomentSdp(
        n=1,
        order=1,
        objective=c,
        blocks=[
            BlockSpec("moment", moment_tensor(1, 1, 1)),
            BlockSpec("g1", localizing_tensor(1, 1, 0, g1)),
            BlockSpec("g2", localizing_tensor(1, 1, 0, g2)),
        ],
        eq_rows=np.array([row]),
        eq_rhs=np.array([1.0]),
    )
    sol = ms.solve()
    assert sol.status is MomentStatus.INFEASIBLE
    assert sol.value == np.inf


def test_unbounded_moment_program():
    # min -L_y(X^2) with only the moment matrix: y2 recedes to +inf along a
    # genuine improving ray
    c = coefficient_row(1, 1, Polynomial.make(1, {(2,): -1.0}))
    row = coefficient_row(1, 1, ONE)
    ms = MomentSdp(
        n=1,
        order=1,
        objective=c,
        blocks=[BlockSpec("moment", moment_tensor(1, 1, 1))],
        eq_rows=np.array([row]),
        eq_rhs=np.array([1.0]),
    )
    sol = ms.solve()
    assert sol.status is MomentStatus.UNBOUNDED
    assert sol.value == -np.inf


def test_equality_block_row_count():
    # M_2(g z) = 0 entrywise in 4 ambient variables: s(2)=15 rows upper
    # triangle -> 15*16/2 = 120
    g = Polynomial.make(4, {(0, 0, 1, 1): 1.0, (0, 0, 0, 0): -0.25})
    rows, rhs = equality_block_rows(4, 3, 2, g)
    assert rows.shape[0] == 120
    assert rhs == pytest.approx(np.zeros(120))


def test_kernel_deflation_shapes():
    # hyperbola fixture at order d=3: budget 2(d-r)=4 for multipliers of
    # g~ = Y1 Y2 - 1/4 (degree 2)
    g_tilde = Polynomial.make(4, {(0, 0, 1, 1): 1.0, (0, 0, 0, 0): -0.25})
    # moment block: D=3, weight degree 0 -> p up to degree 1: 5 kernel vectors
    P = kernel_deflation(4, 3, 0, g_tilde, equality_budget=4)
    assert P.shape == (35, 30)
    assert P.T @ P == pytest.approx(np.eye(30), abs=1e-12)
    # localizing blocks: D=2, weight degree 2 -> only p = const
    P2 = kernel_deflation(4, 2, 2, g_tilde, equality_budget=4)
    assert P2.shape == (15, 14)
    # order-1 block with weight degree 2: budget exhausted, no kernel forced
    assert kernel_deflation(4, 1, 2, g_tilde, equality_budget=4) is None


def test_deflation_kernel_is_orthogonal_to_image():
    # P's columns must be orthogonal to every coeff vector of g~ * p
    g_tilde = Polynomial.make(4, {(0, 0, 1, 1): 1.0, (0, 0, 0, 0): -0.25})
    P = kernel_deflation(4, 3, 0, g_tilde, equality_budget=4)
    from momentsos.moments import _basis_and_index

    basis, idx = _basis_and_index(4, 3)
    for p_mono in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        vec = np.zeros(len(basis))
        prod = g_tilde * Polynomial.monomial(4, p_mono)
        for alpha, cc in prod.terms.items():
            vec[idx[alpha]] += cc
        assert np.max(np.abs(P.T @ vec)) <= 1e-12
