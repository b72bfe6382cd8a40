"""Moment-form compiler: elimination, decode, deflation geometry."""

import numpy as np
import pytest

from momentsos import _compile, moments
from momentsos._compile import BlockSpec, MomentSdp, MomentStatus, coefficient_row
from momentsos.convexcert import _rho_blocks, lift_to_xy, rho_program
from momentsos.moments import mean_point
from momentsos.hierarchy import build_qr
from momentsos.poly import Polynomial, PreconditionFailure, monomial_basis

from helpers import (
    ball_quartic,
    example_degenerate_cube,
    example_hyperbola_disk,
    unit_disk,
)

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
            BlockSpec.from_pattern("moment", monomial_basis(1, 1)),
            BlockSpec.from_pattern("loc", monomial_basis(1, 0), g),
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
            BlockSpec.from_pattern("moment", monomial_basis(1, 1)),
            BlockSpec.from_pattern("row", monomial_basis(1, 0), g),
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
            BlockSpec.from_pattern("moment", monomial_basis(1, 1)),
            BlockSpec.from_pattern("g1", monomial_basis(1, 0), g1),
            BlockSpec.from_pattern("g2", monomial_basis(1, 0), g2),
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
        blocks=[BlockSpec.from_pattern("moment", monomial_basis(1, 1))],
        eq_rows=np.array([row]),
        eq_rhs=np.array([1.0]),
    )
    sol = ms.solve()
    assert sol.status is MomentStatus.UNBOUNDED
    assert sol.value == -np.inf


def test_equality_block_row_count():
    # at d = 3 the rows L_z(g~ m) = 0, g~ = Y1 Y2 - 1/4, run over the
    # s(4) = 70 monomials m of degree <= 2(d - r) = 4: row m is the
    # coefficient row of g~ m, and together they span the 120 entrywise
    # rows of M_2(g~ z) = 0 (upper triangle of the 15 x 15 block)
    g_tilde = Polynomial.make(4, {(0, 0, 1, 1): 1.0, (0, 0, 0, 0): -0.25})
    prog = rho_program(example_hyperbola_disk(), 1, 3)
    rows = prog.eq_rows[1:]
    assert rows.shape[0] == 70
    assert prog.eq_rhs == pytest.approx(np.r_[1.0, np.zeros(70)])
    products = [g_tilde * Polynomial.monomial(4, m) for m in monomial_basis(4, 4)]
    assert np.array_equal(rows, [coefficient_row(4, 3, q) for q in products])
    basis = [Polynomial.monomial(4, a) for a in monomial_basis(4, 2)]
    entrywise = [
        coefficient_row(4, 3, g_tilde * a * b)
        for i, a in enumerate(basis)
        for b in basis[i:]
    ]
    assert len(entrywise) == 120
    assert np.linalg.matrix_rank(rows) == 70
    assert np.linalg.matrix_rank(np.vstack([rows, entrywise])) == 70


def test_kernel_deflation_shapes():
    # hyperbola fixture: the moment block (D = 3, weight degree 0) drops
    # the leads of g~ p for deg p <= 1 (5 coordinates); the localizing
    # blocks (D = 2, weight degree 2) only that of g~ itself
    prog = rho_program(example_hyperbola_disk(), 1, 3)
    assert prog.block_dims() == [30, 14, 14, 14]
    # at d = 2 the order-1 blocks of weight degree 2 exhaust the budget
    # 2(d - r) = 2, so no kernel is forced and they keep all 5 rows
    prog = rho_program(example_hyperbola_disk(), 1, 2)
    assert prog.block_dims() == [14, 5, 5, 5]


def test_deflation_kernel_is_orthogonal_to_image():
    # on the affine set E z = e, every full block S_B(z) maps each forced
    # kernel vector g_j(Y) p to zero, so dropping their leading coordinates
    # is an exact reformulation
    rng = np.random.default_rng(3)
    lens, disk, cube = example_hyperbola_disk(), unit_disk(), example_degenerate_cube()
    cases = [(lens, 1, d) for d in (2, 3, 4)] + [(lens, 2, 3), (disk, 1, 3)]
    cases += [(cube, 1, 3), (cube, 2, 3)]
    for K, j, d in cases:
        n2, half = 2 * K.n, [0] + K.half_degrees()
        z_part, N = rho_program(K, j, d)._eliminate()
        z = z_part + N @ rng.normal(size=N.shape[1])
        h = lift_to_xy(K.constraints[j - 1], "y")
        budget = 2 * (d - half[j])
        for k, _, g, _ in _rho_blocks(K, j, d):
            D = d - half[k]
            S = BlockSpec.from_pattern("S", monomial_basis(n2, D), g).apply(z)
            index = {a: i for i, a in enumerate(monomial_basis(n2, D))}
            max_p_deg = min(D - h.degree(), budget - g.degree() - D)
            for p in monomial_basis(n2, max_p_deg) if max_p_deg >= 0 else []:
                vec = np.zeros(len(index))
                for alpha, c in (h * Polynomial.monomial(n2, p)).terms.items():
                    vec[index[alpha]] += c
                scale = 1.0 + np.max(np.abs(S))
                assert np.max(np.abs(S @ vec)) <= 1e-10 * scale


@pytest.mark.parametrize(
    "r, clause", [(5, "block tensor within cap"), (6, "block dimension within cap")]
)
def test_size_limits_refused_before_allocating(monkeypatch, r, clause):
    # on the n = 6 ball, Q_5's moment block would take 13.7 GB as a dense
    # (462, 462, 8008) tensor and Q_6's moment block is 924 > BLOCK_CAP
    # wide; both are refused from the sizes alone, before the index pattern
    # is built
    def unreachable(*args):
        raise AssertionError("index pattern built before the size check")

    monkeypatch.setattr(_compile, "_moment_pattern", unreachable)
    monkeypatch.setattr(moments, "_moment_pattern", unreachable)
    with pytest.raises(PreconditionFailure, match=clause):
        build_qr(ball_quartic(6), r)
