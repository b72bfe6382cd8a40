"""Moment vectors, Riesz functional, moment/localizing matrices, flatness."""

import numpy as np
import pytest
from helpers import example_hyperbola_disk

from momentsos.moments import (
    MomentVector,
    flatness,
    localizing_matrix,
    mean_point,
    moment_matrix,
    riesz,
)
from momentsos.poly import Polynomial, PreconditionFailure
from momentsos.sdp import min_eigenvalue, numeric_rank


def test_riesz_dirac():
    y = MomentVector.from_point([1.0, 2.0], order=1)
    p = Polynomial.make(2, {(1, 1): 1.0})
    assert riesz(y, p) == pytest.approx(2.0)


def test_riesz_constant_gives_y0():
    y = MomentVector.from_point([0.3, -0.4], order=2)
    assert riesz(y, Polynomial.constant(2, 1.0)) == pytest.approx(y.y0)


def test_riesz_two_point_symmetric():
    # average of delta_{-1} and delta_{+1}: y = (1, 0, 1)
    y = MomentVector.from_mixture([[-1.0], [1.0]], [0.5, 0.5], order=1)
    assert y.values == pytest.approx([1.0, 0.0, 1.0])
    assert riesz(y, Polynomial.make(1, {(2,): 1.0})) == pytest.approx(1.0)


def test_riesz_linearity():
    rng = np.random.default_rng(1)
    y = MomentVector(
        2, 2, rng.standard_normal(15)
    )  # arbitrary pseudo-moments, linearity is structural
    for _ in range(25):
        terms_p = {
            tuple(rng.integers(0, 3, size=2)): rng.standard_normal() for _ in range(4)
        }
        terms_q = {
            tuple(rng.integers(0, 3, size=2)): rng.standard_normal() for _ in range(4)
        }
        p = Polynomial.make(2, terms_p)
        q = Polynomial.make(2, terms_q)
        a, b = rng.standard_normal(2)
        lhs = riesz(y, a * p + b * q)
        rhs = a * riesz(y, p) + b * riesz(y, q)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_riesz_degree_overflow():
    y = MomentVector.from_point([1.0], order=1)
    with pytest.raises(PreconditionFailure):
        riesz(y, Polynomial.make(1, {(3,): 1.0}))


def test_moment_matrix_hankel():
    y = MomentVector(1, 1, np.array([1.0, 0.25, 0.75]))
    M = moment_matrix(y, 1)
    assert M == pytest.approx(np.array([[1.0, 0.25], [0.25, 0.75]]))


def test_moment_matrix_dirac_rank_one():
    y = MomentVector.from_point([1.0], order=1)
    M = moment_matrix(y, 1)
    assert M == pytest.approx(np.ones((2, 2)))
    assert numeric_rank(M) == 1


def test_moment_matrix_size():
    y = MomentVector.from_point([0.5, -0.5], order=3)
    assert moment_matrix(y, 3).shape == (10, 10)


def test_moment_matrix_order_overflow():
    y = MomentVector.from_point([0.5], order=1)
    with pytest.raises(PreconditionFailure):
        moment_matrix(y, 2)


def test_localizing_with_unit_weight_is_moment_matrix():
    y = MomentVector.from_point([0.4, 1.2], order=2)
    one = Polynomial.constant(2, 1.0)
    assert localizing_matrix(y, one, 2) == pytest.approx(moment_matrix(y, 2))


def test_localizing_scalar_case():
    y = MomentVector(1, 1, np.array([1.0, 0.3, 0.6]))
    g = Polynomial.make(1, {(0,): 1.0, (2,): -1.0})
    L = localizing_matrix(y, g, 0)
    assert L == pytest.approx(np.array([[0.4]]))


def test_localizing_dirac_is_scaled_outer_product():
    rng = np.random.default_rng(3)
    g = Polynomial.make(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    for _ in range(10):
        x = rng.uniform(-0.7, 0.7, size=2)
        y = MomentVector.from_point(x, order=2)
        L = localizing_matrix(y, g, 1)
        v = np.array([1.0, x[0], x[1]])
        assert L == pytest.approx(g.eval(x) * np.outer(v, v), abs=1e-12)
        if g.eval(x) >= 0:
            assert min_eigenvalue(L) >= -1e-12


def test_localizing_degree_overflow():
    y = MomentVector.from_point([0.5], order=1)
    g = Polynomial.make(1, {(2,): 1.0})
    with pytest.raises(PreconditionFailure):
        localizing_matrix(y, g, 1)


def test_mixture_is_weighted_sum_of_points():
    rng = np.random.default_rng(4)
    for n, order in [(1, 3), (2, 2), (3, 2)]:
        pts = rng.normal(size=(5, n))
        w = rng.uniform(0.1, 1.0, size=5)
        mix = MomentVector.from_mixture(pts, w, order)
        ref = sum(wk * MomentVector.from_point(x, order).values for wk, x in zip(w, pts))
        assert mix.values == pytest.approx(ref, rel=1e-13, abs=1e-15)
        assert mix.provenance == "measure"


def test_principal_submatrix_nesting():
    y = MomentVector.from_mixture(
        [[0.2, 0.3], [-0.5, 0.8], [0.9, -0.1]], [0.5, 0.25, 0.25], order=3
    )
    M3 = moment_matrix(y, 3)
    M2 = moment_matrix(y, 2)
    assert M3[: M2.shape[0], : M2.shape[1]] == pytest.approx(M2)


def test_rank_monotonicity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        pts = rng.uniform(-1, 1, size=(k, 2))
        w = rng.uniform(0.2, 1.0, size=k)
        y = MomentVector.from_mixture(pts, w / w.sum(), order=3)
        r2 = numeric_rank(moment_matrix(y, 2))
        r3 = numeric_rank(moment_matrix(y, 3))
        r1 = numeric_rank(moment_matrix(y, 1))
        assert r1 <= r2 <= r3


def test_atomic_measures_feasible_on_fixture():
    # moments of measures supported inside K satisfy all of Q_r's blocks
    K = example_hyperbola_disk()
    rng = np.random.default_rng(17)
    atoms = []
    while len(atoms) < 6:
        x = rng.uniform(0.2, 1.2, size=2)
        if K.contains(x):
            atoms.append(x)
    w = rng.uniform(0.1, 1.0, size=len(atoms))
    y = MomentVector.from_mixture(atoms, w / w.sum(), order=3)
    assert min_eigenvalue(moment_matrix(y, 3)) >= -1e-9
    for g, rj in zip(K.constraints, K.half_degrees()):
        assert min_eigenvalue(localizing_matrix(y, g, 3 - rj)) >= -1e-9


def test_flatness_dirac():
    y = MomentVector.from_point([0.7, -0.2], order=2)
    rep = flatness(y, 2)
    assert rep.rank_d == rep.rank_dm1 == 1
    assert rep.flat
    assert not rep.caveat


def test_flatness_two_atoms():
    y = MomentVector.from_mixture([[-1.0], [2.0]], [0.5, 0.5], order=2)
    rep = flatness(y, 2)
    assert (rep.rank_d, rep.rank_dm1) == (2, 2)
    assert rep.flat


def test_flatness_caveat_follows_provenance():
    y = MomentVector.from_point([0.1], order=1)
    marked = MomentVector(1, 1, y.values, provenance="interior_point")
    assert not flatness(y, 1).caveat
    assert flatness(marked, 1).caveat


def test_mean_point_values():
    y = MomentVector.from_point([0.3, -0.2], order=1)
    assert mean_point(y) == pytest.approx([0.3, -0.2])
    mix = MomentVector.from_mixture([[0.0], [2.0]], [0.5, 0.5], order=1)
    assert mean_point(mix) == pytest.approx([1.0])


def test_mean_point_requires_unit_mass():
    y = MomentVector(1, 1, np.array([0.9, 0.0, 1.0]))
    with pytest.raises(PreconditionFailure):
        mean_point(y)


def test_moment_vector_json_round_trip():
    y = MomentVector.from_point([0.25, 0.5], order=2)
    y2 = MomentVector.from_json(y.to_json())
    assert y2.n == y.n and y2.order == y.order
    assert y2.values == pytest.approx(y.values)


def test_moment_vector_length_validated():
    with pytest.raises(PreconditionFailure):
        MomentVector(2, 1, np.zeros(5))
