"""Relaxation hierarchy: builders, duals, certificates, exactness detection."""

import numpy as np
import pytest

from momentsos.hierarchy import (
    HierarchyOptions,
    PolyOptProblem,
    ball_augment,
    build_qhat,
    build_qr,
    kkt_residuals,
    lagrangian,
    solve_hierarchy,
)
from momentsos.moments import mean_point
from momentsos.poly import Polynomial, PreconditionFailure, SemialgebraicSet
from momentsos.sdp import SolverOptions
from momentsos.sos import is_sos_convex

from helpers import example_hyperbola_disk, grid_minimize, unit_disk


def poly1(coeffs):
    return Polynomial.make(1, {(k,): c for k, c in enumerate(coeffs)})


def interval_set():
    # K = [-1, 1] via 1 - X^2 >= 0
    return SemialgebraicSet(1, (poly1([1.0, 0.0, -1.0]),), ball_bound=1.0)


def disk_problem():
    # min (X1-1)^2 + (X2-1)^2 over the unit disk
    f = Polynomial.make(
        2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -2.0, (0, 1): -2.0, (0, 0): 2.0}
    )
    return PolyOptProblem(f, unit_disk())


DISK_VALUE = 3.0 - 2.0 * np.sqrt(2.0)


class TestBallAugment:
    def test_unit_disk(self):
        K = ball_augment(unit_disk(), 2.0)
        assert K.m == 2
        assert K.ball_bound == 2.0
        g = K.constraints[-1]
        assert g.coeff((0, 0)) == 4.0
        assert g.coeff((2, 0)) == -1.0
        assert g.coeff((0, 2)) == -1.0

    def test_already_bounded_set_still_augmentable(self):
        K = ball_augment(example_hyperbola_disk(), 2.0)
        assert K.m == 3

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(PreconditionFailure):
            ball_augment(unit_disk(), 0.0)


class TestBuildQr:
    def test_interval_blocks_and_value(self):
        prob = PolyOptProblem(poly1([0.0, 1.0]), interval_set())
        q = build_qr(prob, 1)
        assert q.block_dims() == [2, 1]
        sol = q.solve()
        assert sol.is_optimal
        assert abs(sol.value - (-1.0)) <= 1e-7
        y = q.moment_vector(sol)
        assert abs(mean_point(y)[0] - (-1.0)) <= 1e-5

    def test_moment_block_size_order_three(self):
        prob = PolyOptProblem(
            Polynomial.variable(2, 0), example_hyperbola_disk()
        )
        q = build_qr(prob, 3)
        assert q.block_dims()[0] == 10

    def test_order_too_small(self):
        prob = PolyOptProblem(poly1([0.0, 0.0, 0.0, 0.0, 1.0]), interval_set())
        with pytest.raises(PreconditionFailure):
            build_qr(prob, 1)


class TestBuildQhat:
    def test_disk_projection(self):
        q = build_qhat(disk_problem())
        sol = q.solve()
        assert sol.is_optimal
        assert abs(sol.value - DISK_VALUE) <= 1e-7
        x = mean_point(q.moment_vector(sol))
        np.testing.assert_allclose(x, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-5)

    def test_affine_case_matches_lp(self):
        # f = X1 + X2 over the simplex: optimum 0 at the origin
        f = Polynomial.make(2, {(1, 0): 1.0, (0, 1): 1.0})
        K = SemialgebraicSet(
            2,
            (
                Polynomial.variable(2, 0),
                Polynomial.variable(2, 1),
                Polynomial.make(2, {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0}),
            ),
            ball_bound=2.0,
        )
        sol = build_qhat(PolyOptProblem(f, K)).solve()
        assert sol.is_optimal
        assert abs(sol.value) <= 1e-7

    def test_unconstrained_square(self):
        prob = PolyOptProblem(poly1([0.0, 0.0, 1.0]), SemialgebraicSet(1, ()))
        sol = build_qhat(prob).solve()
        assert sol.is_optimal
        assert abs(sol.value) <= 1e-6

    def test_dominates_matching_order_relaxation(self):
        # Q-hat relaxes localizing blocks to scalar rows, so its value
        # can only be lower
        prob = PolyOptProblem(
            Polynomial.variable(2, 0), example_hyperbola_disk()
        )
        v_hat = build_qhat(prob).solve().value
        v_q1 = build_qr(prob, 1).solve().value
        assert v_hat <= v_q1 + 1e-6


class TestDualCertificates:
    def test_unconstrained_square(self):
        prob = PolyOptProblem(poly1([0.0, 0.0, 1.0]), SemialgebraicSet(1, ()))
        q = build_qr(prob, 1)
        sol = q.solve()
        cert = q.certificate(prob.objective, sol)
        assert abs(cert.bound) <= 1e-5
        # sigma_0 = X^2
        np.testing.assert_allclose(
            cert.grams[0][2], [[0.0, 0.0], [0.0, 1.0]], atol=1e-5
        )

    def test_interval_hand_certificate(self):
        # X + 1 = (1+X)^2/2 + (1-X^2)/2
        prob = PolyOptProblem(poly1([0.0, 1.0]), interval_set())
        q = build_qr(prob, 1)
        sol = q.solve()
        cert = q.certificate(prob.objective, sol)
        assert abs(cert.bound - (-1.0)) <= 1e-6
        # Gram entries are only sqrt(gap)-accurate here: the unique
        # certificate is rank-deficient, so strict complementarity fails
        np.testing.assert_allclose(
            cert.grams[0][2], [[0.5, 0.5], [0.5, 0.5]], atol=1e-4
        )
        np.testing.assert_allclose(cert.grams[1][2], [[0.5]], atol=1e-4)
        assert cert.residual <= 1e-6 * (1.0 + prob.objective.l1_norm())
        assert cert.rejection() is None

    def test_qhat_scalar_multipliers(self):
        prob = disk_problem()
        q = build_qhat(prob)
        sol = q.solve()
        cert = q.certificate(prob.objective, sol)
        # the convex Putinar form: the disk's multiplier is a nonnegative
        # constant (a 1x1 Gram over the constant monomial) and sigma_0 is
        # SOS-convex
        (_, basis, G), = cert.grams[1:]
        assert basis == [(0, 0)] and G.shape == (1, 1) and G[0, 0] >= -1e-9
        assert is_sos_convex(cert.sigma(0)).is_sos_convex

    def test_weak_duality(self):
        prob = PolyOptProblem(
            Polynomial.variable(2, 0), example_hyperbola_disk()
        )
        for r in (1, 2, 3):
            q = build_qr(prob, r)
            sol = q.solve()
            cert = q.certificate(prob.objective, sol)
            assert cert.bound <= sol.value + 1e-6

    def test_rejects_unsolved(self):
        prob = PolyOptProblem(poly1([0.0, 1.0]), interval_set())
        q = build_qr(prob, 1)
        sol = q.solve()
        sol.status = type(sol.status).INFEASIBLE
        with pytest.raises(PreconditionFailure):
            q.certificate(prob.objective, sol)


class TestLagrangian:
    def test_interval_hand_algebra(self):
        # X + 1 - (1 - X^2)/2 = (1+X)^2 / 2
        L = lagrangian(poly1([0.0, 1.0]), [0.5], -1.0, interval_set())
        assert (L - poly1([0.5, 1.0, 0.5])).l1_norm() <= 1e-12
        rep = kkt_residuals(
            poly1([0.0, 1.0]), [0.5], -1.0, interval_set(), [-1.0]
        )
        assert rep["gradient_norm"] <= 1e-12
        assert abs(rep["complementarity"][0]) <= 1e-12
        assert abs(rep["lagrangian_value"]) <= 1e-12

    def test_zero_multipliers(self):
        f = poly1([0.0, 1.0])
        L = lagrangian(f, [0.0], 2.5, interval_set())
        assert (L - (f - Polynomial.constant(1, 2.5))).l1_norm() == 0.0

    def test_negative_multiplier_rejected(self):
        with pytest.raises(PreconditionFailure):
            lagrangian(poly1([0.0, 1.0]), [-0.1], 0.0, interval_set())

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(PreconditionFailure):
            lagrangian(poly1([0.0, 1.0]), [0.1, 0.2], 0.0, interval_set())


class TestSolveHierarchy:
    def test_sos_convex_single_shot_on_disk(self):
        results = solve_hierarchy(disk_problem(), r_max=3)
        assert len(results) == 1
        res = results[0]
        assert res.kind == "qhat"
        assert res.exactness == "sos_convex_single_shot"
        assert abs(res.lower_bound - DISK_VALUE) <= 1e-6
        np.testing.assert_allclose(
            res.minimizer, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-4
        )

    def test_linear_objective_tracks_grid_oracle(self):
        prob = PolyOptProblem(
            Polynomial.variable(2, 0), example_hyperbola_disk()
        )
        results = solve_hierarchy(prob, r_max=3)
        oracle = grid_minimize(
            prob.objective, prob.feasible_set, (-0.5, -0.5), (1.5, 1.5)
        )[0]
        qr = [res for res in results if res.kind == "qr"]
        bounds = [res.lower_bound for res in qr if res.status == "optimal"]
        # monotone within tolerance, final bound near the oracle
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi + 1e-7
        assert bounds[-1] <= oracle + 1e-6
        assert bounds[-1] >= oracle - 1e-4

    def test_flat_rank_on_asymmetric_double_well(self):
        # unique minimizer, so the optimal moment matrix has rank one
        f = poly1([0.0, 0.3, -1.0, 0.0, 1.0])
        prob = PolyOptProblem(f, interval_set())
        results = solve_hierarchy(prob, r_max=3)
        tagged = [r for r in results if r.exactness == "flat_rank"]
        assert tagged
        res = tagged[0]
        xs = np.linspace(-1, 1, 200001)
        vals = np.polyval([1.0, 0.0, -1.0, 0.3, 0.0], xs)
        x_star = xs[np.argmin(vals)]
        assert abs(res.minimizer[0] - x_star) <= 1e-3
        assert res.lower_bound <= f.eval(res.minimizer) + 1e-6

    def test_symmetric_double_well_mean_point_rejected(self):
        # two global minimizers: flatness fires at rank two but the mean
        # point sits between the atoms and is rejected by the value check
        f = poly1([0.0, 0.0, -1.0, 0.0, 1.0])
        prob = PolyOptProblem(f, interval_set())
        results = solve_hierarchy(prob, r_max=2)
        for res in results:
            assert res.exactness != "flat_rank" or res.minimizer is not None
        qr = [r for r in results if r.kind == "qr" and r.status == "optimal"]
        assert qr
        assert abs(qr[-1].lower_bound - (-0.25)) <= 1e-6

    def test_no_exactness_on_stall_band_solves(self):
        # tolerances below what double precision reaches: every solve is
        # accepted from the stall band, and none may grant an exactness tag
        # (at target accuracy the disk stops single-shot at Q-hat and the
        # double well is flat at r = 2)
        tight = HierarchyOptions(
            solver=SolverOptions(feas_tol=1e-30, gap_tol=1e-30)
        )
        double_well = PolyOptProblem(
            poly1([0.0, 0.3, -1.0, 0.0, 1.0]), interval_set()
        )
        for prob, count in ((disk_problem(), 4), (double_well, 3)):
            results = solve_hierarchy(prob, r_max=3, options=tight)
            assert len(results) == count
            for res in results:
                assert res.status == "optimal"
                assert res.exactness == "none" and res.minimizer is None
                assert "stall-band solve, no exactness test;" in res.note

    def test_infeasible_set_reported(self):
        K = SemialgebraicSet(
            1, (poly1([-1.0, 1.0]), poly1([0.0, -1.0])), ball_bound=2.0
        )
        prob = PolyOptProblem(poly1([0.0, 1.0]), K)
        results = solve_hierarchy(prob, r_max=2)
        assert all(res.status == "infeasible" for res in results)

    def test_requires_archimedean_or_waiver(self):
        K = SemialgebraicSet(2, (Polynomial.variable(2, 0),))
        prob = PolyOptProblem(Polynomial.variable(2, 0), K)
        with pytest.raises(PreconditionFailure):
            solve_hierarchy(prob, r_max=1)
        results = solve_hierarchy(
            prob, r_max=1, options=HierarchyOptions(archimedean_waiver=True)
        )
        assert results

    def test_sandwich_invariant(self):
        for prob in (
            disk_problem(),
            PolyOptProblem(poly1([0.0, 0.3, -1.0, 0.0, 1.0]), interval_set()),
        ):
            for res in solve_hierarchy(prob, r_max=3):
                if res.minimizer is not None:
                    fx = prob.objective.eval(res.minimizer)
                    assert res.lower_bound <= fx + 1e-6
                if res.exactness != "none":
                    assert res.minimizer is not None
