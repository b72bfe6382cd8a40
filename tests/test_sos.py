"""SOS decomposition, SOS-convexity, and Jensen-type inequality checks."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import one_hot_record, ray_moment_matrix

from momentsos import sdp, sos
from momentsos.moments import MomentVector, mean_point, moment_matrix, riesz
from momentsos.poly import Polynomial, PreconditionFailure, monomial_basis
from momentsos.sdp import min_eigenvalue
from momentsos.sos import (
    GramIdentity,
    is_sos_convex,
    jensen_check,
    jensen_composed_check,
    random_admissible_moments,
    random_sos_convex,
    scalarize_hessian,
    sos_decompose,
    univariate_convexity_witness,
)


def poly1(coeffs):
    """Univariate polynomial from [c0, c1, ...]."""
    return Polynomial.make(1, {(k,): c for k, c in enumerate(coeffs)})


def random_sos_polynomial(rng, n, half_deg, num_squares=3):
    basis = monomial_basis(n, half_deg)
    p = Polynomial.zero(n)
    for _ in range(num_squares):
        q = Polynomial.make(
            n, {a: rng.standard_normal() for a in basis if rng.random() < 0.7}
        )
        p = p + q * q
    return p


class TestSosDecompose:
    def test_shifted_square(self):
        # (X+1)^2: constraints pin the Gram matrix completely
        p = poly1([1.0, 2.0, 1.0])
        dec = sos_decompose(p)
        assert dec.is_sos
        assert dec.witness.residual <= 1e-9
        np.testing.assert_allclose(
            dec.witness.grams[0][2], [[1.0, 1.0], [1.0, 1.0]], atol=1e-7
        )

    def test_constant(self):
        dec = sos_decompose(Polynomial.constant(2, 3.0))
        assert dec.is_sos
        (_, _, G), = dec.witness.grams
        assert G.shape == (1, 1)
        assert abs(G[0, 0] - 3.0) <= 1e-7

    def test_odd_degree_rejected_structurally(self):
        dec = sos_decompose(poly1([0.0, 0.0, 0.0, 1.0]))
        assert dec.status == "infeasible"
        assert "odd" in dec.reason

    def test_negative_somewhere(self):
        # X^2 - 1 is negative at the origin
        p = poly1([-1.0, 0.0, 1.0])
        dec = sos_decompose(p)
        assert dec.status == "infeasible"
        d = dec.certificate_direction
        assert d is not None
        M = ray_moment_matrix(monomial_basis(1, 1), d)
        assert min_eigenvalue(M) >= -1e-7 * (1.0 + np.max(np.abs(M)))
        value = sum(c * d[a] for a, c in p.terms.items())
        assert value < -1e-9

    def test_motzkin_infeasible_with_direction(self):
        x = Polynomial.variable(2, 0)
        y = Polynomial.variable(2, 1)
        m = x**4 * y**2 + x**2 * y**4 - 3.0 * x**2 * y**2 + Polynomial.constant(2, 1.0)
        dec = sos_decompose(m)
        assert dec.status == "infeasible"
        d = dec.certificate_direction
        M = ray_moment_matrix(monomial_basis(2, 3), d)
        assert min_eigenvalue(M) >= -1e-6 * (1.0 + np.max(np.abs(M)))
        value = sum(c * d[a] for a, c in m.terms.items())
        assert value < -1e-9

    def test_gram_problem_pattern_is_the_scan(self, monkeypatch):
        # the Gram problem is built without SdpProblem.make: its pattern
        # must be the record read off the nonzeros of the dense stack E
        # (`one_hot_record`), entry for entry, or there is none for a basis
        # that repeats a monomial, and then the stored stack is E
        problems = []

        def recording(problem, options=None):
            problems.append(problem)
            return sdp.solve(problem, options)

        monkeypatch.setattr(sos, "solve", recording)
        p = random_sos_polynomial(np.random.default_rng(3), 2, 2)
        sos_decompose(p)
        sos_decompose(poly1([1.0, 2.0, 1.0]), basis=[(0,), (1,), (1,)])
        bases = [monomial_basis(2, p.degree() // 2), [(0,), (1,), (1,)]]
        patterns = []
        for problem, basis in zip(problems, bases):
            # a unit entry wherever basis products hit the monomial
            _, rows, cols, group = sos._gram_constraint_index(basis)
            E = np.zeros((problem.num_constraints, len(basis), len(basis)))
            E[group, rows, cols] = 1.0
            E[group, cols, rows] = 1.0
            (stored,) = problem.A
            record = one_hot_record(E)
            one_hot = isinstance(stored, sdp.OneHot)
            patterns.append(one_hot)
            if not one_hot:
                assert record is None
                assert stored.tobytes() == E.tobytes()
                continue
            assert isinstance(record, sdp.OneHot)
            for a, b in zip(stored, record):
                assert a.tobytes() == b.tobytes()
        assert patterns == [True, False]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(PreconditionFailure):
            sos_decompose(Polynomial.zero(2))

    def test_support_outside_basis_products(self):
        p = poly1([0.0, 0.0, 1.0])  # X^2
        dec = sos_decompose(p, basis=[(0,)])  # constants only
        assert dec.status == "infeasible"
        assert "outside" in dec.reason

    def test_gram_soundness_random_sos(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            p = random_sos_polynomial(rng, n, int(rng.integers(1, 3)))
            if p.is_zero():
                continue
            dec = sos_decompose(p)
            assert dec.is_sos
            assert dec.witness.residual <= 1e-7 * (1.0 + p.l1_norm())
            assert min_eigenvalue(dec.witness.grams[0][2]) >= -1e-7
            recon = dec.witness.sigma(0)
            assert (p - recon).l1_norm() <= 1e-7 * (1.0 + p.l1_norm())

    def test_sos_implies_nonnegative_on_samples(self):
        rng = np.random.default_rng(11)
        p = random_sos_polynomial(rng, 2, 2, num_squares=4)
        dec = sos_decompose(p)
        assert dec.is_sos
        pts = rng.uniform(-3.0, 3.0, size=(1000, 2))
        vals = np.array([p.eval(x) for x in pts])
        assert np.min(vals) >= -1e-6

    def test_witness_json_round_trip(self):
        dec = sos_decompose(poly1([1.0, 2.0, 1.0]))
        back = GramIdentity.from_json(json.loads(json.dumps(dec.witness.to_json())))
        assert back.grams[0][1] == dec.witness.grams[0][1]
        np.testing.assert_allclose(back.grams[0][2], dec.witness.grams[0][2])

    def test_residual_shows_a_tiny_gram_perturbation(self):
        # (X+1)^2 = z'Gz over z = (1, X) with G all ones; a 1e-13 change of
        # G is below the input pruning threshold, yet the residual shows it
        p, basis = poly1([1.0, 2.0, 1.0]), [(0,), (1,)]
        G = np.ones((2, 2))
        witness = GramIdentity(p, 0.0, [(poly1([1.0]), basis, G)])
        assert witness.defect().is_zero()
        G[1, 1] += 1e-13
        assert witness.residual == pytest.approx(1e-13, rel=1e-2, abs=0.0)

    def test_accuracy_is_the_gram_solves(self):
        # the Gram solve of (X1 X2 - 1)^2 + (X1 + X2/2)^2 is accepted from
        # the stall band: still "sos", but the result says so
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        dec = sos_decompose((x1 * x2 - 1.0) ** 2 + (x1 + 0.5 * x2) ** 2)
        assert (dec.status, dec.accuracy) == ("sos", "stall_band")
        assert sos_decompose(poly1([1.0, 2.0, 1.0])).accuracy == "target"
        # odd degree is rejected before any SDP runs
        assert sos_decompose(poly1([0.0, 0.0, 0.0, 1.0])).accuracy == "target"


class TestSosConvexity:
    def test_accuracy_is_the_gram_solves(self, monkeypatch):
        # the accuracy of the scalarized Hessian's Gram solve, passed on
        f = poly1([0.0, 0.0, 0.0, 0.0, 1.0])
        assert is_sos_convex(f).accuracy == "target"
        verdicts = {"sos": "sos_convex", "infeasible": "not_sos_convex"}
        for status, verdict in verdicts.items():
            stalled = sos.SosDecomposition(status, accuracy="stall_band")
            monkeypatch.setattr(sos, "sos_decompose", lambda *a, **k: stalled)
            res = is_sos_convex(f)
            assert (res.status, res.accuracy) == (verdict, "stall_band")

    def test_accepts_quartic_powers(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        f = x1**4 + x2**4
        res = is_sos_convex(f)
        assert res.is_sos_convex
        # witness reconstructs the scalarized Hessian
        h = scalarize_hessian(f)
        assert res.witness.target == h
        assert res.witness.residual <= 1e-6 * (1.0 + h.l1_norm())

    def test_accepts_convex_quadratics(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            A = rng.standard_normal((n, n))
            H = A @ A.T
            terms = {}
            for i in range(n):
                for j in range(n):
                    a = [0] * n
                    a[i] += 1
                    a[j] += 1
                    key = tuple(a)
                    terms[key] = terms.get(key, 0.0) + 0.5 * H[i, j]
            f = Polynomial.make(n, terms) + Polynomial.make(
                n, {tuple(int(t == i) for t in range(n)): rng.standard_normal()
                    for i in range(n)}
            )
            res = is_sos_convex(f)
            assert res.is_sos_convex
            G = res.witness.grams[0][2]
            np.testing.assert_allclose(G, H, atol=1e-9)
            assert res.witness.target == scalarize_hessian(f)
            assert res.witness.residual <= 1e-12 * (1.0 + f.l1_norm())

    def test_rejects_indefinite_quadratic(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        res = is_sos_convex(x1 * x2)
        assert not res.is_sos_convex

    def test_rejects_quartic_well(self):
        # X^4 - X^2 has f''(0) = -2
        f = poly1([0.0, 0.0, -1.0, 0.0, 1.0])
        res = is_sos_convex(f)
        assert not res.is_sos_convex

    def test_rejects_odd_degree(self):
        res = is_sos_convex(poly1([0.0, 0.0, 0.0, 1.0]))
        assert not res.is_sos_convex
        assert "odd" in res.reason

    def test_affine_trivially_accepted(self):
        f = Polynomial.make(2, {(1, 0): 2.0, (0, 0): -1.0})
        assert is_sos_convex(f).is_sos_convex
        # the zero Hessian is the witness, an n x n zero Gram matrix
        f = Polynomial.make(3, {(1, 0, 0): 2.0, (0, 0, 1): -1.0, (0, 0, 0): 5.0})
        res = is_sos_convex(f)
        assert res.status == "sos_convex"
        np.testing.assert_array_equal(res.witness.grams[0][2], np.zeros((3, 3)))
        assert res.witness.residual == 0

    def test_scalarize_hessian_quartic(self):
        # f = X^4: W' f'' W = 12 X^2 W^2
        f = poly1([0.0, 0.0, 0.0, 0.0, 1.0])
        h = scalarize_hessian(f)
        assert h.terms == {(2, 2): 12.0}

    def test_sos_convex_implies_hessian_psd_on_samples(self):
        rng = np.random.default_rng(19)
        checked = 0
        while checked < 500:
            f, _ = random_sos_convex(rng, int(rng.integers(1, 4)), 4)
            hess = f.hessian()
            for _ in range(25):
                x = rng.uniform(-2.0, 2.0, size=f.n)
                H = np.array([[h.eval(x) for h in row] for row in hess])
                scale = 1.0 + float(np.max(np.abs(H)))
                assert min_eigenvalue(0.5 * (H + H.T)) >= -1e-6 * scale
                checked += 1


class TestJensen:
    def test_basic_even_moment_fixture(self):
        # y = (1, 0, 1, 0, 3) on one variable at order 2
        y = MomentVector(1, 2, np.array([1.0, 0.0, 1.0, 0.0, 3.0]))
        f = poly1([0.0, 0.0, 1.0])
        rep = jensen_check(f, y)
        assert rep.holds
        assert abs(rep.lhs - 1.0) <= 1e-12
        assert abs(rep.rhs) <= 1e-12

    def test_dirac_equality(self):
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        f = x1**4 + x2**4
        y = MomentVector.from_mixture(np.array([[0.3, -0.7]]), np.array([1.0]), 2)
        rep = jensen_check(f, y)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * (1.0 + abs(rep.rhs))

    def test_linear_equality_on_mixture(self):
        f = Polynomial.make(2, {(1, 0): 2.0, (0, 1): -1.0, (0, 0): 0.5})
        pts = np.array([[0.1, 0.4], [-1.2, 0.8], [2.0, -0.3]])
        y = MomentVector.from_mixture(pts, np.array([0.5, 0.25, 0.25]), 2)
        rep = jensen_check(f, y)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * (1.0 + abs(rep.rhs))

    def test_strict_gap_on_symmetric_mixture(self):
        # f = X^4 against the two-point measure at +-1: E f = 1 > f(0)
        y = MomentVector.from_mixture(
            np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]), 2
        )
        f = poly1([0.0, 0.0, 0.0, 0.0, 1.0])
        rep = jensen_check(f, y)
        assert rep.holds
        assert rep.lhs - rep.rhs >= 1.0 - 1e-9

    def test_rejects_nonconvex_objective(self):
        f = poly1([0.0, 0.0, -1.0, 0.0, 1.0])
        y = MomentVector.from_mixture(np.array([[0.0]]), np.array([1.0]), 2)
        with pytest.raises(PreconditionFailure) as exc:
            jensen_check(f, y)
        assert "is_sos_convex" in exc.value.clause

    def test_rejects_degree_overflow(self):
        f = poly1([0.0, 0.0, 0.0, 0.0, 1.0])
        y = MomentVector.from_mixture(np.array([[0.5]]), np.array([1.0]), 1)
        with pytest.raises(PreconditionFailure) as exc:
            jensen_check(f, y)
        assert "deg f" in exc.value.clause

    def test_rejects_indefinite_moment_matrix(self):
        y = MomentVector(1, 1, np.array([1.0, 0.0, -1.0]))
        with pytest.raises(PreconditionFailure) as exc:
            jensen_check(poly1([0.0, 0.0, 1.0]), y)
        assert "PSD" in exc.value.clause

    def test_rejects_unnormalized_mass(self):
        y = MomentVector(1, 1, np.array([2.0, 0.0, 1.0]))
        with pytest.raises(PreconditionFailure) as exc:
            jensen_check(poly1([0.0, 0.0, 1.0]), y)
        assert "y0" in exc.value.clause

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_holds_on_random_mixtures_for_fixed_convex_f(self, seed):
        rng = np.random.default_rng(seed)
        x1 = Polynomial.variable(2, 0)
        x2 = Polynomial.variable(2, 1)
        f = x1**4 + x2**4 + x1 * x1 + x1 * x2 + x2 * x2 + 3.0 * x1
        conv = is_sos_convex(f)
        assert conv.is_sos_convex
        k = int(rng.integers(1, 5))
        pts = rng.normal(0.0, 1.0, size=(k, 2))
        w = rng.uniform(0.1, 1.0, size=k)
        y = MomentVector.from_mixture(pts, w / w.sum(), 2)
        assert jensen_check(f, y, sos_convexity=conv).holds


class TestJensenComposed:
    def test_even_moment_fixture(self):
        # f(t) = t^2, g = X^2: L_y(X^4) = 3 >= (L_y X^2)^2 = 1
        y = MomentVector(1, 2, np.array([1.0, 0.0, 1.0, 0.0, 3.0]))
        rep = jensen_composed_check(poly1([0.0, 0.0, 1.0]), poly1([0.0, 0.0, 1.0]), y)
        assert rep.holds
        assert abs(rep.lhs - 3.0) <= 1e-12
        assert abs(rep.rhs - 1.0) <= 1e-12

    def test_dirac_equality(self):
        g = Polynomial.make(2, {(1, 0): 1.0, (0, 1): 1.0})
        y = MomentVector.from_mixture(np.array([[0.4, 1.1]]), np.array([1.0]), 2)
        rep = jensen_composed_check(poly1([0.0, 0.0, 1.0]), g, y)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * (1.0 + abs(rep.rhs))

    def test_affine_outer_equality(self):
        g = Polynomial.make(2, {(2, 0): 1.0, (0, 1): -2.0})
        pts = np.array([[0.2, 0.5], [1.0, -1.0]])
        y = MomentVector.from_mixture(pts, np.array([0.6, 0.4]), 2)
        rep = jensen_composed_check(poly1([1.5, -2.0]), g, y)
        assert rep.holds
        assert abs(rep.lhs - rep.rhs) <= 1e-9 * (1.0 + abs(rep.rhs))

    def test_rejects_nonconvex_outer(self):
        y = MomentVector.from_mixture(np.array([[0.0]]), np.array([1.0]), 2)
        with pytest.raises(PreconditionFailure) as exc:
            jensen_composed_check(poly1([0.0, 0.0, 0.0, 1.0]), poly1([0.0, 1.0]), y)
        assert "convex" in exc.value.clause
        assert "t =" in str(exc.value)

    def test_univariate_convexity_witness(self):
        assert univariate_convexity_witness(poly1([0.0, 1.0])) is None
        assert univariate_convexity_witness(poly1([0.0, 0.0, 0.0, 0.0, 1.0])) is None
        t = univariate_convexity_witness(poly1([0.0, 0.0, 0.0, 1.0]))
        assert t is not None
        fpp = poly1([0.0, 6.0])
        assert fpp.eval([t]) < 0
        # the first of 1, -1, 2, -2, 4, ... where f'' < 0
        assert t == -1.0
        # f'' = 100 - X^4
        f = poly1([0.0, 0.0, 50.0, 0.0, 0.0, 0.0, -1.0 / 30.0])
        assert univariate_convexity_witness(f) == 4.0

    def test_univariate_witness_between_far_roots(self):
        # f'' = (X - 30)^2 - 1 is negative only on (29, 31), with f''(0) = 899
        f = poly1([0.0, 0.0, 899.0 / 2.0, -10.0, 1.0 / 12.0])
        fpp = f.diff(0).diff(0)
        assert sos_decompose(fpp).status == "infeasible"
        t = univariate_convexity_witness(f)
        assert t == pytest.approx(30.0)
        assert fpp.eval([t]) < 0

    def test_univariate_witness_never_made_up(self, monkeypatch):
        # f'' = 12 X^2 >= 0: if its decomposition fails, no point is negative
        failed = sos.SosDecomposition(status="max_iterations")
        monkeypatch.setattr(sos, "sos_decompose", lambda p: failed)
        with pytest.raises(PreconditionFailure, match="max_iterations"):
            univariate_convexity_witness(poly1([0.0, 0.0, 0.0, 0.0, 1.0]))


class TestGenerators:
    def test_integrated_quadratic_form_inverts_hessian(self):
        # X' (int int Hess f(sX)) X = f - f(0) - grad f(0)'X: Taylor's
        # remainder at 0 in averaged-Hessian form
        rng = np.random.default_rng(8)
        for _ in range(20):
            n = int(rng.integers(1, 4))
            basis = monomial_basis(n, int(rng.integers(2, 7)))
            f = Polynomial.make(
                n, {a: rng.standard_normal() for a in basis if rng.random() < 0.6}
            )
            zero = np.zeros(n)
            affine = f.eval(zero) + Polynomial.from_arrays(
                n, np.eye(n), [g.eval(zero) for g in f.gradient()]
            )
            resid = sos._integrated_quadratic_form(f.hessian()) - (f - affine)
            assert resid.l1_norm() <= 1e-12 * max(1.0, f.l1_norm())

    def test_random_sos_convex_certified(self):
        rng = np.random.default_rng(0)
        f, conv = random_sos_convex(rng, 2, 4)
        assert conv.is_sos_convex
        assert f.degree() <= 4

    def test_random_admissible_moments_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            y = random_admissible_moments(rng, 2, 2)
            assert abs(y.y0 - 1.0) <= 1e-12
            assert min_eigenvalue(moment_matrix(y, 2)) >= -1e-12

    def test_generators_deterministic_under_seed(self):
        f1, _ = random_sos_convex(np.random.default_rng(42), 2, 4)
        f2, _ = random_sos_convex(np.random.default_rng(42), 2, 4)
        assert f1.terms == f2.terms
        y1 = random_admissible_moments(np.random.default_rng(9), 2, 2)
        y2 = random_admissible_moments(np.random.default_rng(9), 2, 2)
        np.testing.assert_array_equal(y1.values, y2.values)

    def test_joint_jensen_property(self):
        rng = np.random.default_rng(123)
        for _ in range(8):
            f, conv = random_sos_convex(rng, 2, 4)
            for _ in range(8):
                y = random_admissible_moments(rng, 2, 2)
                rep = jensen_check(f, y, sos_convexity=conv)
                assert rep.holds
