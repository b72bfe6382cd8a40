"""Acceptance gate: one test per headline requirement, each printing a
single [PASS] line with the measured quantities when run with -s.

Everything here goes through public entry points only; tolerances and
counts are stated inline next to the asserts they justify.
"""

import math
import time

import numpy as np
import pytest

from momentsos import (
    PolyOptProblem,
    Polynomial,
    build_qr,
    build_sdr,
    certify_convexity,
    is_sos_convex,
    jensen_check,
    jensen_composed_check,
    monomial_basis,
    nondegeneracy_probe,
    random_admissible_moments,
    random_sos_convex,
    rho_program,
    sdr_support,
    solve,
    solve_hierarchy,
    sos_decompose,
)

from helpers import (
    example_degenerate_cube,
    example_hyperbola_disk,
    grid_minimize,
    make_strictly_feasible_sdp,
    unit_disk,
)

SEED = 20260825


def test_criterion_1_lens_certification_with_pinned_order():
    """|rho_1| <= 1e-6 at d_1 = 3, quadratic shortcut for g_2, under 60 s."""
    t0 = time.perf_counter()
    cert = certify_convexity(example_hyperbola_disk(), d_fixed={1: 3})
    elapsed = time.perf_counter() - t0

    assert cert.status == "certified_numerically"
    rec1, rec2 = cert.records
    assert rec1.d_j == 3 and rec1.method == "rho_sdp"
    assert abs(rec1.rho_j) <= 1e-6
    assert rec1.closed
    assert rec2.d_j == 1 and rec2.method == "quadratic_concave_shortcut"
    assert rec2.closed
    assert elapsed <= 60.0
    print(
        f"\n[PASS] lens certified: rho_1 = {rec1.rho_j:.3e} at d_1 = 3, "
        f"g_2 shortcut at d_2 = 1, {elapsed:.1f}s"
    )


def test_criterion_2_lens_moment_structure():
    """Frozen optimal pseudo-moments of the d = 3 test program and their
    two symmetries."""
    prog = rho_program(example_hyperbola_disk(), 1, 3)
    sol = prog.solve()
    assert sol.is_optimal
    mv = prog.moment_vector(sol)

    for a in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
        assert mv.values[mv.index_of(a)] == pytest.approx(0.5707, abs=5e-3)

    order2 = [
        ((2, 0, 0, 0), 0.4090),
        ((1, 1, 0, 0), 0.25),
        ((1, 0, 1, 0), 0.4090),
        ((1, 0, 0, 1), 0.25),
        ((0, 2, 0, 0), 0.4090),
        ((0, 1, 1, 0), 0.25),
        ((0, 1, 0, 1), 0.4090),
        ((0, 0, 2, 0), 0.4090),
        ((0, 0, 1, 1), 0.25),
        ((0, 0, 0, 2), 0.4090),
    ]
    worst = 0.0
    for a, want in order2:
        got = mv.values[mv.index_of(a)]
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=5e-3)

    sym = 0.0
    for a1 in range(4):
        for a2 in range(4 - a1):
            zaa = mv.values[mv.index_of((a1, a2, a1, a2))]
            z2a = mv.values[mv.index_of((2 * a1, 2 * a2, 0, 0))]
            sym = max(sym, abs(zaa - z2a))
    for a, _ in order2:
        swapped = (a[1], a[0], a[3], a[2])
        sym = max(
            sym,
            abs(mv.values[mv.index_of(a)] - mv.values[mv.index_of(swapped)]),
        )
    assert sym <= 1e-4
    print(
        f"\n[PASS] lens moment structure: order-2 deviation {worst:.2e} "
        f"(gate 5e-3), symmetry deviation {sym:.2e} (gate 1e-4)"
    )


def test_criterion_3_single_shot_exactness_on_disk():
    """f = (x1-1)^2 + (x2-1)^2 over the unit disk: exact in one shot."""
    f = Polynomial.make(
        2, {(0, 0): 2.0, (1, 0): -2.0, (0, 1): -2.0, (2, 0): 1.0, (0, 2): 1.0}
    )
    t0 = time.perf_counter()
    results = solve_hierarchy(PolyOptProblem(f, unit_disk()), r_max=3)
    elapsed = time.perf_counter() - t0

    res = results[0]
    target = 3.0 - 2.0 * math.sqrt(2.0)
    assert res.exactness == "sos_convex_single_shot"
    assert abs(res.lower_bound - target) <= 1e-6
    np.testing.assert_allclose(
        res.minimizer, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-4
    )
    assert elapsed <= 5.0
    print(
        f"\n[PASS] single-shot exactness: value deviation "
        f"{abs(res.lower_bound - target):.2e}, {elapsed:.2f}s"
    )


def test_criterion_4_hierarchy_tracks_grid_oracle():
    """Linear objectives over the lens: relaxation bounds reach a
    1e-3-resolution grid oracle within 1e-4 by order 3, monotonically."""
    K = example_hyperbola_disk()
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    lines = []
    for f in [x1, x1 + x2]:
        oracle = grid_minimize(f, K, (-0.5, -0.5), (1.5, 1.5), steps=2001)[0]
        prob = PolyOptProblem(f, K)
        bounds = []
        for r in range(1, 4):
            sol = build_qr(prob, r).solve()
            assert sol.is_optimal
            bounds.append(sol.value)
        for lo, hi in zip(bounds, bounds[1:]):
            assert lo <= hi + 1e-7
        assert abs(bounds[-1] - oracle) <= 1e-4
        lines.append(f"dev {abs(bounds[-1] - oracle):.2e}")
    print(
        f"\n[PASS] hierarchy vs grid oracle by r = 3: x1 {lines[0]}, "
        f"x1+x2 {lines[1]} (gate 1e-4), bounds monotone within 1e-7"
    )


def test_criterion_5_jensen_property_suite():
    """100 random SOS-convex f x 100 admissible pseudo-moment vectors:
    zero violations; composed variant on 100 cases."""
    rng = np.random.default_rng(SEED)
    checks = 0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        f, conv = random_sos_convex(rng, n, 4)
        for _ in range(100):
            y = random_admissible_moments(rng, n, 2)
            rep = jensen_check(f, y, sos_convexity=conv)
            assert rep.holds, (f.terms, y.values)
            checks += 1
    assert checks == 10000

    composed = 0
    for case in range(100):
        n = int(rng.integers(1, 4))
        quartic = case % 2 == 0
        coeffs = {
            (0,): float(rng.standard_normal()),
            (1,): float(rng.standard_normal()),
            (2,): float(rng.uniform(0.1, 1.5)),
        }
        if quartic:
            coeffs[(4,)] = float(rng.uniform(0.1, 1.0))
        f_uni = Polynomial.make(1, coeffs)
        g_deg = 1 if quartic else 2
        g_terms = {
            a: float(rng.standard_normal())
            for a in monomial_basis(n, g_deg)
            if rng.random() < 0.7
        }
        g = Polynomial.make(n, g_terms) if g_terms else Polynomial.constant(n, 0.3)
        y = random_admissible_moments(rng, n, 2)
        rep = jensen_composed_check(f_uni, g, y)
        assert rep.holds, (f_uni.terms, g.terms, y.values)
        composed += 1
    assert composed == 100
    print(
        f"\n[PASS] Jensen suite: {checks} direct checks and {composed} "
        "composed checks, zero violations at 1e-7"
    )


def test_criterion_6_sos_suite():
    x = Polynomial.variable(1, 0)
    dec = sos_decompose((x + 1.0) ** 2)
    assert dec.status == "sos"
    assert dec.witness.residual <= 1e-9

    motzkin = Polynomial.make(
        2, {(4, 2): 1.0, (2, 4): 1.0, (0, 0): 1.0, (2, 2): -3.0}
    )
    assert sos_decompose(motzkin).status == "infeasible"

    # reconstruction on normalized random sums of squares
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(15):
        n = int(rng.integers(1, 3))
        p = Polynomial.zero(n)
        for _ in range(int(rng.integers(1, 4))):
            q = Polynomial.make(
                n,
                {
                    a: float(rng.standard_normal())
                    for a in monomial_basis(n, 2)
                    if rng.random() < 0.8
                },
            )
            p = p + q * q
        if p.degree() < 2:
            continue
        p = (1.0 / p.l1_norm()) * p
        dec = sos_decompose(p)
        assert dec.status == "sos"
        defect = (dec.witness.reconstruct(n) - p).l1_norm()
        worst = max(worst, defect)
        assert defect <= 1e-7

    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    assert is_sos_convex(x1**4 + x2**4).is_sos_convex
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        Q = A @ A.T
        terms = {tuple(0 for _ in range(n)): float(rng.standard_normal())}
        for i in range(n):
            e_i = tuple(int(t == i) for t in range(n))
            terms[e_i] = float(rng.standard_normal())
            for j in range(n):
                key = tuple(
                    int(t == i) + int(t == j) for t in range(n)
                )
                terms[key] = terms.get(key, 0.0) + float(Q[i, j])
        quad = Polynomial.make(n, terms)
        assert is_sos_convex(quad).is_sos_convex
    assert not is_sos_convex(x**4 - x**2).is_sos_convex
    print(
        f"\n[PASS] SOS suite: square residual {dec.witness.residual:.1e}, "
        f"Motzkin rejected, worst reconstruction defect {worst:.2e} "
        "(gate 1e-7), convex quadratics accepted, x^4 - x^2 rejected"
    )


def _kkt(problem, sol):
    b = problem.b_vector()
    ax = np.array(
        [
            sum(float(np.sum(Ab * Xb)) for Ab, Xb in zip(mats, sol.X))
            for mats, _ in problem.constraints
        ]
    )
    primal = float(np.max(np.abs(ax - b))) / max(1.0, float(np.max(np.abs(b))))
    dual = 0.0
    comp = 0.0
    for k, (Cb, Zb, Xb) in enumerate(zip(problem.C, sol.Z, sol.X)):
        atl = sum(
            sol.dual[i] * problem.constraints[i][0][k]
            for i in range(problem.num_constraints)
        )
        dual = max(dual, float(np.max(np.abs(Cb - Zb - atl))))
        comp += float(np.sum(Xb * Zb))
    dual /= max(1.0, max(float(np.max(np.abs(Cb))) for Cb in problem.C))
    comp /= 1.0 + abs(sol.primal_value) + abs(sol.dual_value)
    return primal, dual, comp


def test_criterion_7_sdp_random_suite():
    """200 strictly feasible SDPs: KKT residuals, gap, and weak duality
    all within 1e-7."""
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        problem, _ = make_strictly_feasible_sdp(rng)
        sol = solve(problem)
        assert sol.is_optimal, sol.message
        p_res, d_res, comp = _kkt(problem, sol)
        assert p_res <= 1e-7 and d_res <= 1e-7 and comp <= 1e-7
        scale = 1.0 + abs(sol.primal_value) + abs(sol.dual_value)
        weak = (sol.primal_value - sol.dual_value) / scale
        assert weak >= -1e-7
        worst = max(worst, p_res, d_res, comp, max(0.0, -weak))
    print(
        f"\n[PASS] SDP suite: 200 problems optimal, worst normalized "
        f"residual {worst:.2e} (gate 1e-7)"
    )


def test_criterion_8_degeneracy_guard():
    """The cubed constraint's boundary gradient is flagged, and the flag
    survives into the certification output."""
    K = example_degenerate_cube()
    reports = nondegeneracy_probe(K)
    assert reports[0].degenerate
    assert not reports[1].degenerate

    cert = certify_convexity(K, d_max=3)
    assert 1 in cert.degenerate_flags
    assert cert.status != "certified_numerically"
    print(
        f"\n[PASS] degeneracy guard: min boundary gradient "
        f"{reports[0].min_gradient_norm:.1e} flagged DEGENERATE and "
        "carried into the certificate"
    )


def test_criterion_9_sdr_sandwich():
    """Support values over the certified lens lift stay within
    [f* + rho_1 - 1e-5, f* + 1e-5] of the grid optimum f*."""
    K = example_hyperbola_disk()
    cert = certify_convexity(K, d_fixed={1: 3})
    assert cert.status == "certified_numerically"
    sdr = build_sdr(K, cert)
    rho1 = cert.records[0].rho_j

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        c = rng.standard_normal(2)
        c /= np.linalg.norm(c)
        f = Polynomial.make(2, {(1, 0): float(c[0]), (0, 1): float(c[1])})
        f_star = grid_minimize(f, K, (0.0, 0.0), (1.3, 1.3))[0]
        val, _ = sdr_support(sdr, c)
        assert f_star + rho1 - 1e-5 <= val <= f_star + 1e-5
        worst = max(worst, abs(val - f_star))
    print(
        f"\n[PASS] SDr sandwich: 10 directions, worst |support - f*| "
        f"{worst:.2e} within [rho_1 - 1e-5, 1e-5], rho_1 = {rho1:.1e}"
    )
