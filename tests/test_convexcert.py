"""Convexity certification: rho programs, probes, weights, and SDr lifts."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from helpers import (
    example_degenerate_cube,
    example_hyperbola_disk,
    grid_minimize,
    unit_disk,
)

from momentsos import sdp
from momentsos.convexcert import (
    ConvexityCertificate,
    SdrRepresentation,
    build_sdr,
    certify_convexity,
    gradient_pairing,
    lift_to_xy,
    nondegeneracy_probe,
    rho_program,
    sample_supporting_hyperplane,
    sdr_support,
    slater_heuristic,
    _quadratic_part,
)
from momentsos.poly import (
    Polynomial,
    PreconditionFailure,
    SemialgebraicSet,
    basis_size,
)
from momentsos.sdp import SolverOptions, min_eigenvalue


def hyperbola_branches() -> SemialgebraicSet:
    """{x1*x2 >= 1/4, |x|^2 <= 9}: both hyperbola branches, not convex."""
    g1 = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    g2 = Polynomial.make(2, {(0, 0): 9.0, (2, 0): -1.0, (0, 2): -1.0})
    return SemialgebraicSet(2, (g1, g2), ball_bound=3.0)


def triangle() -> SemialgebraicSet:
    gs = (
        Polynomial.variable(2, 0),
        Polynomial.variable(2, 1),
        Polynomial.make(2, {(0, 0): 1.0, (1, 0): -1.0, (0, 1): -1.0}),
    )
    return SemialgebraicSet(2, gs, ball_bound=1.5)


def sample_inside(K: SemialgebraicSet, rng, count: int, box: float):
    pts = rng.uniform(-box, box, size=(200 * count, K.n))
    keep = [x for x in pts if K.contains(x)]
    assert len(keep) >= count
    return keep[:count]


# ---- doubled-variable helpers ------------------------------------------------


def test_lift_to_xy_embeds_each_side():
    p = Polynomial.make(2, {(2, 1): 3.0, (0, 0): -1.0})
    px = lift_to_xy(p, "x")
    py = lift_to_xy(p, "y")
    assert px.n == 4 and py.n == 4
    assert px.terms == {(2, 1, 0, 0): 3.0, (0, 0, 0, 0): -1.0}
    assert py.terms == {(0, 0, 2, 1): 3.0, (0, 0, 0, 0): -1.0}


def test_lift_to_xy_rejects_bad_side():
    with pytest.raises(PreconditionFailure):
        lift_to_xy(Polynomial.variable(1, 0), "z")


def test_gradient_pairing_hand_value():
    # g = x1*x2 - 1/4: <grad g(Y), X-Y> = y2(x1-y1) + y1(x2-y2)
    g = Polynomial.make(2, {(1, 1): 1.0, (0, 0): -0.25})
    expected = Polynomial.make(
        4, {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0, (0, 0, 1, 1): -2.0}
    )
    assert (gradient_pairing(g) - expected).l1_norm() <= 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_gradient_pairing_vanishes_on_diagonal(seed):
    rng = np.random.default_rng(seed)
    terms = {
        tuple(rng.integers(0, 3, size=2)): float(rng.standard_normal())
        for _ in range(4)
    }
    g = Polynomial.make(2, terms)
    x = rng.uniform(-1.0, 1.0, size=2)
    pairing = gradient_pairing(g)
    # x = y kills every (x_i - y_i) factor
    assert pairing.eval(np.concatenate([x, x])) == pytest.approx(0.0, abs=1e-9)
    # and at x != y it matches the numeric inner product
    y = rng.uniform(-1.0, 1.0, size=2)
    grad = np.array([p.eval(y) for p in g.gradient()])
    assert pairing.eval(np.concatenate([x, y])) == pytest.approx(
        float(grad @ (x - y)), rel=1e-9, abs=1e-9
    )


def test_quadratic_part_matrix():
    g = Polynomial.make(2, {(2, 0): 2.0, (1, 1): 3.0, (1, 0): 5.0, (0, 0): -1.0})
    Q = _quadratic_part(g)
    assert np.array_equal(Q, [[2.0, 1.5], [1.5, 0.0]])
    # certify_convexity reads Q of every g before its degree check, and
    # terms of degree 3 or more add nothing: the cube's
    # (1 - x1^2 + x2^2)^3 has quadratic part 3 (-x1^2 + x2^2)
    cube = example_degenerate_cube().constraints[0]
    assert np.array_equal(_quadratic_part(cube), np.diag([-3.0, 3.0]))
    cubic = Polynomial.make(2, {(3, 0): 7.0, (1, 2): -2.0, (1, 1): 4.0})
    assert np.array_equal(_quadratic_part(cubic), [[0.0, 2.0], [2.0, 0.0]])


# ---- rho program structure ----------------------------------------------------


def test_rho_program_validates_j():
    K = example_hyperbola_disk()
    with pytest.raises(PreconditionFailure):
        rho_program(K, 0, 2)
    with pytest.raises(PreconditionFailure):
        rho_program(K, 3, 2)


def test_rho_program_validates_degree():
    K = example_hyperbola_disk()
    with pytest.raises(PreconditionFailure):
        rho_program(K, 1, 0)
    # half degree of the cubed constraint is 3, so d_j = 2 is inadmissible
    with pytest.raises(PreconditionFailure):
        rho_program(example_degenerate_cube(), 1, 2)


def test_rho_equality_row_count():
    # one z_0 row plus one row L_z(g_j(Y) m) = 0 per monomial m of degree
    # at most 2(d - r_j)
    K = example_hyperbola_disk()
    for d in (2, 3):
        prog = rho_program(K, 1, d)
        assert prog.eq_rows.shape[0] == 1 + basis_size(4, 2 * (d - 1))
        assert prog.eq_rhs[0] == 1.0
        assert np.all(prog.eq_rhs[1:] == 0.0)


def test_rho_block_labels_skip_own_y():
    prog = rho_program(example_hyperbola_disk(), 1, 2)
    assert [b.label for b in prog.blocks] == ["moment", "g1(X)", "g2(X)", "g2(Y)"]
    prog2 = rho_program(example_hyperbola_disk(), 2, 2)
    assert [b.label for b in prog2.blocks] == ["moment", "g1(X)", "g2(X)", "g1(Y)"]


# ---- rho values on the lens fixture -------------------------------------------


def test_rho_first_order_negative():
    # d = 1 is admissible but too weak: the test value is exactly -3/4
    sol = rho_program(example_hyperbola_disk(), 1, 1).solve()
    assert sol.is_optimal
    assert sol.value == pytest.approx(-0.75, abs=1e-6)


def test_rho_closes_at_degree_three():
    sol = rho_program(example_hyperbola_disk(), 1, 3).solve()
    assert sol.is_optimal
    assert abs(sol.value) <= 1e-6


def test_rho_never_positive_on_convex_fixtures():
    # moments of any measure on {(x, x): g_j(x) = 0, x in K} are feasible
    # with objective zero, so rho_j <= 0 up to solver accuracy
    for K, j, orders in (
        (example_hyperbola_disk(), 1, (1, 2, 3)),
        (example_hyperbola_disk(), 2, (1, 2)),
        (unit_disk(), 1, (1, 2)),
    ):
        for d in orders:
            sol = rho_program(K, j, d).solve()
            assert sol.is_optimal
            assert sol.value <= 1e-6


def test_rho_moment_reproduction():
    """The optimal face is flat (any measure on the contact set is optimal);
    the embedding's canonical start pins which face point comes back.
    Frozen values for that point, plus its two symmetries."""
    prog = rho_program(example_hyperbola_disk(), 1, 3)
    sol = prog.solve()
    assert sol.is_optimal
    mv = prog.moment_vector(sol)

    order1 = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for a in order1:
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
    for a, want in order2:
        assert mv.values[mv.index_of(a)] == pytest.approx(want, abs=5e-3)

    # diagonal support: z_{(a,a)} = z_{(2a,0)} for |a| <= 3
    for a1 in range(4):
        for a2 in range(4 - a1):
            zaa = mv.values[mv.index_of((a1, a2, a1, a2))]
            z2a = mv.values[mv.index_of((2 * a1, 2 * a2, 0, 0))]
            assert abs(zaa - z2a) <= 1e-4
    # exchange symmetry x1 <-> x2 (applied on both copies)
    for a, _ in order2:
        swapped = (a[1], a[0], a[3], a[2])
        assert abs(
            mv.values[mv.index_of(a)] - mv.values[mv.index_of(swapped)]
        ) <= 1e-4


def test_rho_negative_on_branch_pair():
    sol = rho_program(hyperbola_branches(), 1, 1).solve()
    assert sol.is_optimal
    # bounded away from zero: the two branches violate the hyperplane test
    assert sol.value < -1.0


# ---- certify_convexity ---------------------------------------------------------


def test_certify_lens_pinned_order_three():
    cert = certify_convexity(example_hyperbola_disk(), d_fixed={1: 3})
    assert cert.status == "certified_numerically"
    assert cert.tolerance == 1e-6
    rec1, rec2 = cert.records
    assert rec1.method == "rho_sdp" and rec1.d_j == 3 and rec1.closed
    assert abs(rec1.rho_j) <= 1e-6
    assert rec2.method == "quadratic_concave_shortcut" and rec2.d_j == 1
    assert cert.d == 3
    assert cert.degenerate_flags == []


def test_certify_lens_unpinned_closes_at_two():
    # the ascent stops at the first order that closes, below the pin above
    cert = certify_convexity(example_hyperbola_disk())
    assert cert.status == "certified_numerically"
    assert cert.records[0].d_j == 2
    assert abs(cert.records[0].rho_j) <= 1e-6


def test_certify_does_not_close_on_stall_band_solves(monkeypatch):
    # tolerances below what double precision reaches, as the solver's
    # defaults: every rho solve is accepted from the stall band, and no
    # record may close on one
    tight = SolverOptions(feas_tol=1e-30, gap_tol=1e-30)
    monkeypatch.setattr(sdp, "SolverOptions", lambda: tight)
    cert = certify_convexity(example_hyperbola_disk(), d_max=2)
    assert cert.status != "certified_numerically"
    rec = cert.records[0]
    assert not rec.closed and rec.d_j == 2
    assert abs(rec.rho_j) <= 1e-6
    assert rec.note == "stall-band solve at d_j = 2"


def test_certify_rejects_inadmissible_pin():
    with pytest.raises(PreconditionFailure):
        certify_convexity(example_hyperbola_disk(), d_fixed={1: 0})


@pytest.mark.parametrize("j", [0, 3, 5])
def test_certify_rejects_pin_outside_constraints(j):
    # a pin for a constraint the set does not have is an input error, not
    # a no-op that certifies at the default orders
    with pytest.raises(PreconditionFailure, match=f"d_fixed keys j in 1..m: j = {j}"):
        certify_convexity(example_hyperbola_disk(), d_max=2, d_fixed={j: 3})


def test_certify_unit_disk_shortcut_only():
    cert = certify_convexity(unit_disk())
    assert cert.status == "certified_numerically"
    assert [r.method for r in cert.records] == ["quadratic_concave_shortcut"]
    assert cert.records[0].rho_j == 0.0 and cert.records[0].d_j == 1


def test_certify_thin_slab_needs_witness_or_waiver():
    # interior margin 1e-9 defeats the Slater heuristic's 1e-6 margin
    slab = SemialgebraicSet(
        1,
        (
            Polynomial.variable(1, 0),
            Polynomial.make(1, {(0,): 1e-9, (1,): -1.0}),
        ),
    )
    with pytest.raises(PreconditionFailure):
        certify_convexity(slab)
    with pytest.raises(PreconditionFailure):
        certify_convexity(slab, witness_point=[1.0])  # not in K
    with pytest.raises(PreconditionFailure, match="every g_j > 0"):
        certify_convexity(slab, witness_point=[0.0])  # on {x1 = 0}
    cert = certify_convexity(slab, witness_point=[5e-10])
    assert cert.status == "certified_numerically"  # affine => shortcut
    cert2 = certify_convexity(slab, slater_waiver=True)
    assert cert2.status == "certified_numerically"


def test_certify_rejects_a_witness_point_without_interior():
    # {x : x^2 - 1 >= 0, 1 - x^2 >= 0} is {-1, 1}: x = 1 lies in K with
    # both g_j at zero, so it is no Slater point
    two_points = SemialgebraicSet(
        1,
        (
            Polynomial.make(1, {(2,): 1.0, (0,): -1.0}),
            Polynomial.make(1, {(0,): 1.0, (2,): -1.0}),
        ),
    )
    assert two_points.contains(np.array([1.0]))
    with pytest.raises(PreconditionFailure, match="every g_j > 0"):
        certify_convexity(two_points, witness_point=[1.0])


def test_certify_branch_pair_refuted():
    K = hyperbola_branches()
    cert = certify_convexity(K, d_max=1)
    assert cert.status == "refuted_by_sample"
    assert not cert.records[0].closed
    ref = cert.refutation
    assert ref is not None and ref["j"] == 1
    x, y = np.array(ref["x"]), np.array(ref["y"])
    g = K.constraints[0]
    grad = np.array([p.eval(y) for p in g.gradient()])
    assert float(grad @ (x - y)) == pytest.approx(ref["violation"])
    assert ref["violation"] < -1e-4 * (1.0 + float(np.linalg.norm(grad)))
    assert K.contains(x, tol=1e-9)
    assert abs(g.eval(y)) <= 1e-4


def test_certify_empty_constraint_list_rejected():
    with pytest.raises(PreconditionFailure):
        certify_convexity(SemialgebraicSet(2, ()))


def test_certify_attaches_degeneracy_flag():
    # the cubed constraint's gradient vanishes identically on its zero set,
    # so the hyperplane inequality can hold vacuously there; whatever the
    # rho values say, the flag must ride along on the certificate
    cert = certify_convexity(example_degenerate_cube(), d_max=3)
    assert 1 in cert.degenerate_flags
    assert cert.status != "certified_numerically"
    assert not cert.records[0].closed
    assert cert.records[1].method == "quadratic_concave_shortcut"


# ---- nondegeneracy probe -------------------------------------------------------


def test_probe_flags_vanishing_gradient_boundary():
    reports = nondegeneracy_probe(example_degenerate_cube())
    assert reports[0].degenerate
    assert reports[0].min_gradient_norm < 1e-6
    assert not reports[1].degenerate
    # sphere of radius sqrt(10): gradient norm 2*sqrt(10)
    assert reports[1].min_gradient_norm == pytest.approx(
        2.0 * np.sqrt(10.0), abs=1e-3
    )


def test_probe_unit_disk_gradient():
    (rep,) = nondegeneracy_probe(unit_disk())
    assert rep.boundary_samples > 0
    assert not rep.degenerate
    assert rep.min_gradient_norm == pytest.approx(2.0, abs=1e-3)


def test_probe_lens_clean():
    reports = nondegeneracy_probe(example_hyperbola_disk())
    assert all(not rep.degenerate for rep in reports)
    assert all(rep.boundary_samples > 0 for rep in reports)
    # closest boundary point of the hyperbola to the origin is (1/2, 1/2)
    assert reports[0].min_gradient_norm >= 0.70


def test_probe_reports_inactive_constraint():
    K = SemialgebraicSet(1, (Polynomial.make(1, {(0,): 100.0, (1,): 1.0}),))
    (rep,) = nondegeneracy_probe(K)
    assert rep.boundary_samples == 0
    assert rep.note == "no active samples"
    assert not rep.degenerate  # explicitly not a pass either


# boundary_samples, min ||grad g_j|| (None where it is rounding noise) and the
# degenerate flag per constraint, as the per-point probe reported them;
# batching the evaluation must not move a sampled point
PROBE_PINS = {
    "disk": (
        unit_disk,
        [[(200, 1.9999999999999996, False)]] * 4,
    ),
    "lens": (
        example_hyperbola_disk,
        [
            [(174, 0.7071068269828592, False), (49, 1.4142135623730945, False)],
            [(178, 0.7071365936374209, False), (52, 1.4142135623730945, False)],
            [(171, 0.7071281613615562, False), (47, 1.4142135623730943, False)],
            [(181, 0.7071122082679835, False), (45, 1.4142135623730945, False)],
        ],
    ),
    "cube": (
        example_degenerate_cube,
        [
            [(189, None, True), (118, 6.324555320336757, False)],
            [(174, None, True), (111, 6.324555320336757, False)],
            [(182, None, True), (112, 6.324555320336757, False)],
            [(173, None, True), (109, 6.324555320336757, False)],
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PROBE_PINS))
def test_samplers_pinned_on_fixtures(name):
    make, pins = PROBE_PINS[name]
    K = make()
    for seed, expected in enumerate(pins):
        reports = nondegeneracy_probe(K, seed=seed)
        for rep, (count, norm, degenerate) in zip(reports, expected):
            assert rep.boundary_samples == count, (seed, rep.j)
            assert rep.degenerate == degenerate, (seed, rep.j)
            if norm is None:
                assert rep.min_gradient_norm < 1e-12
            else:
                assert rep.min_gradient_norm == pytest.approx(norm, rel=1e-9)
        assert slater_heuristic(K, seed=seed)["passed"]
        assert sample_supporting_hyperplane(K, seed=seed) is None


# ---- sampled soundness and the Slater heuristic --------------------------------


def test_no_sampled_hyperplane_violation_on_certified_sets():
    # 2000 pairs (x, y) per g_j, x in K, y near {g_j = 0}:
    # <grad g_j(y), x - y> >= -1e-4 (1 + |grad|) throughout
    assert sample_supporting_hyperplane(example_hyperbola_disk()) is None
    assert sample_supporting_hyperplane(unit_disk()) is None


def test_slater_heuristic_finds_interior_point():
    res = slater_heuristic(example_hyperbola_disk())
    assert res["passed"]
    assert res["best_value"] >= 1e-6
    x = np.array(res["point"])
    assert all(g.eval(x) >= res["best_value"] - 1e-12 for g in
               example_hyperbola_disk().constraints)


# ---- dual weights ----------------------------------------------------------------


def test_shortcut_weights_exact_identity():
    cert = certify_convexity(unit_disk(), recover_weights=True)
    w = cert.records[0].weights
    assert w is not None
    assert w.residual <= 1e-12
    # sigma_0 Gram is [[I, -I], [-I, I]] over (X1, X2, Y1, Y2)
    eye = np.eye(2)
    (_, _, sigma0), (_, _, sigma1) = w.grams
    assert sigma0 == pytest.approx(np.block([[eye, -eye], [-eye, eye]]))
    assert min_eigenvalue(sigma0) >= -1e-12
    assert sigma1 == pytest.approx(np.array([[1.0]]))
    (psi_free, _), = w.free
    assert psi_free.terms == {(0, 0, 0, 0): -1.0}


def test_recovered_weights_residual_bound():
    K = example_hyperbola_disk()
    cert = certify_convexity(K, recover_weights=True)
    rec = cert.records[0]
    # every recovered sigma/psi multiplier is PSD and the identity holds,
    # both under the acceptance rule of every Gram identity
    assert rec.weights is not None
    assert rec.weights.rejection() is None


# ---- semidefinite representations ------------------------------------------------


def test_build_sdr_requires_certificate_or_override():
    with pytest.raises(PreconditionFailure):
        build_sdr(example_hyperbola_disk())


def test_build_sdr_rejects_uncertified_status():
    bad = ConvexityCertificate(
        status="inconclusive", tolerance=1e-6, records=[], probe=[],
        degenerate_flags=[],
    )
    with pytest.raises(PreconditionFailure):
        build_sdr(example_hyperbola_disk(), bad)


def test_build_sdr_validates_order_and_form():
    with pytest.raises(PreconditionFailure):
        build_sdr(example_degenerate_cube(), d=1)  # below max r_j = 3
    with pytest.raises(PreconditionFailure):
        build_sdr(unit_disk(), d=1, form="spectrahedron")


def test_sdr_shapes_on_certified_lens():
    K = example_hyperbola_disk()
    cert = certify_convexity(K, d_fixed={1: 3})
    sdr = build_sdr(K, cert)
    assert sdr.d == 3 and sdr.form == "localizing"
    assert [b.label for b in sdr.blocks] == [
        "moment",
        "localizing[1]",
        "localizing[2]",
    ]
    assert [b.dim for b in sdr.blocks] == [10, 6, 6]
    assert sdr.lift_dimension == 28  # s(6) moments for n = 2


def test_sdr_disk_order_one_support():
    disk = unit_disk()
    cert = certify_convexity(disk)
    sdr = build_sdr(disk, cert)
    assert sdr.d == 1
    assert [b.dim for b in sdr.blocks] == [3, 1]
    assert sdr.lift_dimension == 6
    value, point = sdr_support(sdr, [1.0, 0.0])
    assert value == pytest.approx(-1.0, abs=1e-6)
    assert point == pytest.approx(np.array([-1.0, 0.0]), abs=1e-4)


def test_sdr_dirac_lifts_are_members():
    K = example_hyperbola_disk()
    sdr = build_sdr(K, certify_convexity(K, d_fixed={1: 3}))
    rng = np.random.default_rng(5)
    for x in sample_inside(K, rng, 30, 1.3):
        y = sdr.lift_point(x)
        assert y.shape == (28,)
        assert sdr.satisfies(y)
    # a point outside K must fail the localizing blocks
    assert not sdr.satisfies(sdr.lift_point([1.5, 1.5]))


def test_sdr_support_sandwich_on_lens():
    K = example_hyperbola_disk()
    cert = certify_convexity(K, d_fixed={1: 3})
    rho1 = cert.records[0].rho_j
    sdr = build_sdr(K, cert)

    # hand-checkable direction first: min x1 + x2 = 1 at (1/2, 1/2)
    value, point = sdr_support(sdr, [1.0, 1.0])
    assert value == pytest.approx(1.0, abs=1e-5)
    assert point == pytest.approx(np.array([0.5, 0.5]), abs=1e-3)

    rng = np.random.default_rng(11)
    for _ in range(10):
        c = rng.standard_normal(2)
        c /= float(np.linalg.norm(c))
        f = Polynomial.make(2, {(1, 0): c[0], (0, 1): c[1]})
        f_star, _ = grid_minimize(f, K, [0.0, 0.0], [1.3, 1.3])
        val, x = sdr_support(sdr, c)
        assert f_star + rho1 - 1e-5 <= val <= f_star + 1e-5
        # the projected point is (near) feasible and achieves the value
        assert K.contains(x, tol=1e-6)
        assert float(c @ x) == pytest.approx(val, abs=1e-8)

    # higher-order lifts project into the order-3 one, so the same sandwich
    # holds; these directions (of 40 from default_rng(0)) once ended in a
    # Cholesky breakdown of the support solve
    dirs = np.random.default_rng(0).standard_normal((40, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for d, ks in ((4, (5, 25, 27, 34)), (5, (5,))):
        lift = build_sdr(K, cert, d=d)
        for k in ks:
            c = dirs[k]
            f = Polynomial.make(2, {(1, 0): c[0], (0, 1): c[1]})
            f_star, _ = grid_minimize(f, K, [0.0, 0.0], [1.3, 1.3])
            val, x = sdr_support(lift, c)
            assert f_star + rho1 - 1e-5 <= val <= f_star + 1e-5, (d, k)
            assert K.contains(x, tol=1e-6), (d, k)
            assert float(c @ x) == pytest.approx(val, abs=1e-8)


def test_sdr_support_zero_direction():
    disk = unit_disk()
    sdr = build_sdr(disk, certify_convexity(disk))
    value, point = sdr_support(sdr, [0.0, 0.0])
    assert value == pytest.approx(0.0, abs=1e-9)
    assert disk.contains(point, tol=1e-6)


def test_sdr_support_validates_dimension():
    disk = unit_disk()
    sdr = build_sdr(disk, certify_convexity(disk))
    with pytest.raises(PreconditionFailure):
        sdr_support(sdr, [1.0, 0.0, 0.0])


def test_sdr_scalar_form_on_polytope():
    K = triangle()
    sdr = build_sdr(K, d=2, form="scalar")
    assert [b.label for b in sdr.blocks] == [
        "moment",
        "scalar[1]",
        "scalar[2]",
        "scalar[3]",
    ]
    assert [b.dim for b in sdr.blocks] == [6, 1, 1, 1]
    value, _ = sdr_support(sdr, [-1.0, -1.0])
    assert value == pytest.approx(-1.0, abs=1e-6)  # the edge x1 + x2 = 1
    value2, point2 = sdr_support(sdr, [-1.0, 0.0])
    assert value2 == pytest.approx(-1.0, abs=1e-6)
    assert point2[0] == pytest.approx(1.0, abs=1e-4)


# ---- serialization ---------------------------------------------------------------


def test_certificate_json_round_trip():
    cert = certify_convexity(
        example_hyperbola_disk(), d_fixed={1: 3}, recover_weights=True
    )
    blob = json.dumps(cert.to_json())
    data = json.loads(blob)
    assert data == cert.to_json()
    assert data["status"] == "certified_numerically"
    assert data["records"][0]["d_j"] == 3
    assert data["records"][1]["method"] == "quadratic_concave_shortcut"
    assert "weights" in data["records"][0]
    assert data["degenerate_flags"] == []
    assert data["slater"]["passed"]


def test_sdr_json_round_trip():
    K = example_hyperbola_disk()
    sdr = build_sdr(K, certify_convexity(K, d_fixed={1: 3}))
    data = json.loads(json.dumps(sdr.to_json()))
    back = SdrRepresentation.from_json(data)
    assert back.d == sdr.d and back.form == sdr.form
    assert back.base_set.to_json() == K.to_json()
    assert len(back.blocks) == len(sdr.blocks)
    # the layers follow the term order of each g_j, which the JSON form of
    # the base set may change; the blocks themselves are equal
    eye = np.eye(sdr.lift_dimension)
    for a, b, blk in zip(sdr.blocks, back.blocks, data["blocks"]):
        assert a.label == b.label
        assert np.array_equal(a.apply(eye), b.apply(eye))
        # entries are the nonzeros of the dense (dim, dim, s) block, in
        # np.nonzero order
        T = np.moveaxis(a.apply(eye), 0, 2)
        assert blk["entries"] == [[*k, T[k]] for k in zip(*np.nonzero(T))]
    v1, _ = sdr_support(sdr, [1.0, 0.0])
    v2, _ = sdr_support(back, [1.0, 0.0])
    assert v1 == v2


@pytest.mark.parametrize("position, value", [(2, -1), (2, 10**6), (3, 0.5)])
def test_sdr_from_json_rejects_tampered_entries(position, value):
    # a moment index of -1 would wrap to the last moment and one >= s is
    # out of range; a changed coefficient is just a different lift
    data = json.loads(json.dumps(build_sdr(unit_disk(), d=2).to_json()))
    data["blocks"][1]["entries"][0][position] = value
    with pytest.raises(PreconditionFailure, match="blocks are the lift"):
        SdrRepresentation.from_json(data)
