"""Interior-point solver unit tests: known optima, KKT quality, rays."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from helpers import (
    ball_quartic,
    example_hyperbola_disk,
    kkt_residuals,
    make_strictly_feasible_sdp,
    random_psd,
    unit_disk,
)

from momentsos import sdp
from momentsos._compile import moment_program
from momentsos.convexcert import build_sdr, rho_program
from momentsos.hierarchy import PolyOptProblem, build_qr
from momentsos.poly import Polynomial, PreconditionFailure
from momentsos.sdp import (
    SdpProblem,
    SdpStatus,
    SolverOptions,
    min_eigenvalue,
    numeric_rank,
    solve,
)


# ---- known-answer problems -------------------------------------------------


def lmi_min_x() -> SdpProblem:
    # min x s.t. [[x,1],[1,x]] >= 0, eigenvalues x +- 1, optimum x = 1;
    # standard form: X11 = X22, X12 = 1, minimize (X11+X22)/2
    return SdpProblem.make(
        [2],
        [np.diag([0.5, 0.5])],
        [[np.diag([1.0, -1.0]), np.array([[0.0, 0.5], [0.5, 0.0]])]],
        [0.0, 1.0],
    )


def test_lmi_min_x():
    s = solve(lmi_min_x())
    assert s.status is SdpStatus.OPTIMAL
    assert s.primal_value == pytest.approx(1.0, abs=1e-6)
    assert s.accuracy == "target"


def test_min_trace_unit():
    P = SdpProblem.make([2], [np.eye(2)], [[np.eye(2)]], [1.0])
    s = solve(P)
    assert s.status is SdpStatus.OPTIMAL
    assert s.primal_value == pytest.approx(1.0, abs=1e-7)


def test_lambda_max_via_dual():
    # lambda_max(diag(1,2)) as -min<-A,X> over the spectraplex
    P = SdpProblem.make([2], [-np.diag([1.0, 2.0])], [[np.eye(2)]], [1.0])
    s = solve(P)
    assert s.status is SdpStatus.OPTIMAL
    assert -s.primal_value == pytest.approx(2.0, abs=1e-6)


def test_two_blocks():
    # separable: min tr over each block with its own normalization
    P = SdpProblem.make(
        [2, 3],
        [np.eye(2), 2 * np.eye(3)],
        [[np.eye(2), np.zeros((2, 2))], [np.zeros((3, 3)), np.eye(3)]],
        [1.0, 1.0],
    )
    s = solve(P)
    assert s.status is SdpStatus.OPTIMAL
    assert s.primal_value == pytest.approx(3.0, abs=1e-6)


# ---- infeasibility / unboundedness ----------------------------------------


def test_primal_infeasible_ray():
    # <I,X> = -1 with X >= 0 is impossible
    P = SdpProblem.make([1], [np.zeros((1, 1))], [[np.eye(1)]], [-1.0])
    s = solve(P)
    assert s.status is SdpStatus.INFEASIBLE
    lam, Zs = s.ray_dual
    # ray certifies: b'lam = 1 with A*(lam) + Z = 0, Z >= 0
    assert float(P.b @ lam) == pytest.approx(1.0)
    for Ab, Zb in zip(P.A, Zs):
        atl = np.tensordot(lam, Ab, axes=(0, 0))
        assert np.max(np.abs(atl + Zb)) <= 1e-7
        assert min_eigenvalue(Zb) >= -1e-9


def test_dual_infeasible_means_unbounded():
    # min -X11 with only X22 pinned: X11 free to grow
    A = np.zeros((2, 2))
    A[1, 1] = 1.0
    P = SdpProblem.make([2], [np.diag([-1.0, 0.0])], [[A]], [1.0])
    s = solve(P)
    assert s.status is SdpStatus.UNBOUNDED
    ray = s.ray_primal
    assert ray is not None
    # improving ray: A(X) ~ 0, <C,X> = -1, X >= 0
    assert abs(float(np.sum(A * ray[0])) ) <= 1e-7
    assert sum(float(np.sum(Cb * Xb)) for Cb, Xb in zip(P.C, ray)) == pytest.approx(
        -1.0, abs=1e-7
    )


# ---- random strictly feasible suite ----------------------------------------


def test_strictly_feasible_suite_kkt():
    rng = np.random.default_rng(2024)
    worst = {"primal": 0.0, "dual": 0.0, "comp": 0.0, "weak": 0.0}
    for _ in range(200):
        problem, _ = make_strictly_feasible_sdp(rng)
        sol = solve(problem)
        assert sol.status is SdpStatus.OPTIMAL, sol.message
        p_res, d_res, comp = kkt_residuals(problem, sol)
        worst["primal"] = max(worst["primal"], p_res)
        worst["dual"] = max(worst["dual"], d_res)
        worst["comp"] = max(worst["comp"], comp)
        # weak duality: dual value never exceeds primal beyond tolerance
        worst["weak"] = max(
            worst["weak"],
            (sol.dual_value - sol.primal_value) / (1.0 + abs(sol.primal_value)),
        )
        for Xb in sol.X:
            assert min_eigenvalue(Xb) >= -1e-7
    assert worst["primal"] <= 1e-7
    assert worst["dual"] <= 1e-7
    assert worst["comp"] <= 1e-7
    assert worst["weak"] <= 1e-7


def test_determinism():
    rng = np.random.default_rng(7)
    problem, _ = make_strictly_feasible_sdp(rng)
    s1 = solve(problem)
    s2 = solve(problem)
    assert s1.iterations == s2.iterations
    assert s1.primal_value == s2.primal_value
    assert s1.dual_value == s2.dual_value
    assert all(np.array_equal(a, b) for a, b in zip(s1.X, s2.X))


# ---- self-dual embedding ----------------------------------------------------


def test_hsd_solution_is_interior():
    # the de-embedded iterate stays strictly inside both cones
    s = solve(lmi_min_x())
    assert s.status is SdpStatus.OPTIMAL
    assert s.primal_value == pytest.approx(1.0, abs=1e-6)
    assert min_eigenvalue(s.X[0]) > 0.0
    assert min_eigenvalue(s.Z[0]) > 0.0


def test_stall_accept_counts_iterations_run(monkeypatch):
    # tolerances no iterate can meet: the loop runs on until it stops
    # making progress, then accepts its best iterate from the stall band;
    # the reported count is every iteration run, not that iterate's index
    calls = []
    nt_scale = sdp._nt_scale

    def counted(*args, **kwargs):
        calls.append(1)
        return nt_scale(*args, **kwargs)

    monkeypatch.setattr(sdp, "_nt_scale", counted)
    s = solve(lmi_min_x(), SolverOptions(feas_tol=1e-30, gap_tol=1e-30))
    assert s.status is SdpStatus.OPTIMAL
    assert s.message.startswith("stalled near optimum")
    assert s.accuracy == "stall_band"
    assert s.iterations == len(calls)


def recomputed_residuals(problem, sol):
    """The four residuals of a de-embedded solution, from its X, dual and
    Z alone."""
    primal, dual, comp = kkt_residuals(problem, sol)
    pobj, dobj = sol.primal_value, sol.dual_value
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    return {"primal": primal, "dual": dual, "gap": gap, "complementarity": comp}


def test_failure_exits_report_the_residuals_of_their_iterate(monkeypatch):
    # the iteration limit ends after a step, "no progress" before one; both
    # report the residuals of the iterate they return, under the keys an
    # optimal result has
    P = lmi_min_x()
    # with no step allowed the limit returns the start point (I, 0, eta I)
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 0)
    start = solve(P)
    assert (start.status, start.iterations) == (SdpStatus.MAX_ITERATIONS, 0)
    assert np.array_equal(start.X[0], np.eye(2)) and not start.dual.any()
    assert start.Z[0] == pytest.approx(np.sqrt(2.0) * np.eye(2))
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 3)
    limited = solve(P)
    assert (limited.status, limited.message) == (
        SdpStatus.MAX_ITERATIONS, "iteration limit reached"
    )
    assert limited.iterations == 3
    monkeypatch.setattr(sdp, "MAX_ITERATIONS", 200)
    # tolerances no iterate meets, and a stall band no iterate is inside
    monkeypatch.setattr(sdp, "STALL_FEAS_TOL", 0.0)
    monkeypatch.setattr(sdp, "STALL_GAP_TOL", 0.0)
    stalled = solve(P, SolverOptions(feas_tol=1e-30, gap_tol=1e-30))
    assert (stalled.status, stalled.message) == (
        SdpStatus.MAX_ITERATIONS, "no progress"
    )
    assert stalled.accuracy == "target"
    optimal = solve(P)
    assert optimal.status is SdpStatus.OPTIMAL
    for sol in (start, limited, stalled, optimal):
        want = recomputed_residuals(P, sol)
        assert set(sol.residuals) == set(want)
        for key, value in want.items():
            assert sol.residuals[key] == pytest.approx(value, rel=1e-5, abs=1e-15)


def test_hsd_random_suite_kkt():
    rng = np.random.default_rng(99)
    for k in range(40):
        problem, _ = make_strictly_feasible_sdp(rng)
        sol = solve(problem)
        case = f"problem {k}: {sol.message!r}"
        assert sol.status is SdpStatus.OPTIMAL, case
        p_res, d_res, comp = kkt_residuals(problem, sol)
        assert p_res <= 1e-7, case
        assert d_res <= 1e-7, case
        assert comp <= 1e-7, case


def test_hsd_detects_infeasible():
    P = SdpProblem.make([1], [np.zeros((1, 1))], [[np.eye(1)]], [-1.0])
    s = solve(P)
    assert s.status is SdpStatus.INFEASIBLE
    lam, Zs = s.ray_dual
    assert float(P.b @ lam) == pytest.approx(1.0)


def test_hsd_detects_unbounded():
    A = np.zeros((2, 2))
    A[1, 1] = 1.0
    P = SdpProblem.make([2], [np.diag([-1.0, 0.0])], [[A]], [1.0])
    s = solve(P)
    assert s.status is SdpStatus.UNBOUNDED
    assert s.ray_primal is not None


# ---- eigen utilities --------------------------------------------------------


def test_min_eigenvalue_values():
    assert min_eigenvalue(np.diag([1.0, 2.0])) == pytest.approx(1.0)
    assert min_eigenvalue(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(-1.0)
    assert min_eigenvalue(np.zeros((3, 3))) == pytest.approx(0.0)


def test_min_eigenvalue_rejects_asymmetry():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(PreconditionFailure):
        min_eigenvalue(M)


def test_numeric_rank_values():
    assert numeric_rank(np.array([[1.0, 1.0], [1.0, 1.0]])) == 1
    assert numeric_rank(np.eye(3)) == 3
    assert numeric_rank(np.diag([1.0, 1e-9]), tau=1e-6) == 1
    assert numeric_rank(np.zeros((2, 2))) == 0


def test_numeric_rank_rejects_indefinite():
    with pytest.raises(PreconditionFailure):
        numeric_rank(np.diag([1.0, -1.0]))


# ---- validation and serialization ------------------------------------------


def test_rejects_asymmetric_data():
    with pytest.raises(PreconditionFailure):
        SdpProblem.make(
            [2], [np.array([[0.0, 1.0], [0.0, 0.0]])], [np.zeros((0, 2, 2))], []
        )


def test_rejects_zero_blocks():
    # with no block, solve has no objective scale to take a max over
    with pytest.raises(PreconditionFailure, match="at least one block"):
        SdpProblem.make([], [], [], [])
    with pytest.raises(PreconditionFailure, match="at least one block"):
        SdpProblem((), (), (), np.zeros(0), ())


def test_rejects_oversized_block():
    with pytest.raises(PreconditionFailure):
        SdpProblem.make([1000], [np.eye(1000)], [np.zeros((0, 1000, 1000))], [])


def test_sdpa_dump_round_trip():
    P = lmi_min_x()
    text = P.dump_sdpa()
    lines = [ln for ln in text.strip().splitlines()]
    assert lines[0] == "2"  # constraints
    assert lines[1] == "1"  # blocks
    assert lines[2] == "2"  # block dims
    b = [float(v) for v in lines[3].split()]
    assert b == [0.0, 1.0]
    entries = {}
    for ln in lines[4:]:
        k, blk, i, j, v = ln.split()
        entries[(int(k), int(blk), int(i), int(j))] = float(v)
    # objective emitted negated (SDPA dual-slot convention), upper triangle
    assert entries[(0, 1, 1, 1)] == -0.5
    assert entries[(1, 1, 1, 1)] == 1.0
    assert entries[(1, 1, 2, 2)] == -1.0
    assert entries[(2, 1, 1, 2)] == 0.5
    assert (2, 1, 2, 1) not in entries


def test_rejects_asymmetry_naming_constraint_and_block():
    # constraint 1 of block 1 (the second block) is skewed past 1e-12 of
    # its own largest entry, 4, though constraint 0 there reaches 100; a
    # skew below that bound is symmetrized away. Offenders are named in
    # constraint order: a skewed constraint 2 in block 0 comes after it.
    def problem(skew, later=0.0):
        A0 = np.zeros((3, 2, 2))
        A0[2, 0, 1] = later
        A1 = np.zeros((3, 3, 3))
        A1[0] = 100.0 * np.eye(3)
        A1[1] = np.diag([4.0, 0.0, 0.0])
        A1[1, 0, 2] = 4.0 * skew
        return SdpProblem.make(
            [2, 3], [np.eye(2), np.eye(3)], [A0, A1], [1.0, 1.0, 1.0]
        )

    with pytest.raises(PreconditionFailure, match=r"A\[1\]\[1\]"):
        problem(1e-11)
    with pytest.raises(PreconditionFailure, match=r"A\[1\]\[1\]"):
        problem(1e-11, later=1.0)
    P = problem(0.5e-12)
    assert np.array_equal(P.A[1][1], P.A[1][1].T)
    assert P.A[1][1][0, 2] == 1e-12
    # stored as 0.5 (A + A'): an entry skewed within the tolerance is
    # halved into both positions, a symmetric one kept as it is, and the
    # copy is C-contiguous whatever the layout of the input
    A = np.zeros((2, 2, 2))
    A[0] = [[1.0, 2.0], [2.0, 0.0]]
    A[1, 1, 1] = 1.0
    skewed = A.copy()
    skewed[1, 0, 1] = 1e-13
    Q = SdpProblem.make([2], [np.eye(2)], [skewed], [1.0, 0.0])
    assert np.array_equal(Q.A[0], Q.A[0].transpose(0, 2, 1))
    assert np.array_equal(Q.A[0][0], A[0]) and Q.A[0][1, 1, 0] == 0.5e-13
    F = np.asfortranarray(A)
    R = SdpProblem.make([2], [np.eye(2)], [F], [1.0, 0.0])
    assert R.A[0].flags.c_contiguous and np.array_equal(R.A[0], A)


# sha256 of dump_sdpa as the per-entry loop rendered it; pins the vectorized
# rendering to the same bytes
SDPA_SHA256 = {
    "disk_qr_min_order": "f053a4ce188a2c5c70af779013dbfe35a350761ef9702339c04a2db4671003d0",
    "lmi_min_x": "2db80f7a1a35e142206155a9d17068a3f4d3f8c0191ed68e465578680d1b5dd7",
}


def test_sdpa_dump_bytes_pinned():
    f = Polynomial.make(
        2, {(0, 0): 2.0, (1, 0): -2.0, (0, 1): -2.0, (2, 0): 1.0, (0, 2): 1.0}
    )
    disk = PolyOptProblem(f, unit_disk())
    qr, _ = build_qr(disk, disk.min_order()).to_sdp()
    texts = {"disk_qr_min_order": qr.dump_sdpa(), "lmi_min_x": lmi_min_x().dump_sdpa()}
    for name, text in texts.items():
        assert hashlib.sha256(text.encode()).hexdigest() == SDPA_SHA256[name], name


# ---- Schur step ----------------------------------------------------------------


def schur_reference(A, Ws):
    """M_ij = sum over blocks of tr(A_i W A_j W), by dense contraction."""
    M = np.zeros((len(A[0]),) * 2)
    for Ab, W in zip(A, Ws):
        TW = np.einsum("ij,kjl,lm->kim", W, Ab, W, optimize=True)
        M += np.tensordot(TW, Ab, axes=([1, 2], [1, 2]))
    return 0.5 * (M + M.T)


@pytest.mark.parametrize(
    "problem, one_hot",
    [
        # the moment block is one-hot, the localizing block of 1 - |x|^2 is not
        (lambda: build_qr(ball_quartic(3), 3).to_sdp()[0], [True, False]),
        # no rho_j block is one-hot after the equality rows are eliminated
        (lambda: rho_program(example_hyperbola_disk(), 1, 3).to_sdp()[0], None),
    ],
)
def test_schur_matrix_matches_dense_reference(problem, one_hot):
    P = problem()
    patterns = [sdp._one_hot_pattern(Ab) for Ab in P.A]
    classified = [pattern is not None for pattern in patterns]
    assert classified == (one_hot or [False] * len(P.A))
    rng = np.random.default_rng(3)
    # the solver passes the NT factors G of W = G G'
    Gs = [rng.standard_normal((d, d)) / np.sqrt(d) for d in P.block_dims]
    M = sdp._schur_matrix(P.A, Gs, patterns)
    ref = schur_reference(P.A, [G @ G.T for G in Gs])
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(M, M.T)


def one_hot_term_by_products(Ab, W, pattern):
    """A one-hot block's Schur term from the full stack of W A_i W, formed
    by two batched products: gather the owned positions, sum each owner's
    run."""
    positions, weights, starts, owners = pattern[:4]
    p = len(Ab)
    M = np.zeros((p, p))
    TW = np.matmul(np.matmul(W, Ab), W)
    gathered = np.take(TW.reshape(p, -1), positions, axis=1)
    gathered *= weights
    M[:, owners] += np.add.reduceat(gathered, starts, axis=1)
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("step", [7, 30])
def test_one_hot_term_in_chunks_equals_full_products(monkeypatch, step):
    Ab = build_qr(ball_quartic(3), 3).to_sdp()[0].A[0]
    p, n, _ = Ab.shape
    # p = 83: 12 or 3 chunks, of which the last is ragged
    assert p % step and p > 2 * step
    monkeypatch.setattr(sdp, "CHUNK_BYTES", step * 8 * n * n)
    pattern = sdp._one_hot_pattern(Ab)
    G = np.random.default_rng(step).standard_normal((n, n)) / np.sqrt(n)
    M = sdp._schur_matrix([Ab], [G], [pattern])
    # the gathered W A_i is the product itself, so the term is bit for bit
    assert np.array_equal(M, one_hot_term_by_products(Ab, G @ G.T, pattern))


def test_two_entries_in_a_column_is_not_one_hot():
    # every position is nonzero in one constraint at most, but column 0 of
    # A_0 holds two entries, so W A_0 is not a gather of columns of W
    A = np.zeros((3, 3, 3))
    A[0, 0, 0] = 1.0
    A[0, 0, 1] = A[0, 1, 0] = 2.0
    A[1, 1, 1] = -1.0
    A[1, 0, 2] = A[1, 2, 0] = 0.5
    A[2, 2, 2] = 3.0
    assert sdp._one_hot_pattern(A) is None
    # so is a single dense constraint
    assert sdp._one_hot_pattern(np.ones((1, 3, 3))) is None
    # with A_0's off-diagonal pair moved to constraint 2, the block is one-hot
    B = A.copy()
    B[0, 0, 1] = B[0, 1, 0] = 0.0
    B[2, 0, 1] = B[2, 1, 0] = 2.0
    assert sdp._one_hot_pattern(B) is not None
    G = np.random.default_rng(4).standard_normal((3, 3))
    M = sdp._schur_matrix([A], [G], [None])
    ref = schur_reference([A], [G @ G.T])
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize(
    "program",
    [
        lambda: build_qr(ball_quartic(3), 3),
        lambda: build_qr(ball_quartic(2), 5),
        lambda: build_qr(PolyOptProblem(Polynomial.constant(2, 1.0), unit_disk()), 4),
        lambda: moment_program_of(build_sdr(example_hyperbola_disk(), d=3)),
        lambda: moment_program_of(build_sdr(example_hyperbola_disk(), d=4)),
    ],
)
def test_moment_blocks_are_one_hot(program):
    Ab = program().to_sdp()[0].A[0]
    pattern = sdp._one_hot_pattern(Ab)
    assert pattern is not None
    # the (owner, row, col, value) entries are the whole block, by owner
    owner, row, col, value = pattern[4]
    assert np.all(np.diff(owner) >= 0)
    rebuilt = np.zeros_like(Ab)
    rebuilt[owner, row, col] = value
    assert np.array_equal(rebuilt, Ab)


def test_apply_At_scatters_one_hot_blocks():
    # a one-hot block's A'y is a scatter of lam_owner * value; it must be
    # the dense contraction's bytes, signed zeros included, for lam with
    # negative, +0.0 and -0.0 entries
    P = build_qr(ball_quartic(3), 3).to_sdp()[0]
    assert P.one_hot[0] is not None and P.one_hot[1] is None
    rng = np.random.default_rng(2)
    for lam in (rng.normal(size=P.num_constraints), np.zeros(P.num_constraints)):
        lam[::4] = 0.0
        lam[1::7] = -0.0
        for Ab, M in zip(P.A, sdp._apply_At(P.A, P.one_hot, lam)):
            assert M.tobytes() == np.tensordot(lam, Ab, axes=(0, 0)).tobytes()


def moment_program_of(sdr):
    """The support program of a lift, as `sdr_support` builds it."""
    objective = np.zeros(sdr.lift_dimension)
    objective[1 : sdr.n + 1] = 1.0
    return moment_program(sdr.n, sdr.d, objective, sdr.blocks)


def test_one_hot_term_holds_no_full_stack():
    # Q_4 on the 4-ball: a (494, 70, 70) moment block, 19.4 MB
    Ab = build_qr(ball_quartic(4), 4).to_sdp()[0].A[0]
    p, n, _ = Ab.shape
    pattern = sdp._one_hot_pattern(Ab)
    G = np.random.default_rng(0).standard_normal((n, n)) / np.sqrt(n)
    tracemalloc.start()
    try:
        sdp._schur_matrix([Ab], [G], [pattern])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * n * n * 8


def test_schur_solver_residual():
    rng = np.random.default_rng(5)
    p = 80
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    # condition number 1e4: the residual of a backward-stable solve is
    # about eps * cond(M) * ||rhs||
    M = (Q * np.logspace(0, 4, p)) @ Q.T
    M = 0.5 * (M + M.T)
    msolve = sdp._schur_solver(M, p)
    for _ in range(3):
        rhs = rng.standard_normal(p)
        x = msolve(rhs)
        assert np.linalg.norm(M @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def cholesky_factor(rng, p, cond):
    """Cholesky factor of a random SPD matrix with condition number cond."""
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    M = (Q * np.logspace(0, np.log10(cond), p)) @ Q.T
    return np.linalg.cholesky(0.5 * (M + M.T))


@pytest.mark.parametrize(
    "p, cond",
    # one leaf, the largest leaf, the first splits, and the Q_3 n = 6 size
    [(1, 1.0), (63, 1e3), (64, 1e3), (65, 1e3), (129, 1e3), (923, 1e3), (129, 1e8)],
)
def test_tril_inv_matches_inverse(p, cond):
    rng = np.random.default_rng(p)
    L = cholesky_factor(rng, p, cond)
    Li = sdp._tril_inv(L)
    ref = np.linalg.inv(L)
    if p <= sdp.TRIL_INV_LEAF:
        # a leaf is the LU inverse itself, so small solves are unchanged
        assert np.array_equal(Li, ref)
    eps = np.finfo(float).eps
    norm = np.linalg.norm
    # a stable triangular inverse leaves |L Li - I| of order eps |L| |Li|
    # (Frobenius norms, so up to sqrt(p) more); its error against the LU
    # inverse grows with cond(L) = sqrt(cond)
    tol = np.sqrt(p) * eps
    assert norm(L @ Li - np.eye(p)) <= tol * norm(L) * norm(Li)
    assert norm(Li - ref) <= tol * np.sqrt(cond) * norm(ref)


# ---- batched and vectorized steps, pinned by bytes to per-block formulas -----


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def symmetric_stack(rng, p, n):
    A = rng.standard_normal((p, n, n))
    return A + A.transpose(0, 2, 1)


def tensordot_apply_A(A, X):
    out = np.zeros(len(A[0]))
    for Ab, Xb in zip(A, X):
        out += np.tensordot(Ab, Xb, axes=([1, 2], [0, 1]))
    return out


def tensordot_apply_At(A, patterns, lam):
    out = []
    for Ab, pattern in zip(A, patterns):
        if pattern is None:
            out.append(np.tensordot(lam, Ab, axes=(0, 0)))
            continue
        owner, row, col, value = pattern[4]
        Mb = np.zeros(Ab.shape[1:])
        Mb[row, col] = lam[owner] * value + 0.0
        out.append(Mb)
    return out


def test_apply_A_and_At_are_the_contraction():
    # one gemv per block gives np.tensordot's bytes on dense stacks, on
    # one-hot moment stacks, with one constraint (p = 1) and with none
    rng = np.random.default_rng(3)
    P = build_qr(ball_quartic(3), 3).to_sdp()[0]
    cases = [
        (list(P.A), list(P.one_hot)),
        ([symmetric_stack(rng, 7, n) for n in (1, 4, 9)], [None] * 3),
        ([symmetric_stack(rng, 1, n) for n in (1, 6)], [None] * 2),
        ([np.zeros((0, n, n)) for n in (1, 3)], [None] * 2),
    ]
    for A, patterns in cases:
        p = len(A[0])
        X = [symmetric_stack(rng, 1, Ab.shape[1])[0] for Ab in A]
        assert same_bytes(sdp._apply_A(A, X), tensordot_apply_A(A, X))
        lam = rng.normal(size=p)
        lam[::3] = -0.0
        dense = tensordot_apply_At(A, [None] * len(A), lam)
        for M, ref in zip(sdp._apply_At(A, patterns, lam), dense):
            assert same_bytes(M, ref)


@pytest.mark.parametrize(
    "dims, C",
    [
        ([3], [np.diag([1.0, 2.0, 0.5])]),
        ([3], [np.diag([1.0, -1.0, 0.5])]),
        ([2, 1], [np.eye(2), np.eye(1)]),
    ],
)
def test_solve_without_constraints(monkeypatch, dims, C):
    # p = 0: min <C, X> over X >= 0 is 0 for C >= 0 and unbounded otherwise;
    # the solve has the bytes it has with the contractions by np.tensordot
    P = SdpProblem.make(dims, C, [np.zeros((0, n, n)) for n in dims], [])
    s = solve(P)
    monkeypatch.setattr(sdp, "_apply_A", tensordot_apply_A)
    monkeypatch.setattr(sdp, "_apply_At", tensordot_apply_At)
    ref = solve(P)
    unbounded = min(float(np.linalg.eigvalsh(Cb)[0]) for Cb in C) < 0
    assert s.status is (SdpStatus.UNBOUNDED if unbounded else SdpStatus.OPTIMAL)
    assert (s.status, s.iterations, s.accuracy, s.message) == (
        ref.status, ref.iterations, ref.accuracy, ref.message
    )
    values = [s.primal_value, s.dual_value]
    assert same_bytes(values, [ref.primal_value, ref.dual_value])
    assert same_bytes([s.gap], [ref.gap])
    if not unbounded:
        assert same_bytes(s.dual, ref.dual) and s.dual.shape == (0,)
    for name in ("X", "Z", "ray_primal"):
        got, want = getattr(s, name), getattr(ref, name)
        assert (got is None) == (want is None)
        assert all(same_bytes(a, b) for a, b in zip(got or [], want or []))
    assert (s.ray_primal is not None) == unbounded


def per_block_chol(Ms):
    Ls = []
    for M in Ms:
        L = sdp._chol(M)
        if L is None:
            return None
        Ls.append(L)
    return Ls


def spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T / n + 0.1 * np.eye(n)


def test_chol_blocks_batched_by_order():
    rng = np.random.default_rng(11)
    # singular PSD: the plain factorization fails and the jittered one holds
    singular = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(singular)
    assert sdp._chol(singular) is not None
    for Ms in (
        [spd(rng, 3), spd(rng, 5), spd(rng, 3), spd(rng, 3), spd(rng, 5), spd(rng, 7)],
        [spd(rng, 3), spd(rng, 5), singular, spd(rng, 3), spd(rng, 5)],
        [spd(rng, 4)],
    ):
        classes = sdp._order_classes([M.shape[0] for M in Ms])
        Ls = sdp._chol_blocks(Ms, classes)
        ref = per_block_chol(Ms)
        assert len(Ls) == len(classes)
        for L, idx in zip(Ls, classes):
            assert same_bytes(L, np.stack([ref[i] for i in idx]))
    # an indefinite matrix in a class fails the whole call
    Ms = [spd(rng, 3), -spd(rng, 3), spd(rng, 5)]
    assert sdp._chol_blocks(Ms, [[0, 1], [2]]) is None


def per_block_max_step(L, dM):
    """Largest alpha with L L' + alpha dM >= 0, one block at a time."""
    Linv_d = np.linalg.solve(L, dM)
    S = np.linalg.solve(L, Linv_d.T)
    w_min = float(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
    if w_min >= -1e-14:
        return np.inf
    return 1.0 / (-w_min)


def test_max_step_is_the_per_block_minimum():
    rng = np.random.default_rng(5)
    dims = [6, 10, 6, 1, 6, 1, 4]
    Ls = [np.linalg.cholesky(spd(rng, n)) for n in dims]
    classes = sdp._order_classes(dims)
    assert classes == [[0, 2, 4], [1], [3, 5], [6]]
    stacks = [np.stack([Ls[i] for i in idx]) for idx in classes]
    for scale in (0.1, 1.0, 30.0):
        dMs = [scale * symmetric_stack(rng, 1, n)[0] for n in dims]
        ref = min(per_block_max_step(L, dM) for L, dM in zip(Ls, dMs))
        assert ref < np.inf and sdp._max_step(stacks, dMs, classes) == ref
    # PSD directions: no block limits the step
    dMs = [np.eye(n) for n in dims]
    assert sdp._max_step(stacks, dMs, classes) == np.inf


def per_block_nt_scale(X, Z):
    """The per-block loop of Nesterov-Todd scaling data, one matrix at a
    time."""
    Ls_x, Ls_z = per_block_chol(X), per_block_chol(Z)
    Gs, Gis, sigmas, Ws = [], [], [], []
    for Lx, Lz in zip(Ls_x, Ls_z):
        _, sv, Vt = np.linalg.svd(Lz.T @ Lx)
        sv = np.maximum(sv, 1e-150)
        G = Lx @ Vt.T / np.sqrt(sv)
        Gi = (np.sqrt(sv)[:, None] * Vt) @ np.linalg.inv(Lx)
        Gs.append(G)
        Gis.append(Gi)
        sigmas.append(sv)
        Ws.append(G @ G.T)
    return Gs, Gis, sigmas, Ws


@pytest.mark.parametrize("dims", [[10, 6, 6], [1, 1, 2], [55, 91, 55, 55], [5]])
def test_nt_scale_batched_is_the_per_block_loop(dims):
    rng = np.random.default_rng(len(dims))
    X = [spd(rng, n) for n in dims]
    Z = [spd(rng, n) for n in dims]
    ref = per_block_nt_scale(X, Z)
    # the solver's classes: those of the X blocks, then the Z blocks
    classes = sdp._order_classes([*dims, *dims])
    got = sdp._nt_scale(sdp._chol_blocks([*X, *Z], classes), classes)
    assert len(got) == len(ref)
    for part, part_ref in zip(got, ref):
        assert len(part) == len(dims)
        assert all(same_bytes(a, b) for a, b in zip(part, part_ref))
