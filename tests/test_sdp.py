"""Interior-point solver unit tests: known optima, KKT quality, rays."""

import hashlib

import numpy as np
import pytest
from helpers import kkt_residuals, make_strictly_feasible_sdp, unit_disk

from momentsos import sdp
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
