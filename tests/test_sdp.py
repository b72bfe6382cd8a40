"""Interior-point solver unit tests: known optima, KKT quality, rays."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    ball_quartic,
    example_hyperbola_disk,
    kkt_residuals,
    make_strictly_feasible_sdp,
    one_hot_record,
    random_psd,
    unit_disk,
)

from momentsos import sdp
from momentsos._compile import moment_program
from momentsos.convexcert import build_sdr, rho_program
from momentsos.hierarchy import PolyOptProblem, build_qr
from momentsos.moments import BlockSpec
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
    for k, Zb in enumerate(Zs):
        atl = np.tensordot(lam, P.stack(k), axes=(0, 0))
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


def huge_objective(scale):
    """min <scale I, X> s.t. tr X = 1 over one 3 x 3 block."""
    return SdpProblem.make([3], [scale * np.eye(3)], [[np.eye(3)]], [1.0])


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_huge_objective_fails_instead_of_raising(scale):
    # the search direction overflows; the solve stops before the step
    # length's eigenvalue solver, which raised LinAlgError on it
    with np.errstate(over="ignore", invalid="ignore"):
        s = solve(huge_objective(scale))
    assert s.status is SdpStatus.NUMERICAL_FAILURE
    assert s.message == "nonfinite search direction"
    assert s.X is not None and np.isfinite(s.X[0]).all()
    assert set(s.residuals) == {"primal", "dual", "gap", "complementarity"}


def test_large_objective_stops_without_progress():
    # at 1e150 the directions stay finite, and the loop stops on its own
    with np.errstate(over="ignore", invalid="ignore"):
        s = solve(huge_objective(1e150))
    assert (s.status, s.message) == (SdpStatus.MAX_ITERATIONS, "no progress")


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
        SdpProblem((), (), (), np.zeros(0))


def test_rejects_blocks_solve_cannot_use():
    # the constructor checks shapes: a block is a (p, n, n) stack or a
    # OneHot whose entries lie inside it, each C is (n, n) and b a vector
    b, C = np.zeros(2), (np.eye(2),)
    stack = np.zeros((2, 2, 2))
    stack[0, 0, 0] = 1.0
    stack[1, 0, 1] = stack[1, 1, 0] = 1.0
    record = one_hot_record(stack)
    assert isinstance(record, sdp.OneHot)
    for A in (stack, record):
        assert SdpProblem((2,), C, (A,), b).A[0] is A
    bad_blocks = [
        np.zeros((3, 2, 2)),  # three constraints' matrices for p = 2
        np.zeros((2, 3, 3)),
        None,
        tuple(record),  # the fields, but not a record
        record._replace(owner=record.owner + 1),
        record._replace(row=record.row + 2),
        record._replace(col=record.col - 1),
    ]
    for A in bad_blocks:
        with pytest.raises(PreconditionFailure, match="constraint block"):
            SdpProblem((2,), C, (A,), b)
    with pytest.raises(PreconditionFailure, match="objective block dims"):
        SdpProblem((2,), (np.eye(3),), (stack,), b)
    with pytest.raises(PreconditionFailure, match="right-hand side a vector"):
        SdpProblem((2,), C, (stack,), np.zeros((2, 1)))
    with pytest.raises(PreconditionFailure, match="one C and one A per block"):
        SdpProblem((2,), C + C, (stack,), b)


def test_rejects_records_whose_fields_differ_in_length():
    # a OneHot whose entry fields differ in length is refused: solve would
    # die inside numpy
    b, C = np.zeros(2), (np.eye(2),)
    stack = np.zeros((2, 2, 2))
    stack[0, 0, 0] = 1.0
    stack[1, 0, 1] = stack[1, 1, 0] = 1.0
    record = one_hot_record(stack)
    assert isinstance(record, sdp.OneHot)
    for field in record._fields:
        short = record._replace(**{field: getattr(record, field)[:-1]})
        with pytest.raises(PreconditionFailure, match="constraint block"):
            SdpProblem((2,), C, (short,), b)


def hand_built(*rows):
    """A hand-built `OneHot` record of (owner, row, col, value) rows."""
    owner, row, col, value = zip(*rows)
    return sdp.OneHot(np.array(owner), np.array(row), np.array(col), np.array(value))


def test_rejects_hand_built_records_solve_would_misread():
    # p = 2 constraints of a 2 x 2 block: the constructor refuses every
    # record that solve would read out of range or as a wrong Schur term,
    # rather than solve dying with IndexError (an owner >= p, a row >= n,
    # a negative col and fields of unequal length are in the two tests
    # above)
    b, C = np.zeros(2), (np.eye(2),)
    good = hand_built((0, 0, 0, 1.0), (1, 0, 1, 1.0), (1, 1, 0, 1.0))
    assert same_bytes(SdpProblem((2,), C, (good,), b).stack(0), np.array(
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]]
    ))
    bad = {
        "col >= n": hand_built((0, 0, 2, 1.0), (1, 0, 1, 1.0), (1, 1, 0, 1.0)),
        "unsorted": hand_built((1, 0, 1, 1.0), (1, 1, 0, 1.0), (0, 0, 0, 1.0)),
        "repeated": hand_built((0, 0, 0, 1.0), (0, 0, 0, 1.0), (1, 1, 1, 1.0)),
        "position owned twice": hand_built((0, 0, 0, 1.0), (1, 0, 0, 1.0)),
        "column holds two": hand_built(
            (0, 0, 0, 1.0), (0, 0, 1, 1.0), (0, 1, 0, 1.0)
        ),
        "float indices": good._replace(row=good.row.astype(float)),
        "not 1-d": good._replace(value=good.value[:, None]),
    }
    for why, record in bad.items():
        with pytest.raises(PreconditionFailure, match="constraint block"):
            SdpProblem((2,), C, (record,), b)
            pytest.fail(why)


def test_rejects_mapped_records_outside_the_block():
    # a Mapped block's NT has p rows, its layers are (k, n, n) with one
    # coefficient each, and every index is a column of NT
    b, C = np.zeros(3), (np.eye(2),)
    index = np.array([[[0, 1], [1, 3]]])
    block = BlockSpec("moment", index, np.ones(1))
    NT = np.arange(12.0).reshape(3, 4)
    mapped = sdp.Mapped(block, NT)
    assert SdpProblem((2,), C, (mapped,), b).A[0] is mapped
    bad = [
        sdp.Mapped(block, NT[:2]),  # two rows for p = 3
        sdp.Mapped(block, NT[0]),  # not a matrix
        sdp.Mapped(block, NT[:, :3]),  # index 3 past the 3 moments
        sdp.Mapped(BlockSpec("neg", index - 1, np.ones(1)), NT),
        sdp.Mapped(BlockSpec("flat", index[0], np.ones(1)), NT),
        sdp.Mapped(BlockSpec("wide", np.zeros((1, 3, 3), int), np.ones(1)), NT),
        sdp.Mapped(BlockSpec("coef", index, np.ones(2)), NT),
    ]
    for A in bad:
        with pytest.raises(PreconditionFailure, match="constraint block"):
            SdpProblem((2,), C, (A,), b)


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


def test_make_stores_one_hot_stacks_as_given():
    # block 0 is one-hot: each position, and each column of a matrix, holds
    # one entry at most; in block 1 position (0, 0) is in both constraints.
    # make stores both stacks as given; a record of block 0 is built from
    # its entries, by a caller that knows them
    A0 = np.zeros((2, 2, 2))
    A0[0, 0, 0] = 1.0
    A0[1, 0, 1] = A0[1, 1, 0] = 0.5
    A1 = np.stack([np.eye(2), np.ones((2, 2))])
    dense = SdpProblem.make([2, 2], [np.eye(2), np.eye(2)], [A0, A1], [1.0, 2.0])
    assert all(same_bytes(A, ref) for A, ref in zip(dense.A, (A0, A1)))
    P = SdpProblem(dense.block_dims, dense.C, (one_hot_record(A0), A1), dense.b)
    assert isinstance(P.A[0], sdp.OneHot)
    assert same_bytes(P.stack(0), A0) and P.stack(1) is P.A[1]
    # the layer trace reads each constraint's matrices, rebuilt from entries
    assert [(tuple(M.tolist() for M in mats), bi) for mats, bi in P.constraints] == [
        ((A0[i].tolist(), A1[i].tolist()), bi) for i, bi in enumerate([1.0, 2.0])
    ]


@pytest.mark.parametrize(
    "program",
    [
        lambda: build_qr(ball_quartic(3), 3),
        lambda: moment_program_of(build_sdr(example_hyperbola_disk(), d=3)),
    ],
)
def test_sdpa_dump_of_entries_is_the_dump_of_the_stacks(program):
    # a one-hot block is written from its entries, in the lines its dense
    # stack gives
    P = program().to_sdp()[0]
    assert isinstance(P.A[0], sdp.OneHot)
    dense = SdpProblem(P.block_dims, P.C, tuple(stacks(P)), P.b)
    # compared first: pytest's diff of two long unequal texts never ends
    same = P.dump_sdpa() == dense.dump_sdpa()
    assert same


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
    classified = [isinstance(A, sdp.OneHot) for A in P.A]
    assert classified == (one_hot or [False] * len(P.A))
    rng = np.random.default_rng(3)
    # the solver passes the NT factors G of W = G G'
    Gs = [rng.standard_normal((d, d)) / np.sqrt(d) for d in P.block_dims]
    M = sdp._schur_matrix(P, Gs)
    ref = schur_reference(stacks(P), [G @ G.T for G in Gs])
    assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(M, M.T)


def stacks(P):
    """The dense constraint stack of every block of P."""
    return [P.stack(k) for k in range(len(P.block_dims))]


def one_block(P, k):
    """Block k of P alone, with the identity as its objective."""
    n = P.block_dims[k]
    return SdpProblem((n,), (np.eye(n),), (P.A[k],), P.b)


def one_hot_term_by_products(Ab, W, pattern):
    """A one-hot block's Schur term from the full stack of W A_i W, formed
    by two batched products: gather the owned positions, sum each owner's
    run."""
    p, n, _ = Ab.shape
    positions, weights, starts, owners = sdp._gather(pattern, n)
    M = np.zeros((p, p))
    TW = np.matmul(np.matmul(W, Ab), W)
    gathered = np.take(TW.reshape(p, -1), positions, axis=1)
    gathered *= weights
    M[:, owners] += np.add.reduceat(gathered, starts, axis=1)
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("step", [7, 30])
def test_one_hot_term_in_chunks_equals_full_products(monkeypatch, step):
    P = build_qr(ball_quartic(3), 3).to_sdp()[0]
    Ab, pattern = P.stack(0), P.A[0]
    p, n, _ = Ab.shape
    # p = 83: 12 or 3 chunks, of which the last is ragged
    assert p % step and p > 2 * step
    monkeypatch.setattr(sdp, "CHUNK_BYTES", step * 8 * n * n)
    G = np.random.default_rng(step).standard_normal((n, n)) / np.sqrt(n)
    M = sdp._schur_matrix(one_block(P, 0), [G])
    # the gathered W A_i is the product itself, so the term is bit for bit
    assert np.array_equal(M, one_hot_term_by_products(Ab, G @ G.T, pattern))


@pytest.mark.parametrize("chunk_matrices", [None, 5])
@pytest.mark.parametrize(
    "program",
    [
        # the (923, 84, 84) moment block of Q_3 on the 6-ball
        lambda: build_qr(ball_quartic(6), 3),
        # the (27, 10, 10) moment block of a lift support
        lambda: moment_program_of(build_sdr(example_hyperbola_disk(), d=3)),
    ],
)
def test_entries_over_the_chunks_are_the_whole_record(
    monkeypatch, program, chunk_matrices
):
    # OneHot.entries over the chunk bounds of _constraint_chunks and of
    # _schur_matrix, at the default CHUNK_BYTES and at 5 matrices, gives
    # every entry once, in order
    P = program().to_sdp()[0]
    record, p, n = P.A[0], P.num_constraints, P.block_dims[0]
    assert isinstance(record, sdp.OneHot)
    if chunk_matrices is not None:
        monkeypatch.setattr(sdp, "CHUNK_BYTES", chunk_matrices * 8 * n * n)
    step = max(1, sdp.CHUNK_BYTES // (8 * n * n))
    schur_bounds = [*range(0, p, step), p]
    chunk_bounds = [lo for lo, _, _ in sdp._constraint_chunks(P, 0)] + [p]
    for bounds in (schur_bounds, chunk_bounds):
        parts = [record.entries(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        owner = np.concatenate([at[0] + lo for (at, _), lo in zip(parts, bounds)])
        row, col = (np.concatenate([at[i] for at, _ in parts]) for i in (1, 2))
        value = np.concatenate([value for _, value in parts])
        whole = (record.owner, record.row, record.col, record.value)
        assert all(same_bytes(a, b) for a, b in zip((owner, row, col, value), whole))
    if chunk_matrices is not None:
        assert len(schur_bounds) > 2 and len(chunk_bounds) > 2


def test_two_entries_in_a_column_is_not_one_hot():
    # every position is nonzero in one constraint at most, but column 0 of
    # A_0 holds two entries, so W A_0 is not a gather of columns of W
    A = np.zeros((3, 3, 3))
    A[0, 0, 0] = 1.0
    A[0, 0, 1] = A[0, 1, 0] = 2.0
    A[1, 1, 1] = -1.0
    A[1, 0, 2] = A[1, 2, 0] = 0.5
    A[2, 2, 2] = 3.0
    assert one_hot_record(A) is None
    # so is a single dense constraint
    assert one_hot_record(np.ones((1, 3, 3))) is None
    # with A_0's off-diagonal pair moved to constraint 2, the block is one-hot
    B = A.copy()
    B[0, 0, 1] = B[0, 1, 0] = 0.0
    B[2, 0, 1] = B[2, 1, 0] = 2.0
    assert isinstance(one_hot_record(B), sdp.OneHot)
    G = np.random.default_rng(4).standard_normal((3, 3))
    M = sdp._schur_matrix(SdpProblem((3,), (np.eye(3),), (A,), np.zeros(3)), [G])
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
    program = program()
    P = program.to_sdp()[0]
    # the stack of the SVD path, which the selected block's entries are
    _, N = program._eliminate()
    Ab = -program.blocks[0].apply(N.T)
    assert isinstance(one_hot_record(Ab), sdp.OneHot)
    pattern = P.A[0]
    assert isinstance(pattern, sdp.OneHot)
    # the (owner, row, col, value) entries are the whole block, by owner
    owner, row, col, value = pattern.owner, pattern.row, pattern.col, pattern.value
    assert np.all(np.diff(owner) >= 0)
    rebuilt = np.zeros_like(Ab)
    rebuilt[owner, row, col] = value
    assert np.array_equal(rebuilt, Ab)


def test_apply_At_scatters_one_hot_blocks():
    # a one-hot block's A'y is a scatter of lam_owner * value; it must be
    # the dense contraction's bytes, signed zeros included, for lam with
    # negative, +0.0 and -0.0 entries
    P = build_qr(ball_quartic(3), 3).to_sdp()[0]
    assert isinstance(P.A[0], sdp.OneHot) and not isinstance(P.A[1], sdp.OneHot)
    rng = np.random.default_rng(2)
    for lam in (rng.normal(size=P.num_constraints), np.zeros(P.num_constraints)):
        lam[::4] = 0.0
        lam[1::7] = -0.0
        for Ab, M in zip(stacks(P), sdp._apply_At(P, lam)):
            assert M.tobytes() == np.tensordot(lam, Ab, axes=(0, 0)).tobytes()


def moment_program_of(sdr):
    """The support program of a lift, as `sdr_support` builds it."""
    objective = np.zeros(sdr.lift_dimension)
    objective[1 : sdr.n + 1] = 1.0
    return moment_program(sdr.n, sdr.d, objective, sdr.blocks)


def test_one_hot_term_holds_no_full_stack():
    # Q_4 on the 4-ball: a (494, 70, 70) moment block, 19.4 MB
    P = one_block(build_qr(ball_quartic(4), 4).to_sdp()[0], 0)
    p, n = P.num_constraints, P.block_dims[0]
    G = np.random.default_rng(0).standard_normal((n, n)) / np.sqrt(n)
    tracemalloc.start()
    try:
        sdp._schur_matrix(P, [G])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < p * n * n * 8


def test_schur_solver_drops_the_shifted_copy():
    # M is shifted in place and the factor is inverted over itself, so the
    # solver allocates one p x p matrix and the inverse's temporaries
    rng = np.random.default_rng(8)
    p = 300
    Q = rng.standard_normal((p, p))
    M = Q @ Q.T / p + np.eye(p)
    tracemalloc.start()
    try:
        sdp._schur_solver(M, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * p * p


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


def tril_inv_out_of_place(L):
    """The recursive triangular inverse built in a new buffer, as
    `sdp._tril_inv` computes it over its argument."""
    n = L.shape[0]
    if n <= sdp.TRIL_INV_LEAF:
        return np.linalg.inv(L)
    h = n // 2
    inv = np.zeros_like(L)
    inv[:h, :h] = tril_inv_out_of_place(L[:h, :h])
    inv[h:, h:] = tril_inv_out_of_place(L[h:, h:])
    inv[h:, :h] = -inv[h:, h:] @ (L[h:, :h] @ inv[:h, :h])
    return inv


def shifted_copy_solve(M, rhs):
    """The Schur solve of `sdp._schur_solver` from a shifted copy of M,
    factored and inverted in new buffers, with the same refinement."""
    p = len(M)
    shifted = M.copy()
    shifted.flat[:: p + 1] += 1e-13 * max(1.0, float(np.trace(M)) / p)
    fac = sdp._chol(shifted)
    if fac is None:
        return np.linalg.lstsq(M, rhs, rcond=None)[0]
    fac_inv = tril_inv_out_of_place(fac)
    sol = fac_inv.T @ (fac_inv @ rhs)
    scale = np.sqrt(rhs @ rhs) + 1e-300
    res_norm = np.inf
    for _ in range(4):
        r = rhs - M @ sol
        rn = np.sqrt(r @ r)
        if rn <= 1e-14 * scale or rn >= res_norm:
            break
        res_norm = rn
        sol = sol + fac_inv.T @ (fac_inv @ r)
    return sol


@pytest.mark.parametrize("kind", ["spd", "ill_conditioned", "indefinite"])
def test_schur_solver_restores_M_and_solves_as_a_shifted_copy(kind):
    # the shift goes on M's diagonal in place and comes off exactly, and the
    # factor is inverted over itself: the solutions are those of a shifted
    # copy, bit for bit. An indefinite M fails both Cholesky attempts, so
    # the least-squares fallback must see M without the shift
    rng = np.random.default_rng(13)
    p = 150  # past TRIL_INV_LEAF, so the inverse recurses
    Q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    spectrum = {
        "spd": np.linspace(1.0, 10.0, p),
        "ill_conditioned": np.logspace(-12, 0, p),
        "indefinite": np.linspace(-1.0, 10.0, p),
    }[kind]
    M = (Q * spectrum) @ Q.T
    M = 0.5 * (M + M.T)
    before = M.copy()
    msolve = sdp._schur_solver(M, p)
    assert same_bytes(M, before)
    for _ in range(3):
        rhs = rng.standard_normal(p)
        assert same_bytes(msolve(rhs), shifted_copy_solve(before, rhs))
    assert same_bytes(M, before)


def test_solve_holds_one_schur_system():
    # Q_3 on the 6-ball: p = 923, an 84 x 84 one-hot moment block and a
    # 28 x 28 dense localizing block. At most three p x p matrices are live
    # at once: M and the copy of its transpose while it is symmetrized, M,
    # its factor and a jitter retry's sum while it is factored. The last
    # iteration's M and inverse factor are dropped before the next M is
    # built; on top come the one-hot term's chunk buffers and the rows of
    # the dense term
    P = build_qr(ball_quartic(6), 3).to_sdp()[0]
    p = P.num_constraints
    dense_rows = sum(
        8 * p * n * (n + 1) // 2 for Ab, n in zip(P.A, P.block_dims) if Ab is not None
    )
    tracemalloc.start()
    try:
        sol = sdp.solve(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p == 923 and sol.is_optimal
    assert peak <= 3 * 8 * p * p + 4 * sdp.CHUNK_BYTES + dense_rows


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
    arg = L.copy()
    Li = sdp._tril_inv(arg)
    # the inverse is written over the factor, with no second p x p buffer
    assert Li is arg
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


def tensordot_apply_A(P, X):
    out = np.zeros(P.num_constraints)
    for Ab, Xb in zip(stacks(P), X):
        out += np.tensordot(Ab, Xb, axes=([1, 2], [0, 1]))
    return out


def tensordot_apply_At(P, lam):
    return [np.tensordot(lam, Ab, axes=(0, 0)) for Ab in stacks(P)]


def test_apply_A_and_At_are_the_contraction():
    # one gemv per block gives np.tensordot's bytes on dense stacks, on
    # one-hot moment stacks, with one constraint (p = 1) and with none
    rng = np.random.default_rng(3)

    def dense(A):
        dims = tuple(Ab.shape[1] for Ab in A)
        C = tuple(np.eye(n) for n in dims)
        return SdpProblem(dims, C, tuple(A), np.zeros(len(A[0])))

    cases = [
        build_qr(ball_quartic(3), 3).to_sdp()[0],
        dense([symmetric_stack(rng, 7, n) for n in (1, 4, 9)]),
        dense([symmetric_stack(rng, 1, n) for n in (1, 6)]),
        dense([np.zeros((0, n, n)) for n in (1, 3)]),
    ]
    for P in cases:
        X = [symmetric_stack(rng, 1, n)[0] for n in P.block_dims]
        assert same_bytes(sdp._apply_A(P, X), tensordot_apply_A(P, X))
        lam = rng.normal(size=P.num_constraints)
        lam[::3] = -0.0
        for M, ref in zip(sdp._apply_At(P, lam), tensordot_apply_At(P, lam)):
            assert same_bytes(M, ref)


def first_constraints(P, k, p):
    """Block k of P, one-hot, cut to its first p constraints and stored
    as its entries."""
    n, A = P.block_dims[k], P.A[k]
    keep = A.owner < p
    flat = (A.owner[keep] * n + A.row[keep]) * n + A.col[keep]
    pattern = sdp._entry_pattern(p, n, flat, A.value[keep])
    return SdpProblem((n,), (np.eye(n),), (pattern,), np.zeros(p))


@pytest.mark.parametrize(
    "p, bounds",
    [
        # p = 0, 1 and 3 modulo 16, and below one chunk
        (48, [0, 16, 32, 48]),
        (49, [0, 16, 32, 49]),
        (51, [0, 16, 32, 48, 51]),
        (7, [0, 7]),
        (1, [0, 1]),
    ],
)
def test_apply_A_on_entries_is_the_whole_stack_product(monkeypatch, p, bounds):
    # A(X) of a block stored as its entries runs on chunks of 16 rows; a
    # last chunk of one row joins the one before, since numpy hands a
    # single row to a dot product. The bytes are np.tensordot's over the
    # whole stack
    P = first_constraints(build_qr(ball_quartic(3), 3).to_sdp()[0], 0, p)
    n = P.block_dims[0]
    monkeypatch.setattr(sdp, "CHUNK_BYTES", 16 * 8 * n * n)
    stack = P.stack(0)
    chunks = [(lo, hi, Ab.copy()) for lo, hi, Ab in sdp._constraint_chunks(P, 0)]
    assert [lo for lo, _, _ in chunks] + [p] == bounds
    assert all(np.array_equal(Ab, stack[lo:hi]) for lo, hi, Ab in chunks)
    rng = np.random.default_rng(p)
    for _ in range(3):
        X = [symmetric_stack(rng, 1, n)[0]]
        assert same_bytes(sdp._apply_A(P, X), tensordot_apply_A(P, X))


# A(X) of Q_4 on the 4-ball against np.tensordot over the whole stacks,
# run under one BLAS thread: under more, OpenBLAS splits the whole-stack
# product between threads and its bytes differ from the chunks'
LADDER_APPLY_A = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from helpers import ball_quartic
from momentsos import sdp
from momentsos.hierarchy import build_qr
P = build_qr(ball_quartic(4), 4).to_sdp()[0]
assert isinstance(P.A[0], sdp.OneHot) and P._whole_stacks[0] is None
rng = np.random.default_rng(4)
X = [rng.standard_normal((n, n)) for n in P.block_dims]
X = [M + M.T for M in X]
ref = np.zeros(P.num_constraints)
for k, Xb in enumerate(X):
    ref += np.tensordot(P.stack(k), Xb, axes=([1, 2], [0, 1]))
assert sdp._apply_A(P, X).tobytes() == ref.tobytes()
"""


def test_apply_A_on_a_ladder_block_is_the_whole_stack_product():
    # the (494, 70, 70) moment block in chunks of 16 at the default
    # CHUNK_BYTES, 494 = 14 mod 16
    tests = str(Path(__file__).resolve().parent)
    src = str(Path(sdp.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", LADDER_APPLY_A, tests],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


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
