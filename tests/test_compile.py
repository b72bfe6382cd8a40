"""Moment-form compiler: elimination, decode, deflation geometry."""

import tracemalloc

import numpy as np
import pytest

from momentsos import _compile, moments, sdp
from momentsos._compile import (
    BlockSpec,
    MomentSdp,
    coefficient_row,
    moment_program,
    relaxation_blocks,
)
from momentsos.convexcert import _rho_blocks, lift_to_xy, rho_program
from momentsos.moments import mean_point
from momentsos.hierarchy import build_qr
from momentsos.sos import sos_decompose
from momentsos.poly import Polynomial, PreconditionFailure, basis_size, monomial_basis

from helpers import (
    ball_quartic,
    example_degenerate_cube,
    example_hyperbola_disk,
    one_hot_record,
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
    assert sol.status is sdp.SdpStatus.OPTIMAL
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
    assert sol.status is sdp.SdpStatus.INFEASIBLE
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
    assert sol.status is sdp.SdpStatus.UNBOUNDED
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
        for B in _rho_blocks(K, j, d):
            g = B.weight
            D = d - (g.degree() + 1) // 2
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


# ---- elimination by selection ------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def stored_as(problem, k, ref):
    """Whether block k of problem holds the dense stack `ref` bit for bit:
    a selected one-hot block as the record read off ref's nonzeros, and
    no stack; a `Mapped` block, one-hot or not, and any other selected
    block as a stack, rebuilt or stored, that is ref."""
    stored, record = problem.A[k], one_hot_record(ref)
    if isinstance(stored, sdp.OneHot):
        return record is not None and all(
            same_bits(a, b) for a, b in zip(stored, record)
        )
    mapped = isinstance(stored, sdp.Mapped)
    return (mapped or record is None) and same_bits(problem.stack(k), ref)


def unit_row_programs():
    """Q_r and the lifts (localizing blocks) and Q-hat (scalar rows) on the
    disk, lens and degenerate cube at orders 3 and 4: z_0 = 1 is their one
    equality row. Objective entry 2 is -0.0, which N'c sums to +0.0."""
    for name, K in (
        ("disk", unit_disk()),
        ("lens", example_hyperbola_disk()),
        ("cube", example_degenerate_cube()),
    ):
        for order in (3, 4):
            for form in ("localizing", "scalar"):
                blocks = relaxation_blocks(K, order, form)
                rng = np.random.default_rng(order)
                objective = rng.normal(size=basis_size(K.n, 2 * order))
                objective[2] = -0.0
                yield f"{name} {form} {order}", moment_program(
                    K.n, order, objective, blocks
                )


def rho_programs():
    lens, cube, disk = example_hyperbola_disk(), example_degenerate_cube(), unit_disk()
    # at d = 1 the moment block and g_1(X) of lens rho_1 are one-hot
    # through N, and stored as `Mapped` records all the same; at d = 3 no
    # rho_j block is one-hot
    return [rho_program(lens, 1, 1)] + [
        rho_program(K, j, 3) for K, j in ((lens, 1), (cube, 2), (disk, 1))
    ]


@pytest.mark.parametrize("label, program", list(unit_row_programs()))
def test_selection_matches_svd_elimination(label, program):
    # z_0 = 1 makes N the identity less its first column, so selecting
    # coordinates gives the SVD path's data and decoded moments bit for bit
    problem, decode = program.to_sdp()
    z_part, N = program._eliminate()
    assert "N" not in decode and same_bits(decode["z_part"], z_part)
    for k, (B, C) in enumerate(zip(program.blocks, problem.C)):
        assert same_bits(C, B.apply(z_part))
        assert stored_as(problem, k, -B.apply(N.T))
    assert same_bits(problem.b, -(N.T @ program.objective))
    u = np.random.default_rng(1).normal(size=N.shape[1])
    u[:2] = 0.0, -0.0
    assert same_bits(_compile._decode(decode, u), z_part + N @ u)


@pytest.mark.parametrize(
    "program",
    [program for _, program in unit_row_programs()][::3] + rho_programs(),
)
def test_compiled_stacks_symmetric_and_patterns_from_compile(program):
    # the compiler builds SdpProblem itself: every C and stored stack must
    # equal its transpose, and each block's stored form must hold its
    # dense stack, entry for entry (`stored_as`)
    problem, _ = program.to_sdp()
    _, N = program._eliminate()
    for k, (B, C, A) in enumerate(zip(program.blocks, problem.C, problem.A)):
        assert same_bits(C, C.T)
        if not isinstance(A, sdp.OneHot):
            A = problem.stack(k)
            assert same_bits(A, A.transpose(0, 2, 1)) and A.flags.c_contiguous
        assert stored_as(problem, k, -B.apply(N.T))
    if program.num_equalities == 1:
        assert isinstance(problem.A[0], sdp.OneHot)  # the moment block
    else:
        assert all(isinstance(A, sdp.Mapped) for A in problem.A)
    if program.order == 1 and program.num_equalities > 1:
        one_hot = [one_hot_record(-B.apply(N.T)) is not None for B in program.blocks]
        assert one_hot == [True, True, False, False]


def test_compiled_programs_skip_make(monkeypatch):
    # make's checks never run on compiled or Gram problems
    def unreachable(*args):
        raise AssertionError("dense-input path ran on a built problem")

    monkeypatch.setattr(sdp.SdpProblem, "make", staticmethod(unreachable))
    assert rho_program(example_hyperbola_disk(), 1, 2).solve().is_optimal
    assert build_qr(ball_quartic(2), 3).solve().is_optimal
    square = Polynomial.make(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0})
    assert sos_decompose(square).status == "sos"


def test_selection_holds_no_basis_or_second_stack():
    # Q_3 on the 6-ball: the one-hot (923, 84, 84) moment block, 52.1 MB
    # dense, is stored as its entries, and only the (923, 28, 28)
    # localizing stack of 5.8 MB is built. The SVD path held the
    # (924, 923) basis N (6.8 MB) and a negated copy of each stack
    program = build_qr(ball_quartic(6), 3)
    tracemalloc.start()
    try:
        problem, _ = program.to_sdp()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(problem.A[0], sdp.OneHot)
    assert problem.A[1].shape == (923, 28, 28)
    assert peak < 10e6
    stored = [A for A in problem.A if not isinstance(A, sdp.OneHot)]
    held = sum(A.nbytes for A in stored)
    smallest = min(min(A.nbytes for A in stored), 924 * 923 * 8)
    assert peak < held + smallest


# ---- elimination through the SVD basis --------------------------------------


def sum_of_terms(B, Z):
    """BlockSpec.apply as a sum of products, started from the integer 0."""
    return sum(c * np.take(Z, idx, axis=-1) for c, idx in zip(B.coef, B.index))


def test_apply_is_the_sum_of_terms_bytes():
    # apply gathers into its result and one reused layer; its bytes are the
    # sum of products', signed zeros included: that sum starts from the
    # integer 0, which turns a -0.0 first term into +0.0
    rng = np.random.default_rng(6)
    NT = rng.normal(size=(5, 12))
    NT[:, ::3] = 0.0
    NT[2, 4] = -0.0
    index = rng.integers(0, 12, size=(3, 4, 4))
    blocks = [
        BlockSpec("single", index[:1], np.array([-2.0])),
        BlockSpec("three", index, np.array([-1.0, 0.5, -3.0])),
        BlockSpec("two", index[1:, :2, :2], np.array([0.25, -1.0])),
    ]
    for B in blocks:
        for Z in (NT, NT[0], NT.T.copy().T):
            M = B.apply(Z)
            assert M.flags.c_contiguous and same_bits(M, sum_of_terms(B, Z))
    # 0 + -2 * 0.0 is +0.0 where the single layer gathers a zero
    zeros = blocks[0].apply(NT)[blocks[0].apply(NT) == 0]
    assert zeros.size and not np.signbit(zeros).any()
    # an index past the moment vector raises, as np.take does, also when
    # only a later term holds it
    layers = np.stack([index[0] % 11, np.full((4, 4), 11)])
    late = BlockSpec("late", layers, np.ones(2))
    with pytest.raises(IndexError):
        late.apply(NT[:, :11])
    # no terms: the zero block, not the sum's integer 0
    zero = BlockSpec("none", index[:0], np.zeros(0))
    assert same_bits(zero.apply(NT), np.zeros((5, 4, 4)))
    for program in rho_programs():
        _, N = program._eliminate()
        problem, _ = program.to_sdp()
        for k, B in enumerate(program.blocks):
            A = problem.A[k]
            assert isinstance(A, sdp.OneHot) or problem.stack(k).flags.c_contiguous
            assert stored_as(problem, k, -sum_of_terms(B, N.T))


def test_svd_path_holds_one_layer_beyond_the_stacks():
    # rho_1 of the lens at d = 4: blocks 55/30/30/30 of 1, 2, 4 and 4 terms.
    # Beyond the returned stacks only one layer of the largest multi-term
    # block is held (1.95 MB); a sum of products holds two (3.9 MB)
    program = rho_program(example_hyperbola_disk(), 1, 4)
    _, N = program._eliminate()
    tracemalloc.start()
    try:
        stacks = [B.apply(N.T) for B in program.blocks]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    layer = max(A.nbytes for A, B in zip(stacks, program.blocks) if len(B.coef) > 1)
    assert peak <= sum(A.nbytes for A in stacks) + layer + (1 << 16)
    # to_sdp builds none of these stacks: it peaks in the SVD of
    # `_eliminate`, and beyond the decode map's N it holds the layers and
    # NT = N', which is a view of N. Built whole, the smallest stack
    # (2.0 MB) would lift the peak and stay held
    smallest = min(A.nbytes for A in stacks)
    del stacks
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        program._eliminate()
        eliminate_peak = tracemalloc.get_traced_memory()[1] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        problem, decode = program.to_sdp()
        held, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert peak < eliminate_peak + smallest
    assert held <= decode["N"].nbytes + (1 << 16)
    assert all(isinstance(A, sdp.Mapped) for A in problem.A)
    assert all(A.NT.base is decode["N"].base for A in problem.A)


# ---- blocks stored as layers and N' ------------------------------------------


def mapped_and_stacked(program):
    """The compiled problem of an SVD-path program, and the same problem
    with each `Mapped` block stored as the stack it rebuilds."""
    problem, _ = program.to_sdp()
    stacked = tuple(
        problem.stack(k) if isinstance(A, sdp.Mapped) else A
        for k, A in enumerate(problem.A)
    )
    return problem, sdp.SdpProblem(problem.block_dims, problem.C, stacked, problem.b)


# chunks of 5 matrices of the largest rho_j block at d = 3, 30 x 30
SMALL_CHUNKS = [None, 5 * 8 * 30 * 30]


@pytest.mark.parametrize("chunk_bytes", SMALL_CHUNKS)
def test_mapped_chunks_are_the_rows_of_the_stack(monkeypatch, chunk_bytes):
    # Mapped.chunk over the chunk bounds of _constraint_chunks and of
    # _schur_matrix is the slice of -B.apply(N') bit for bit, one-hot
    # blocks and ragged last chunks included
    if chunk_bytes is not None:
        monkeypatch.setattr(sdp, "CHUNK_BYTES", chunk_bytes)
    for program in rho_programs():
        _, N = program._eliminate()
        for B in program.blocks:
            whole, mapped = -B.apply(N.T), sdp.Mapped(B, N.T)
            p, n = N.shape[1], B.dim
            step = max(1, sdp.CHUNK_BYTES // (8 * n * n))
            schur = [(lo, min(lo + step, p)) for lo in range(0, p, step)]
            for lo, hi in sdp._chunk_bounds(p, n) + schur:
                assert same_bits(mapped.chunk(lo, hi), whole[lo:hi])


@pytest.mark.parametrize("chunk_bytes", SMALL_CHUNKS)
def test_schur_matrix_of_mapped_blocks_is_the_stacks(monkeypatch, chunk_bytes):
    # the Schur term reads rebuilt chunks that are the stack's rows, so M
    # is the dense-stack problem's bit for bit
    if chunk_bytes is not None:
        monkeypatch.setattr(sdp, "CHUNK_BYTES", chunk_bytes)
    for program in rho_programs():
        problem, stacked = mapped_and_stacked(program)
        rng = np.random.default_rng(problem.num_constraints)
        Gs = [rng.standard_normal((n, n)) / np.sqrt(n) for n in problem.block_dims]
        M = sdp._schur_matrix(problem, Gs)
        assert same_bits(M, sdp._schur_matrix(stacked, Gs))


def test_mapped_apply_A_and_At_are_the_stacks_contraction():
    # A(X) through the layers' adjoint and N', and A'y through one apply of
    # N y, agree with the stacks' products to 1e-13 of their largest
    # entry, are adjoint, and A'y is exactly symmetric
    for program in rho_programs():
        problem, stacked = mapped_and_stacked(program)
        rng = np.random.default_rng(problem.num_constraints)
        X = [rng.standard_normal((n, n)) for n in problem.block_dims]
        X = [Xb + Xb.T for Xb in X]
        y = rng.standard_normal(problem.num_constraints)
        AX, ref = sdp._apply_A(problem, X), sdp._apply_A(stacked, X)
        assert np.max(np.abs(AX - ref)) <= 1e-13 * np.max(np.abs(ref))
        Aty = sdp._apply_At(problem, y)
        for M, ref in zip(Aty, sdp._apply_At(stacked, y)):
            assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))
            assert same_bits(M, M.T)
        inner = sum(float(np.vdot(Xb, M)) for Xb, M in zip(X, Aty))
        assert abs(float(AX @ y) - inner) <= 1e-13 * np.abs(AX).sum() * np.abs(y).max()


@pytest.mark.parametrize("chunk_bytes", SMALL_CHUNKS)
def test_mapped_sdpa_dump_is_the_stacks_dump(monkeypatch, chunk_bytes):
    # the dump reads each Mapped block a rebuilt chunk at a time and gives
    # the dense-stack problem's text
    if chunk_bytes is not None:
        monkeypatch.setattr(sdp, "CHUNK_BYTES", chunk_bytes)
    for program in rho_programs():
        problem, stacked = mapped_and_stacked(program)
        # compared first, so that a failure is not explained by a diff of
        # thousands of lines
        same = problem.dump_sdpa() == stacked.dump_sdpa()
        assert same


# ---- the ideal rows, the decode basis and the Schur term's memory -----------


def ideal_rows_match_coefficient_rows(program):
    """Whether row 1 + i of E is coefficient_row(h m_i) bit for bit."""
    h, multipliers = program.ideal
    n, order = program.n, program.order
    rows = [
        coefficient_row(n, order, h * Polynomial.monomial(n, m))
        for m in map(tuple, multipliers.tolist())
    ]
    return program.num_equalities == 1 + len(rows) and all(
        same_bits(program.eq_rows[1 + i], row) for i, row in enumerate(rows)
    )


@pytest.mark.parametrize(
    "K, j, d",
    [(example_hyperbola_disk, 1, d) for d in (3, 4, 5, 6)]
    + [(unit_disk, 1, d) for d in (2, 3)]
    + [(example_degenerate_cube, 1, d) for d in (3, 4)],
)
def test_rho_ideal_rows_are_coefficient_rows(K, j, d):
    program = rho_program(K(), j, d)
    one = Polynomial.constant(program.n, 1.0)
    assert same_bits(program.eq_rows[0], coefficient_row(program.n, d, one))
    assert ideal_rows_match_coefficient_rows(program)


def test_ideal_rows_need_no_constant_first_multiplier():
    # the multipliers x_2, x_1, 1 of h = 1 - |x|^2: row i is L_z(h m_i)
    # whatever the order of the rows, the constant monomial last here
    h = unit_disk().constraints[0]
    multipliers = moments._basis(2, 1)[::-1]
    assert multipliers[0].tolist() == [0, 1]
    program = moment_program(2, 2, np.zeros(basis_size(2, 4)), [], (h, multipliers))
    assert ideal_rows_match_coefficient_rows(program)


def test_rho_ideal_rows_take_no_square_pattern():
    # lens rho_1 at d = 6: q = 1001 rows over s = 1820 moments, and E takes
    # 14.6 MB. A q x q pattern of S(h z) would peak above 300 MB
    tracemalloc.start()
    try:
        program = rho_program(example_hyperbola_disk(), 1, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert program.eq_rows.shape == (1002, 1820)
    assert peak < 60e6


def test_null_space_basis_holds_only_its_rows():
    # N is Vt[rank:]' in value and layout, over a copy of those rows, so
    # that the decode map does not hold the whole s x s Vt
    program = rho_program(example_hyperbola_disk(), 1, 4)
    _, N = program._eliminate()
    s = program.num_moments
    _, _, Vt = np.linalg.svd(program.eq_rows, full_matrices=True)
    rank = s - N.shape[1]
    assert N.base is not None and N.base.shape == (s - rank, s)
    assert N.strides == Vt[rank:].T.strides and same_bits(N, Vt[rank:].T)


def test_schur_matrix_holds_one_dense_block_at_a_time():
    # lens rho_1 at d = 5: p = 505 and dense blocks 91/55/55/55, whose B
    # take 16.9 MB and 6.2 MB each. Beyond the largest B, one call holds M
    # and B B' (2 p^2 doubles) and a few chunks, never two blocks' B
    problem, _ = rho_program(example_hyperbola_disk(), 1, 5).to_sdp()
    p = problem.num_constraints
    assert not any(isinstance(A, sdp.OneHot) for A in problem.A)
    Gs = [np.eye(n) for n in problem.block_dims]
    largest = max(8 * p * n * (n + 1) // 2 for n in problem.block_dims)
    tracemalloc.start()
    try:
        sdp._schur_matrix(problem, Gs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < largest + 2 * 8 * p * p + 4 * sdp.CHUNK_BYTES
