"""The pattern-derived builders against the entry-by-entry loops they
replaced, and `MomentSdp.certificate` against the per-relaxation read-off
formulas it replaced, kept here as the reference.

Every form must agree bit for bit (`np.array_equal`, and the same term
order for polynomials): term order reaches `eval` and `l1_norm`, and the
CLI reports are byte-identical across versions.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from momentsos._compile import coefficient_row, moment_program, relaxation_blocks
from momentsos.convexcert import (
    _rho_blocks,
    build_sdr,
    gradient_pairing,
    lift_to_xy,
    rho_program,
)
from momentsos.hierarchy import PolyOptProblem, build_qhat, build_qr
from momentsos.moments import (
    BlockSpec,
    MomentVector,
    localizing_matrix,
    moment_matrix,
)
from momentsos.poly import Polynomial, PreconditionFailure, monomial_basis
from momentsos.sos import GramIdentity, _gram_constraint_index, _w_linear_basis

from helpers import example_degenerate_cube, example_hyperbola_disk, unit_disk

# ---- reference loops ----------------------------------------------------------


def full_index(n, order):
    return {a: i for i, a in enumerate(monomial_basis(n, 2 * order))}


def rows(basis):
    """Exponent rows as a list of int tuples, as monomial_basis gives them."""
    return [tuple(a) for a in np.asarray(basis).tolist()]


def add(*monomials):
    return tuple(sum(e) for e in zip(*monomials))


def ref_localizing_tensor(n, order, d, g):
    return ref_block_tensor(monomial_basis(n, d), full_index(n, order), g)


def ref_block_tensor(basis, idx, g):
    T = np.zeros((len(basis), len(basis), len(idx)))
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            for gamma, c in g.terms.items():
                T[i, j, idx[add(a, b, gamma)]] += c
    return T


def ref_coefficient_row(n, order, p):
    idx = full_index(n, order)
    row = np.zeros(len(idx))
    for alpha, c in p.terms.items():
        row[idx[alpha]] += c
    return row


def ref_localizing_matrix(y, g, d):
    basis, idx = monomial_basis(y.n, d), full_index(y.n, y.order)
    M = np.zeros((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            v = 0.0
            for gamma, c in g.terms.items():
                v += c * y.values[idx[add(a, basis[j], gamma)]]
            M[i, j] = v
            M[j, i] = v
    return M


def ref_kernel(n, D, max_p_deg, h):
    idx = {a: i for i, a in enumerate(monomial_basis(n, D))}
    kernel = []
    for p_alpha in monomial_basis(n, max_p_deg):
        vec = np.zeros(len(idx))
        for gamma, c in h.terms.items():
            vec[idx[add(p_alpha, gamma)]] += c
        kernel.append(vec)
    return np.array(kernel).T


def ref_gram_constraint_index(basis):
    sums = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if j >= i:
                sums.setdefault(add(a, b), []).append((i, j))
    return sums


def ref_reconstruct(basis, gram):
    """The terms of z'Gz, in first appearance; only exact zeros dropped."""
    terms = {}
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            terms[add(a, b)] = terms.get(add(a, b), 0.0) + gram[i, j]
    return {a: c for a, c in terms.items() if c != 0.0}


def ref_psi_free(basis, mu, n):
    terms = {}
    for pos, m in enumerate(basis, start=1):
        terms[m] = float(mu[pos])
    return Polynomial.make(n, terms)


# ---- fixtures -------------------------------------------------------------------


def weights(K):
    """Each constraint of K in its n variables, and lifted to (X, Y)."""
    out = [(K.n, g) for g in K.constraints]
    for side in ("x", "y"):
        out += [(2 * K.n, lift_to_xy(g, side)) for g in K.constraints]
    return out


FIXTURES = {
    "disk": unit_disk(),
    "lens": example_hyperbola_disk(),
    "cube": example_degenerate_cube(),
}


def same_terms(p, q):
    return p.n == q.n and list(p.terms.items()) == list(q.terms.items())


@pytest.fixture(params=sorted(FIXTURES))
def K(request):
    return FIXTURES[request.param]


# ---- comparisons ----------------------------------------------------------------


def ref_stacks(tensors, program):
    """The compiled objective blocks T_B z_part and constraint stacks
    -T_B N, with axes (u, row, col), for the SVD elimination (z_part, N)
    of the program's equality rows."""
    z_part, N = program._eliminate()
    for T in tensors:
        yield (
            np.tensordot(T, z_part, axes=(2, 0)),
            -np.moveaxis(np.tensordot(T, N, axes=(2, 0)), 2, 0),
        )


@pytest.mark.parametrize("order", [3, 4])
def test_tensors_rows_and_coefficients(K, order):
    # each layered block, applied to the identity, is the reference tensor
    # with the moment axis first
    for n, g in weights(K):
        r = (g.degree() + 1) // 2
        eye = np.eye(len(full_index(n, order)))
        for d in sorted({0, order - r}):
            block = BlockSpec.from_pattern("g", monomial_basis(n, d), g)
            assert np.array_equal(
                block.apply(eye),
                np.moveaxis(ref_localizing_tensor(n, order, d, g), 2, 0),
            )
        assert np.array_equal(
            coefficient_row(n, order, g), ref_coefficient_row(n, order, g)
        )
        one = Polynomial.constant(n, 1.0)
        block = BlockSpec.from_pattern("moment", monomial_basis(n, order))
        assert np.array_equal(
            block.apply(eye),
            np.moveaxis(ref_localizing_tensor(n, order, order, one), 2, 0),
        )
        expected = np.zeros(len(full_index(n, order)))
        expected[0] = 1.0
        assert np.array_equal(coefficient_row(n, order, one), expected)
    # Q_r and the lifts (localizing blocks), Q-hat (scalar rows): their
    # stacks, eliminated by selection, are those of the dense reference
    # tensors and the SVD null-space basis, bit for bit
    rng = np.random.default_rng(order)
    for form in ("localizing", "scalar"):
        blocks = relaxation_blocks(K, order, form)
        objective = rng.normal(size=len(full_index(K.n, order)))
        program = moment_program(K.n, order, objective, blocks)
        problem, _ = program.to_sdp()
        one = Polynomial.constant(K.n, 1.0)
        tensors = [ref_localizing_tensor(K.n, order, order, one)]
        for g, rj in zip(K.constraints, K.half_degrees()):
            d = order - rj if form == "localizing" else 0
            tensors.append(ref_localizing_tensor(K.n, order, d, g))
        for k, (C, (ref_C, ref_A)) in enumerate(
            zip(problem.C, ref_stacks(tensors, program))
        ):
            A = problem.stack(k)
            assert np.array_equal(C, ref_C) and np.array_equal(A, ref_A)


def test_coefficient_row_rejects_high_degree():
    p = Polynomial.make(2, {(1, 0): 1.0, (3, 2): 2.0})
    with pytest.raises(PreconditionFailure, match=r"\(3, 2\) outside N\^2_4"):
        coefficient_row(2, 2, p)


def test_moment_and_localizing_matrices(K):
    rng = np.random.default_rng(5)
    for n in (K.n, 2 * K.n):
        order = 4 if n == K.n else 3
        y = MomentVector.from_mixture(
            rng.normal(size=(12, n)), rng.uniform(size=12), order
        )
        y = MomentVector(n, order, y.values + 1e-3 * rng.normal(size=len(y.values)))
        idx = full_index(n, order)
        for d in range(order + 1):
            basis = monomial_basis(n, d)
            ref = np.array([[y.values[idx[add(a, b)]] for b in basis] for a in basis])
            assert np.array_equal(moment_matrix(y, d), ref)
        for m, g in weights(K):
            if m == n and g.degree() <= 2 * order:
                d = order - (g.degree() + 1) // 2
                assert np.array_equal(
                    localizing_matrix(y, g, d), ref_localizing_matrix(y, g, d)
                )


def test_kernel_deflation_matches_reference_kernel(K):
    # each rho_j block drops exactly the leading coordinates of the forced
    # kernel vectors g_j(Y) p, and those vectors together with the kept
    # coordinate vectors form a basis
    n2, half = 2 * K.n, [0] + K.half_degrees()
    for j in range(1, K.m + 1):
        h = lift_to_xy(K.constraints[j - 1], "y")
        for d_j in (2, 3):
            if d_j < max(half):
                continue
            budget = 2 * (d_j - half[j])
            blocks = _rho_blocks(K, j, d_j)
            for B in blocks:
                g, kept = B.weight, rows(B.basis)
                D = d_j - (g.degree() + 1) // 2
                basis = monomial_basis(n2, D)
                keep = [basis.index(a) for a in kept]
                max_p_deg = min(D - h.degree(), budget - g.degree() - D)
                if max_p_deg < 0:
                    assert keep == list(range(len(basis)))
                    continue
                kernel = ref_kernel(n2, D, max_p_deg, h)
                leads = [int(np.flatnonzero(col)[-1]) for col in kernel.T]
                assert sorted(leads + keep) == list(range(len(basis)))
                full = np.hstack([kernel, np.eye(len(basis))[:, keep]])
                assert np.linalg.matrix_rank(full) == len(basis)
            # the compiled rho_j stacks agree with those of the dense
            # reference tensors over the kept rows, up to summation order
            program = rho_program(K, j, d_j)
            problem, _ = program.to_sdp()
            idx = full_index(n2, d_j)
            tensors = [ref_block_tensor(rows(B.basis), idx, B.weight) for B in blocks]
            for k, (C, (ref_C, ref_A)) in enumerate(
                zip(problem.C, ref_stacks(tensors, program))
            ):
                for M, ref in ((C, ref_C), (problem.stack(k), ref_A)):
                    assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))


def gram_bases(n):
    return [monomial_basis(n, 2), monomial_basis(2 * n, 1), _w_linear_basis(n, 1)]


def test_gram_constraint_index_and_reconstruct(K):
    rng = np.random.default_rng(7)
    for basis in gram_bases(K.n):
        m = len(basis[0])
        ref = ref_gram_constraint_index(basis)
        monomials, rows, cols, group = _gram_constraint_index(np.array(basis))
        # constraint order: the sorted monomials; pairs in row-major order
        assert monomials == sorted(ref)
        for k, alpha in enumerate(monomials):
            pairs = list(zip(rows[group == k].tolist(), cols[group == k].tolist()))
            assert pairs == ref[alpha]
        G = rng.normal(size=(len(basis), len(basis)))
        G[0, 1] = G[1, 0] = 1e-14  # kept: reconstruct prunes nothing
        one = Polynomial.constant(m, 1.0)
        recon = GramIdentity(Polynomial.zero(m), 0.0, [(one, basis, G)]).sigma(0)
        assert list(recon.terms.items()) == list(ref_reconstruct(basis, G).items())


def test_psi_free_matches_reference(K):
    rng = np.random.default_rng(11)
    n2, half = 2 * K.n, K.half_degrees()
    for j in range(1, K.m + 1):
        d_j = max(half) + 1
        program = rho_program(K, j, d_j)
        basis = monomial_basis(n2, 2 * (d_j - half[j - 1]))
        sol = SimpleNamespace(
            is_optimal=True,
            gram_blocks=[rng.normal(size=(B.dim, B.dim)) for B in program.blocks],
            eq_multipliers=rng.normal(size=1 + len(basis)),
        )
        target = gradient_pairing(K.constraints[j - 1])
        identity = program.certificate(target, sol)
        (psi_free, _), = identity.free
        assert same_terms(psi_free, ref_psi_free(basis, sol.eq_multipliers, n2))
        # the whole identity of made-up Grams: bases and weights alone decide
        reference = ref_rho_weights(K, j, d_j, sol)
        assert identity.to_json() == reference.to_json()


# ---- certificate read-off ---------------------------------------------------------


def ref_putinar(problem, solution, r, kind="qr"):
    """The Putinar identity with the bases worked out from r and the kind of
    relaxation: monomial_basis(n, r - r_j), or degree 0 for Q-hat rows."""
    f, K = problem.objective, problem.feasible_set
    weights = [Polynomial.constant(K.n, 1.0), *K.constraints]
    grams = []
    for j, (w, G) in enumerate(zip(weights, solution.gram_blocks)):
        if j == 0:
            basis = monomial_basis(K.n, r)
        elif kind == "qhat":
            basis = monomial_basis(K.n, 0)
        else:
            basis = monomial_basis(K.n, r - K.half_degrees()[j - 1])
        grams.append((w, basis, np.asarray(G, dtype=float)))
    return GramIdentity(f, float(solution.eq_multipliers[0]), grams)


def ref_rho_weights(K, j, d_j, solution):
    """The rho_j identity: sigma_k on g_k(X) (g_0 = 1) and psi_k on g_k(Y),
    k != j, each over monomial_basis(2n, d_j - r_k) less the leading
    coordinates of the reference kernel, and the free term psi_j g_j(Y)
    with psi_j = sum_m mu_m m over the monomials of the equality rows."""
    n2, half = 2 * K.n, K.half_degrees()
    h = lift_to_xy(K.constraints[j - 1], "y")
    budget = 2 * (d_j - half[j - 1])
    blocks = [(d_j, Polynomial.constant(n2, 1.0))]
    for side in ("x", "y"):
        for k, (g, rk) in enumerate(zip(K.constraints, half), start=1):
            if side == "x" or k != j:
                blocks.append((d_j - rk, lift_to_xy(g, side)))
    grams = []
    for (D, w), G in zip(blocks, solution.gram_blocks):
        basis = monomial_basis(n2, D)
        max_p_deg = min(D - h.degree(), budget - w.degree() - D)
        leads = set()
        if max_p_deg >= 0:
            kernel = ref_kernel(n2, D, max_p_deg, h)
            leads = {int(np.flatnonzero(col)[-1]) for col in kernel.T}
        kept = [a for i, a in enumerate(basis) if i not in leads]
        grams.append((w, kept, G))
    mu = solution.eq_multipliers
    multipliers = monomial_basis(n2, budget)
    psi_free = Polynomial.make(n2, dict(zip(multipliers, mu[1:].tolist())))
    target = gradient_pairing(K.constraints[j - 1])
    return GramIdentity(target, float(mu[0]), grams, [(psi_free, h)])


@pytest.mark.parametrize("name", ["disk", "lens"])
def test_putinar_certificate_matches_reference(name):
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    problem = PolyOptProblem(x1 + 0.5 * x2 * x2 - x1 * x2, FIXTURES[name])
    programs = [(build_qr(problem, r), r, "qr") for r in (1, 2, 3)]
    qhat = build_qhat(problem)
    programs.append((qhat, qhat.order, "qhat"))
    for program, r, kind in programs:
        solution = program.solve()
        assert solution.is_optimal
        identity = program.certificate(problem.objective, solution)
        reference = ref_putinar(problem, solution, r, kind)
        assert identity.to_json() == reference.to_json()


@pytest.mark.parametrize("name, d_j", [("lens", 3), ("lens", 4), ("disk", 2)])
def test_rho_weights_match_reference(name, d_j):
    K = FIXTURES[name]
    program = rho_program(K, 1, d_j)
    solution = program.solve()
    assert solution.is_optimal
    identity = program.certificate(gradient_pairing(K.constraints[0]), solution)
    reference = ref_rho_weights(K, 1, d_j, solution)
    assert identity.to_json() == reference.to_json()


def fixture_programs(K):
    """(n, order, blocks) of every compiled program of the fixture: Q_r and
    Q-hat, the lift in both forms, and rho_j for every j."""
    problem = PolyOptProblem(Polynomial.variable(K.n, 0), K)
    r = problem.min_order()
    for order in (r, r + 1):
        q = build_qr(problem, order)
        yield q.n, q.order, q.blocks
    q = build_qhat(problem)
    yield q.n, q.order, q.blocks
    for form in ("localizing", "scalar"):
        sdr = build_sdr(K, d=r, form=form)
        yield sdr.n, sdr.d, sdr.blocks
    for j in range(1, K.m + 1):
        program = rho_program(K, j, max(K.half_degrees()) + 1)
        yield program.n, program.order, program.blocks


def test_blocks_keep_basis_and_weight(K):
    # each block is S(weight z) over its basis: applied to a moment vector
    # it is the dense reference tensor over those rows, contracted with z
    rng = np.random.default_rng(17)
    for n, order, blocks in fixture_programs(K):
        idx = full_index(n, order)
        z = rng.normal(size=len(idx))
        for B in blocks:
            assert len(B.basis) == B.dim
            ref = np.tensordot(
                ref_block_tensor(rows(B.basis), idx, B.weight), z, axes=(2, 0)
            )
            assert np.max(np.abs(B.apply(z) - ref)) <= 1e-14 * np.max(np.abs(ref))
    # a block given as raw layers has neither
    raw = BlockSpec("raw", np.zeros((1, 2, 2), dtype=int), np.ones(1))
    assert raw.basis is None and raw.weight is None
