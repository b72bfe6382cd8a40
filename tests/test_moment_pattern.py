"""The pattern-derived builders against the entry-by-entry loops they
replaced, kept here as the reference.

Every form must agree bit for bit (`np.array_equal`, and the same term
order for polynomials): term order reaches `eval` and `l1_norm`, and the
CLI reports are byte-identical across versions.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from momentsos._compile import coefficient_row, moment_program, relaxation_blocks
from momentsos.convexcert import (
    _recover_rho_weights,
    _rho_blocks,
    lift_to_xy,
    rho_program,
)
from momentsos.moments import (
    BlockSpec,
    MomentVector,
    localizing_matrix,
    moment_matrix,
)
from momentsos.poly import Polynomial, PreconditionFailure, monomial_basis
from momentsos.sos import SosWitness, _gram_constraint_index, _w_linear_basis

from helpers import example_degenerate_cube, example_hyperbola_disk, unit_disk

# ---- reference loops ----------------------------------------------------------


def full_index(n, order):
    return {a: i for i, a in enumerate(monomial_basis(n, 2 * order))}


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
            for k, _, g, kept in _rho_blocks(K, j, d_j):
                D = d_j - half[k]
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
            tensors = [
                ref_block_tensor(kept, idx, g)
                for _, _, g, kept in _rho_blocks(K, j, d_j)
            ]
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
        recon = SosWitness(basis, G, 0.0).reconstruct(m)
        assert list(recon.terms.items()) == list(ref_reconstruct(basis, G).items())


def test_psi_free_matches_reference(K):
    rng = np.random.default_rng(11)
    n2, half = 2 * K.n, K.half_degrees()
    for j in range(1, K.m + 1):
        d_j = max(half) + 1
        sizes = [len(basis) for *_, basis in _rho_blocks(K, j, d_j)]
        basis = monomial_basis(n2, 2 * (d_j - half[j - 1]))
        sol = SimpleNamespace(
            gram_blocks=[rng.normal(size=(s, s)) for s in sizes],
            eq_multipliers=rng.normal(size=1 + len(basis)),
        )
        weights_j = _recover_rho_weights(K, j, d_j, sol)
        assert same_terms(
            weights_j.psi_free, ref_psi_free(basis, sol.eq_multipliers, n2)
        )
