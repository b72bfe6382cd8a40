"""Symmetry of K and the rho_j programs solved over invariant moments."""

import dataclasses

import numpy as np
import pytest

from momentsos.convexcert import certify_convexity, rho_program, symmetry_group
from momentsos.moments import _basis
from momentsos.poly import Polynomial, SemialgebraicSet

from helpers import example_degenerate_cube, example_hyperbola_disk


def span(flips):
    """Every sign flip the GF(2) rows `flips` span, as 0/1 tuples."""
    out = {tuple(np.zeros(flips.shape[1], dtype=int))}
    for f in flips:
        out |= {tuple((np.array(g) + f) % 2) for g in out}
    return out


def flipped(g: Polynomial, flip) -> Polynomial:
    """g(x) with x_i -> -x_i for each i with flip[i] = 1."""
    signs = (-1.0) ** (g.exponents @ np.asarray(flip))
    return Polynomial(g.n, g.exponents, g.coefficients * signs)


# ---- the group of K -------------------------------------------------------------


def test_lens_gives_the_swap():
    lens = example_hyperbola_disk()
    group = symmetry_group(lens.constraints, 2)
    assert group.order == 2 and group.swap.tolist() == [1, 0]
    assert group.flips.shape == (0, 2)
    # on the rho_1 program it acts on X and Y alike; its lead Y1 Y2 is fixed
    program = rho_program(lens, 1, 3)
    assert program.group_order == 2 and program.group.swap.tolist() == [1, 0, 3, 2]


def test_cube_gives_both_sign_flips():
    cube = example_degenerate_cube()
    group = symmetry_group(cube.constraints, 2)
    assert group.order == 4 and group.swap is None
    assert span(group.flips) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for j in (1, 2):
        flips = rho_program(cube, j, 3).group.flips
        assert flips.shape == (2, 4) and np.array_equal(flips[:, :2], flips[:, 2:])


def test_flips_are_the_gf2_null_space_of_the_parities():
    # x1 x2 + x3^2 - 1: flipping x1 and x2 together, or x3, fixes it
    g = Polynomial.make(3, {(1, 1, 0): 1.0, (0, 0, 2): 1.0, (0, 0, 0): -1.0})
    group = symmetry_group([g], 3)
    assert group.order == 4
    assert span(group.flips) == {(0, 0, 0), (1, 1, 0), (0, 0, 1), (1, 1, 1)}
    for flip in span(group.flips):
        assert flipped(g, flip) == g
    assert flipped(g, (1, 0, 0)) != g


@pytest.mark.parametrize("n, r", [(4, 4), (2, 5), (6, 3), (3, 6)])
def test_relax_ladder_problem_has_no_symmetry(n, r):
    # c.x + sum x_i^4 over the unit ball, c as the benchmark draws it: each
    # x_i has an odd term and the c_i differ
    c = np.random.default_rng([0, n, r]).standard_normal(n)
    terms = {tuple(int(k == i) for k in range(n)): float(c[i]) for i in range(n)}
    terms.update({tuple(4 * int(k == i) for k in range(n)): 1.0 for i in range(n)})
    ball = {(0,) * n: 1.0}
    ball.update({tuple(2 * int(k == i) for k in range(n)): -1.0 for i in range(n)})
    polys = [Polynomial.make(n, terms), Polynomial.make(n, ball)]
    assert symmetry_group(polys, n) is None
    # the ball alone has every sign flip
    assert symmetry_group(polys[1:], n).order == 2**n


def test_a_swap_that_exchanges_constraints_is_not_used():
    # x1 - x2^2 and x2 - x1^2: the swap maps each to the other, and each
    # has a term odd in each variable
    g1 = Polynomial.make(2, {(1, 0): 1.0, (0, 2): -1.0})
    g2 = Polynomial.make(2, {(0, 1): 1.0, (2, 0): -1.0})
    assert symmetry_group([g1, g2], 2) is None
    assert rho_program(SemialgebraicSet(2, (g1, g2)), 1, 2).group is None


def test_a_swap_that_moves_the_lead_term_is_not_used():
    # the lens disk alone: the swap fixes x1 + x2 - x1^2 - x2^2, but the
    # lead Y2^2 of g_1(Y), whose multiples rho_1 cuts from its blocks from
    # d = 2 on, goes to Y1^2
    disk = SemialgebraicSet(2, (example_hyperbola_disk().constraints[1],))
    assert symmetry_group(disk.constraints, 2).order == 2
    assert rho_program(disk, 1, 1).group_order == 2  # nothing cut yet
    program = rho_program(disk, 1, 2)
    assert program.group is None and program.group_order == 1


# ---- the reduced programs -------------------------------------------------------


def reduced_cases():
    lens, cube = example_hyperbola_disk(), example_degenerate_cube()
    return [(lens, 1, 3), (lens, 1, 4), (cube, 1, 3)]


@pytest.mark.parametrize("K, j, d", reduced_cases())
def test_reduced_blocks_are_the_isotypic_parts(K, j, d):
    # with z = R w invariant, U_c' S_B(z) U_d is block c's S(w) when c = d
    # and zero otherwise, and every layer of a reduced block is symmetric
    program = rho_program(K, j, d)
    reduced, back = program._reduced()
    orbit = back["orbit"]
    w = np.random.default_rng(d).normal(size=reduced.num_moments)
    z = np.where(orbit >= 0, w[orbit], 0.0)
    for B, parts in zip(program.blocks, back["columns"]):
        S = B.apply(z)
        assert sum(U.shape[1] for _, U in parts) == B.dim
        for c, U in parts:
            part = reduced.blocks[c]
            assert np.array_equal(part.index, part.index.transpose(0, 2, 1))
            for c2, U2 in parts:
                got = U.T @ S @ U2
                want = part.apply(w) if c2 == c else 0.0 * got
                assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(S)))


@pytest.mark.parametrize("K, j, d", reduced_cases())
def test_reduced_and_full_programs_agree(K, j, d):
    program = rho_program(K, j, d)
    full = dataclasses.replace(program, group=None)
    reduced, _ = program._reduced()
    assert reduced.to_sdp()[0].num_constraints < full.to_sdp()[0].num_constraints
    sol, ref = program.solve(), full.solve()
    assert sol.is_optimal and ref.is_optimal
    assert abs(sol.value - ref.value) <= 1e-8
    # the solution is read back over the full program: moments of length s,
    # one Gram per original block, at its dimension, and PSD
    assert sol.z.shape == ref.z.shape
    assert [G.shape[0] for G in sol.gram_blocks] == program.block_dims()
    assert all(np.linalg.eigvalsh(G).min() >= -1e-7 for G in sol.gram_blocks)
    assert sol.stationarity_residual <= 1e-6


def test_lens_order_five_program_is_halved():
    program = rho_program(example_hyperbola_disk(), 1, 5)
    reduced, _ = program._reduced()
    problem, _ = reduced.to_sdp()
    assert problem.num_constraints == 255
    assert list(problem.block_dims) == [47, 44] + [29, 26] * 3
    assert program.block_dims() == [91, 55, 55, 55]


def test_invariant_moments_under_flips():
    # the cube's flips fix the parity of each variable's exponent: every
    # moment odd in x1 (on X and Y together) or in x2 is zero
    program = rho_program(example_degenerate_cube(), 1, 3)
    sol = program.solve()
    assert sol.is_optimal
    exponents = _basis(program.n, 2 * program.order)
    odd = ((exponents[:, :2] + exponents[:, 2:]) % 2).any(axis=1)
    assert np.all(sol.z[odd] == 0.0) and np.any(sol.z[~odd] != 0.0)


def test_lens_weights_pass_over_the_original_basis():
    cert = certify_convexity(example_hyperbola_disk(), recover_weights=True)
    rec = cert.records[0]
    assert rec.method == "rho_sdp" and rec.closed and rec.group_order == 2
    assert rec.weights is not None and rec.weights.rejection() is None
    program = rho_program(example_hyperbola_disk(), 1, rec.d_j)
    bases = [basis for _, basis, _ in rec.weights.grams]
    assert bases == [[tuple(a) for a in B.basis.tolist()] for B in program.blocks]


def test_records_carry_the_group_order():
    cert = certify_convexity(example_hyperbola_disk(), d_fixed={1: 3})
    rho, shortcut = cert.records
    assert rho.group_order == 2 and rho.to_json()["group_order"] == 2
    assert shortcut.method == "quadratic_concave_shortcut"
    assert shortcut.group_order == 1 and shortcut.to_json()["group_order"] == 1
