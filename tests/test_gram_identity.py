"""GramIdentity: the one certificate type of SOS witnesses, Putinar
certificates and rho_j weights, its JSON form and its acceptance rule."""

import json

import numpy as np
import pytest

from momentsos.convexcert import certify_convexity
from momentsos.hierarchy import (
    PolyOptProblem,
    build_qhat,
    build_qr,
    recover_dual_certificate,
)
from momentsos.poly import Polynomial, SemialgebraicSet
from momentsos.sos import GramIdentity, is_sos_convex, sos_decompose

from helpers import example_hyperbola_disk, unit_disk


def round_trip(identity):
    data = json.loads(json.dumps(identity.to_json()))
    back = GramIdentity.from_json(data)
    assert back.to_json() == data
    assert back.residual == identity.residual
    assert back.rejection() == identity.rejection()
    return back


def sos_witness():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return sos_decompose((x1 * x2 - 1.0) ** 2 + (x1 + 0.5 * x2) ** 2).witness


def hessian_witness():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return is_sos_convex(x1**4 + (x1 - x2) ** 4).witness


def quadratic_hessian_witness():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return is_sos_convex(x1 * x1 + x1 * x2 + x2 * x2 + x1).witness


def putinar_certificate():
    x = Polynomial.variable(1, 0)
    K = SemialgebraicSet(1, (1.0 - x * x,), ball_bound=1.0)
    prob = PolyOptProblem(x, K)
    return recover_dual_certificate(prob, build_qr(prob, 1).solve(), 1)


def qhat_certificate():
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    prob = PolyOptProblem((x1 - 1.0) ** 2 + (x2 - 1.0) ** 2, unit_disk())
    q = build_qhat(prob)
    return recover_dual_certificate(prob, q.solve(), q.order, kind="qhat")


def rho_shortcut_weights():
    return certify_convexity(unit_disk(), recover_weights=True).records[0].weights


def rho_sdp_weights():
    cert = certify_convexity(example_hyperbola_disk(), recover_weights=True)
    assert cert.records[0].method == "rho_sdp"
    return cert.records[0].weights


@pytest.mark.parametrize(
    "build",
    [
        sos_witness,
        hessian_witness,
        quadratic_hessian_witness,
        putinar_certificate,
        qhat_certificate,
        rho_shortcut_weights,
        rho_sdp_weights,
    ],
)
def test_json_round_trip(build):
    identity = build()
    assert identity is not None
    assert identity.rejection() is None
    back = round_trip(identity)
    assert back.bound == identity.bound
    assert len(back.grams) == len(identity.grams)
    for (w, basis, G), (w0, basis0, G0) in zip(back.grams, identity.grams):
        assert w == w0 and basis == basis0
        np.testing.assert_array_equal(G, G0)
    assert back.free == identity.free


def test_from_json_recomputes_residual_and_rejects_a_perturbed_gram():
    x = Polynomial.variable(1, 0)
    witness = sos_decompose((x + 1.0) ** 2).witness
    data = json.loads(json.dumps(witness.to_json()))
    data["residual"] = 0.5
    assert GramIdentity.from_json(data).residual == witness.residual

    # 2^-20 on the X^2 entry: residual 2^-20 against 1e-7 (1 + 4)
    data["grams"][0][2][1][1] += 2.0**-20
    back = GramIdentity.from_json(data)
    assert back.residual == pytest.approx(2.0**-20, rel=1e-6)
    assert back.rejection() == f"residual {back.residual:.3e}"


def test_gram_gate_is_absolute():
    # min eig -2.3e-7 at scale 92: a gate of -1e-7 (1 + max|G|) would pass it
    G = np.diag([92.0, -2.3e-7])
    one = Polynomial.constant(1, 1.0)
    target = Polynomial.make(1, {(0,): 92.0, (2,): -2.3e-7})
    identity = GramIdentity(target, 0.0, [(one, [(0,), (1,)], G)])
    assert identity.residual == 0
    assert -2.3e-7 >= -1e-7 * (1.0 + 92.0)
    assert identity.rejection() == "Gram block 0 not PSD (min eig -2.300e-07)"


def test_putinar_residual_gate():
    # X + 1 = (1 + X)^2 / 2 + (1 - X^2) / 2, so lambda* = -1 on [-1, 1]
    x = Polynomial.variable(1, 0)
    grams = [
        (Polynomial.constant(1, 1.0), [(0,), (1,)], np.full((2, 2), 0.5)),
        (1.0 - x * x, [(0,)], np.array([[0.5]])),
    ]
    exact = GramIdentity(x, -1.0, grams)
    assert exact.residual == 0 and exact.rejection() is None
    # a bound 1e-6 too high: relative residual 5e-7, accepted by a 1e-6 gate
    shifted = GramIdentity(x, -1.0 + 1e-6, grams)
    assert shifted.residual / (1.0 + x.l1_norm()) == pytest.approx(5e-7)
    assert shifted.rejection() == f"residual {shifted.residual:.3e}"
