"""The benchmark's layer trace patches package names from outside.

`perfbench/layer_trace.py` wraps functions by `owner.__dict__[name]`, so a
refactor that renames or drops one of them must fail here rather than only
in a traced benchmark run.
"""

import inspect
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import unit_disk  # noqa: E402
from perfbench.layer_trace import Tracer  # noqa: E402

from momentsos import convexcert, hierarchy, moments, sos  # noqa: E402
from momentsos.hierarchy import PolyOptProblem, build_qhat  # noqa: E402
from momentsos.moments import MomentVector  # noqa: E402
from momentsos.poly import Polynomial  # noqa: E402


def test_tracer_installs_and_uninstalls():
    assert list(inspect.signature(Polynomial.eval).parameters) == ["self", "x"]
    assert isinstance(MomentVector.__dict__["from_mixture"], staticmethod)
    for module in (moments, sos, hierarchy):
        assert module.moment_matrix is moments.moment_matrix
    before = {
        "eval": Polynomial.__dict__["eval"],
        "probe": convexcert.nondegeneracy_probe,
        "slater": convexcert.slater_heuristic,
        "sampler": convexcert.sample_supporting_hyperplane,
    }

    tracer = Tracer()
    tracer.install()
    try:
        assert Polynomial.__dict__["eval"] is not before["eval"]
        assert convexcert.nondegeneracy_probe is not before["probe"]
        p = Polynomial.make(2, {(2, 0): 1.0, (0, 1): -1.0})
        assert p.eval(np.array([[1.0, 2.0], [3.0, 1.0]])).tolist() == [-1.0, 8.0]
        MomentVector.from_mixture([[0.5, 0.5]], [1.0], 1)
        snap = tracer.snapshot()
        assert snap["poly.eval_calls"] == 1
        assert snap["moments.from_mixture_s"] > 0.0
    finally:
        tracer.uninstall()

    assert Polynomial.__dict__["eval"] is before["eval"]
    assert convexcert.nondegeneracy_probe is before["probe"]
    assert convexcert.slater_heuristic is before["slater"]
    assert convexcert.sample_supporting_hyperplane is before["sampler"]


def test_traced_to_sdp_reports_stack_density():
    # the wrapped MomentSdp.to_sdp counts nonzeros through
    # SdpProblem.constraints, which must hold the matrices of the stacks
    f = Polynomial.make(
        2, {(0, 0): 2.0, (1, 0): -2.0, (0, 1): -2.0, (2, 0): 1.0, (0, 2): 1.0}
    )
    program = build_qhat(PolyOptProblem(f, unit_disk()))
    problem, _ = program.to_sdp()
    stacks = [problem.stack(k) for k in range(len(problem.block_dims))]
    nonzeros = sum(np.count_nonzero(Ab) for Ab in stacks)
    entries = sum(Ab.size for Ab in stacks)

    tracer = Tracer()
    tracer.install()
    try:
        sol = program.solve()
        snap = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert sol.is_optimal
    assert snap["sdp.calls"] == 1
    assert 0.0 < snap["compile.density"] < 1.0
    assert snap["compile.density"] == nonzeros / entries
