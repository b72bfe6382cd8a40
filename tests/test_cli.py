"""End-to-end checks of the command-line surface.

Commands run in-process through cli.main so exit codes and report text can
be asserted without a subprocess round trip; only the BLAS thread-count
check starts subprocesses, since the thread count is fixed when numpy loads.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from momentsos import cli
from momentsos.convexcert import SdrRepresentation


def term(c, *e):
    return {"exponents": list(e), "coeff": c}


DISK = {
    "n": 2,
    "variables": ["x1", "x2"],
    "objective": [
        term(2.0, 0, 0), term(-2.0, 1, 0), term(-2.0, 0, 1),
        term(1.0, 2, 0), term(1.0, 0, 2),
    ],
    "constraints": [
        [term(1.0, 0, 0), term(-1.0, 2, 0), term(-1.0, 0, 2)],
    ],
    "ball_bound": 1.5,
}

LENS = {
    "n": 2,
    "constraints": [
        [term(1.0, 1, 1), term(-0.25, 0, 0)],
        [term(1.0, 1, 0), term(1.0, 0, 1), term(-1.0, 2, 0), term(-1.0, 0, 2)],
    ],
    "ball_bound": 2.0,
    "options": {"d_fixed": {"1": 3}},
}

LENS_UNPINNED = {k: v for k, v in LENS.items() if k != "options"}

# both hyperbola branches: nonconvex, refutable by a sampled pair
BRANCHES = {
    "n": 2,
    "constraints": [
        [term(1.0, 1, 1), term(-0.25, 0, 0)],
        [term(9.0, 0, 0), term(-1.0, 2, 0), term(-1.0, 0, 2)],
    ],
    "ball_bound": 3.0,
}

# g1 = (1 - x1^2 + x2^2)^3 vanishes to second order on its boundary
CUBE = {
    "n": 2,
    "constraints": [
        [
            term(1.0, 0, 0), term(-3.0, 2, 0), term(3.0, 0, 2),
            term(3.0, 4, 0), term(-6.0, 2, 2), term(3.0, 0, 4),
            term(-1.0, 6, 0), term(3.0, 4, 2), term(-3.0, 2, 4),
            term(1.0, 0, 6),
        ],
        [term(10.0, 0, 0), term(-1.0, 2, 0), term(-1.0, 0, 2)],
    ],
    "ball_bound": 4.0,
}

QUARTIC = {
    "n": 1,
    "objective": [term(1.0, 4)],
    "constraints": [[term(1.0, 0)]],
    "ball_bound": 1.0,
}

JENSEN_OK = {
    "n": 1,
    "f": [term(1.0, 2)],
    "y": {"order": 2, "values": [1.0, 0.0, 1.0, 0.0, 3.0]},
}

SQUARE = {"n": 1, "objective": [term(1.0, 0), term(2.0, 1), term(1.0, 2)]}

MOTZKIN = {
    "n": 2,
    "objective": [
        term(1.0, 4, 2), term(1.0, 2, 4), term(1.0, 0, 0), term(-3.0, 2, 2),
    ],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv, capsys):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---- solve ----


def test_solve_disk_report(tmp_path, capsys):
    prob = write(tmp_path, "disk.json", DISK)
    out_path = tmp_path / "report.json"
    code, out, _ = run(["solve", prob, "--out", str(out_path)], capsys)
    assert code == 0
    assert "sos_convex_single_shot" in out
    assert "0.1715728" in out  # 3 - 2*sqrt(2)
    assert "0.70710" in out

    art = json.loads(out_path.read_text())
    assert abs(art["value"] - (3 - 2 * math.sqrt(2))) <= 1e-6
    assert art["results"][0]["kind"] == "qhat"
    assert art["results"][0]["status"] == "optimal"
    mins = art["results"][0]["minimizer"]
    assert np.allclose(mins, [1 / math.sqrt(2)] * 2, atol=1e-4)
    # artifact survives a serialization round trip unchanged
    assert json.loads(json.dumps(art)) == art


def test_solve_missing_file(capsys):
    code, _, err = run(["solve", "/nonexistent/prob.json"], capsys)
    assert code == 3
    assert "cannot read" in err


def test_solve_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    code, _, err = run(["solve", str(path)], capsys)
    assert code == 3
    assert "malformed JSON" in err


def test_solve_rejects_duplicate_monomials(tmp_path, capsys):
    bad = dict(DISK)
    bad["objective"] = [term(1.0, 2, 0), term(2.0, 2, 0)]
    prob = write(tmp_path, "dup.json", bad)
    code, _, err = run(["solve", prob], capsys)
    assert code == 3
    assert "invalid problem data" in err


def test_solve_order_infeasible(tmp_path, capsys):
    prob = write(tmp_path, "quartic.json", QUARTIC)
    code, _, err = run(["solve", prob, "--dmax", "0"], capsys)
    assert code == 3
    assert "order infeasible" in err


@pytest.mark.parametrize("n", ["two", None, 0, -1, 1.5, True])
@pytest.mark.parametrize("command", ["solve", "certify", "probe", "sos-check"])
def test_rejects_bad_variable_count(tmp_path, capsys, command, n):
    # n must be a JSON integer >= 1: no coercion of strings, floats or bools
    bad = {
        "n": n,
        "objective": [term(1.0, 0)],
        "constraints": [[term(1.0, 0)]],
    }
    prob = write(tmp_path, "bad_n.json", bad)
    code, out, err = run([command, prob], capsys)
    assert code == 3
    assert f"error: 'n' must be an integer >= 1, got {json.dumps(n)}" in err
    assert out == ""


def test_dump_sdpa_rejects_inadmissible_order(tmp_path, capsys):
    prob = write(tmp_path, "disk.json", DISK)
    dump = tmp_path / "q0.dat-s"
    code, out, err = run(
        ["solve", prob, "--dump-sdpa", str(dump), "--order", "0"], capsys
    )
    assert code == 3
    assert err.startswith("error: cannot build the order-0 SDP:")
    assert out == "" and not dump.exists()


def test_solve_needs_objective(tmp_path, capsys):
    prob = write(tmp_path, "noobj.json", LENS)
    code, _, err = run(["solve", prob], capsys)
    assert code == 3
    assert "objective" in err


# ---- certify ----


def test_certify_lens_report(tmp_path, capsys):
    prob = write(tmp_path, "lens.json", LENS)
    out_path = tmp_path / "cert.json"
    code, out, _ = run(["certify", prob, "--out", str(out_path)], capsys)
    assert code == 0
    assert "certified numerically at tolerance 1e-06" in out
    assert "rho_sdp" in out
    assert "quadratic_concave_shortcut" in out
    assert "convex" not in out.lower().replace("certified numerically", "")

    # the closed rho_sdp row prints the bound that closed it, not the value,
    # whose digits below the tolerance are rounding noise
    rows = [ln.split() for ln in out.splitlines() if "rho_sdp" in ln]
    assert rows == [["1", "3", "rho_sdp", "|rho|<=1e-06", "yes"]]

    art = json.loads(out_path.read_text())
    rec1, rec2 = art["records"]
    assert rec1["d_j"] == 3 and abs(rec1["rho_j"]) <= 1e-6 and rec1["closed"]
    assert rec2["method"] == "quadratic_concave_shortcut"
    assert json.loads(json.dumps(art)) == art


def test_certify_cube_prints_degenerate(tmp_path, capsys):
    prob = write(tmp_path, "cube.json", CUBE)
    code, out, _ = run(["certify", prob, "--dmax", "3"], capsys)
    assert code == 0
    assert "DEGENERATE" in out
    assert "g1" in out
    assert "inconclusive" in out


def test_certify_branch_pair_reports_witness(tmp_path, capsys):
    prob = write(tmp_path, "branches.json", BRANCHES)
    code, out, _ = run(["certify", prob, "--dmax", "1"], capsys)
    assert code == 0
    assert "refuted by a sampled hyperplane violation" in out
    assert "witness pair" in out


def test_certify_needs_constraints(tmp_path, capsys):
    prob = write(tmp_path, "none.json", {"n": 1})
    code, _, err = run(["certify", prob], capsys)
    assert code == 3
    assert "constraint" in err


@pytest.mark.parametrize("command, code", [("certify", 3), ("sdr", 4)])
def test_pin_outside_constraints_rejected(tmp_path, capsys, command, code):
    bad = dict(LENS_UNPINNED, options={"d_fixed": {"5": 3}, "d_max": 2})
    prob = write(tmp_path, "lens_pin5.json", bad)
    got, out, err = run([command, prob], capsys)
    assert got == code
    assert "d_fixed keys j in 1..m: j = 5, m = 2" in err
    assert out == ""


# ---- sdr ----


def test_sdr_refuses_without_certificate(tmp_path, capsys):
    prob = write(tmp_path, "branches.json", BRANCHES)
    code, _, err = run(["sdr", prob, "--dmax", "1"], capsys)
    assert code == 4
    assert "refusing" in err


def test_sdr_emits_lift_json(tmp_path, capsys):
    prob = write(tmp_path, "lens.json", LENS)
    out_path = tmp_path / "sdr.json"
    code, out, _ = run(["sdr", prob, "--out", str(out_path)], capsys)
    assert code == 0
    assert "lift dimension: 28" in out

    art = json.loads(out_path.read_text())
    assert art["lift_dimension"] == 28
    assert [b["label"] for b in art["blocks"]] == [
        "moment", "localizing[1]", "localizing[2]",
    ]
    rebuilt = SdrRepresentation.from_json(art)
    assert rebuilt.d == 3 and rebuilt.lift_dimension == 28


def test_sdr_force_requires_order(tmp_path, capsys):
    prob = write(tmp_path, "lens.json", LENS)
    code, _, err = run(["sdr", prob, "--force"], capsys)
    assert code == 3
    assert "--order" in err


def test_sdr_forced_override(tmp_path, capsys):
    prob = write(tmp_path, "branches.json", BRANCHES)
    code, out, _ = run(["sdr", prob, "--force", "--order", "2"], capsys)
    assert code == 0
    assert "override" in out
    assert "lift dimension: 15" in out


# ---- jensen ----


def test_jensen_fixture_holds(tmp_path, capsys):
    prob = write(tmp_path, "jensen.json", JENSEN_OK)
    code, out, _ = run(["jensen", prob], capsys)
    assert code == 0
    assert "1 ≥ 0 : HOLDS" in out


def test_jensen_writes_artifact(tmp_path, capsys):
    prob = write(tmp_path, "jensen.json", JENSEN_OK)
    out_path = tmp_path / "jensen_report.json"
    code, _, _ = run(["jensen", prob, "--out", str(out_path)], capsys)
    assert code == 0
    assert json.loads(out_path.read_text()) == {"holds": True, "lhs": 1.0, "rhs": 0.0}


def test_jensen_rejects_inadmissible_moments(tmp_path, capsys):
    bad = dict(JENSEN_OK)
    bad["y"] = {"order": 2, "values": [1.0, 0.0, -1.0, 0.0, 3.0]}
    prob = write(tmp_path, "jensen_bad.json", bad)
    code, _, err = run(["jensen", prob], capsys)
    assert code == 3
    assert "PSD" in err


def test_jensen_rejects_wrong_length(tmp_path, capsys):
    bad = dict(JENSEN_OK)
    bad["y"] = {"order": 2, "values": [1.0, 0.0, 1.0]}
    prob = write(tmp_path, "jensen_short.json", bad)
    code, _, _ = run(["jensen", prob], capsys)
    assert code == 3


# ---- sos-check ----


def test_sos_check_square(tmp_path, capsys):
    prob = write(tmp_path, "square.json", SQUARE)
    code, out, _ = run(["sos-check", prob], capsys)
    assert code == 0
    assert "sum of squares: yes" in out
    assert "sos-convex: yes" in out


def test_sos_check_motzkin(tmp_path, capsys):
    prob = write(tmp_path, "motzkin.json", MOTZKIN)
    code, out, _ = run(["sos-check", prob], capsys)
    assert code == 0
    assert "sum of squares: no" in out


# ---- probe ----


def test_probe_prints_degenerate_row(tmp_path, capsys):
    prob = write(tmp_path, "cube.json", CUBE)
    out_path = tmp_path / "probe.json"
    code, out, _ = run(["probe", prob, "--out", str(out_path)], capsys)
    assert code == 0
    assert "DEGENERATE" in out
    lines = [ln for ln in out.splitlines() if ln.strip().startswith("2")]
    assert lines and "ok" in lines[0]
    # the degenerate row prints the threshold that flagged it, not the
    # sampled norm, whose digits there are rounding noise
    flagged = [ln for ln in out.splitlines() if "DEGENERATE" in ln]
    assert len(flagged) == 1
    assert flagged[0].split()[2:] == ["<", "1e-06", "DEGENERATE"]
    assert "e-1" not in out
    # the artifact keeps the sampled value
    rep = json.loads(out_path.read_text())["probe"][0]
    assert rep["degenerate"] and 0.0 <= rep["min_gradient_norm"] < 1e-6


# ---- flags ----

# the flags each command reads; every other flag is a usage error
READS = {
    "solve": {"--order", "--dmax", "--tol", "--tau", "--seed", "--dump-sdpa", "--out"},
    "certify": {"--dmax", "--tol", "--seed", "--out"},
    "sdr": {"--order", "--dmax", "--tol", "--seed", "--force", "--out"},
    "jensen": {"--out"},
    "sos-check": {"--out"},
    "probe": {"--seed", "--out"},
}
FLAG_VALUES = {
    "--order": ["2"], "--dmax": ["2"], "--tol": ["1e-6"], "--tau": ["1e-6"],
    "--seed": ["1"], "--dump-sdpa": ["q.dat-s"], "--out": ["a.json"], "--force": [],
}


@pytest.mark.parametrize("command", sorted(READS))
def test_flags_per_command(command, capsys):
    parser = cli.build_parser()
    for flag, value in FLAG_VALUES.items():
        argv = [command, "problem.json", flag, *value]
        if flag in READS[command]:
            assert parser.parse_args(argv).func.__name__.startswith("cmd_")
            continue
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# ---- determinism and SDPA dump ----


def test_reports_byte_identical(tmp_path, capsys):
    prob = write(tmp_path, "lens.json", LENS_UNPINNED)
    first = run(["certify", prob, "--seed", "7"], capsys)
    second = run(["certify", prob, "--seed", "7"], capsys)
    assert first == second

    disk = write(tmp_path, "disk.json", DISK)
    runs = [run(["solve", disk], capsys) for _ in range(2)]
    assert runs[0] == runs[1]


def test_dump_sdpa(tmp_path, capsys):
    prob = write(tmp_path, "disk.json", DISK)
    d1, d2 = tmp_path / "a.dat-s", tmp_path / "b.dat-s"
    code, _, err = run(["solve", prob, "--dump-sdpa", str(d1)], capsys)
    assert code == 0
    assert "SDPA dump" in err
    run(["solve", prob, "--dump-sdpa", str(d2)], capsys)
    text = d1.read_text()
    assert text == d2.read_text()
    # header: number of free moment entries, then block structure
    lines = text.splitlines()
    assert int(lines[0]) == 5
    assert int(lines[1]) >= 1


def test_reports_identical_across_blas_threads(tmp_path):
    # BLAS picks its thread count when numpy loads, so each run is a fresh
    # interpreter; the reports must not depend on it
    src = str(Path(cli.__file__).resolve().parents[1])
    jobs = [
        ["certify", write(tmp_path, "lens.json", LENS)],
        # rho_1 from a stall-band solve, printed to the digits it determines
        ["certify", write(tmp_path, "branches.json", BRANCHES)],
        ["solve", write(tmp_path, "disk.json", DISK)],
        # the minimizer 0 is found as rounding noise around it
        ["solve", write(tmp_path, "quartic.json", QUARTIC)],
    ]
    for argv in jobs:
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads
            )
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p
            )
            proc = subprocess.run(
                [sys.executable, "-m", "momentsos.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
