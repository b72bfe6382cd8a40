"""Command-line surface: problem files in, reports and JSON artifacts out.

Problem files are JSON:

    {
      "n": 2,
      "variables": ["x1", "x2"],                  # optional
      "objective": [{"exponents": [2, 0], "coeff": 1.0}, ...],
      "constraints": [[...term lists...], ...],
      "ball_bound": 1.5,                          # optional
      "options": {"r_max": 5, "d_max": 4, "tol": 1e-6, "seed": 0,
                  "d_fixed": {"1": 3}}            # optional, all keys optional
    }

Exit codes: 0 success, 2 solver failure, 3 unreadable/invalid input,
4 refusal to build an SDr without a certificate or --force override.
Human-readable tables go to stdout, diagnostics to stderr, and --out
writes the machine-readable JSON artifact. Identical inputs produce
byte-identical stdout and stderr across runs and BLAS thread counts; an
--out artifact is byte-identical across runs only, since its floats are
written at full precision and the digits below the solver's accuracy
follow the BLAS thread count.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from .convexcert import build_sdr, certify_convexity, nondegeneracy_probe
from .hierarchy import (
    HierarchyOptions,
    PolyOptProblem,
    build_qr,
    solve_hierarchy,
)
from .poly import Polynomial, PreconditionFailure, SemialgebraicSet
from .moments import MomentVector
from .sos import is_sos_convex, jensen_check, jensen_composed_check, sos_decompose


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(v: float) -> str:
    return format(float(v), ".9g")


def _emit(args, artifact: dict) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(artifact, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"artifact written to {args.out}", file=sys.stderr)


# ---- problem-file parsing ----------------------------------------------------


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(3, f"cannot read problem file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(3, f"malformed JSON: {exc}")
    if not isinstance(data, dict):
        raise CliError(3, "problem file must be a JSON object")
    return data


def _parse_n(data: dict) -> int:
    """The variable count: a JSON integer >= 1 (a bool or a float is not)."""
    if "n" not in data:
        raise CliError(3, "problem file missing 'n'")
    n = data["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CliError(3, f"'n' must be an integer >= 1, got {json.dumps(n)}")
    return n


def _parse_problem(data: dict):
    """(n, names, objective or None, set or None, options dict)."""
    n = _parse_n(data)
    names = data.get("variables")
    if names is not None and (
        not isinstance(names, list) or len(names) != n
    ):
        raise CliError(3, f"'variables' must list {n} names")
    try:
        objective = (
            Polynomial.from_json(n, data["objective"])
            if "objective" in data
            else None
        )
        constraints = tuple(
            Polynomial.from_json(n, g) for g in data.get("constraints", [])
        )
        K = (
            SemialgebraicSet(n, constraints, data.get("ball_bound"))
            if constraints or "ball_bound" in data or "constraints" in data
            else None
        )
    except (PreconditionFailure, KeyError, TypeError, ValueError) as exc:
        raise CliError(3, f"invalid problem data: {exc}")
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise CliError(3, "'options' must be an object")
    return n, names, objective, K, options


def _opt(args, options: dict, flag: str, key: str, default):
    """Flag beats the file's options block beats the default."""
    v = getattr(args, flag, None)
    if v is not None:
        return v
    return options.get(key, default)


# ---- commands ------------------------------------------------------------------


def cmd_solve(args) -> int:
    data = _load(args.file)
    n, names, objective, K, options = _parse_problem(data)
    if objective is None:
        raise CliError(3, "solve needs an 'objective'")
    if K is None:
        raise CliError(3, "solve needs 'constraints' (possibly empty) and a set")
    try:
        problem = PolyOptProblem(objective, K)
    except PreconditionFailure as exc:
        raise CliError(3, f"invalid problem: {exc}")
    r_max = int(_opt(args, options, "dmax", "r_max", 5))
    if r_max < problem.min_order():
        raise CliError(
            3,
            f"order infeasible: r_max = {r_max} below minimal admissible "
            f"order {problem.min_order()}",
        )
    hopts = HierarchyOptions(
        tol=float(_opt(args, options, "tol", "tol", 1e-6)),
        rank_tau=float(_opt(args, options, "tau", "rank_tau", 1e-6)),
        seed=int(_opt(args, options, "seed", "seed", 0)),
        archimedean_waiver=bool(options.get("archimedean_waiver", False)),
    )

    if args.dump_sdpa:
        order = args.order if args.order is not None else problem.min_order()
        try:
            sdp, _ = build_qr(problem, order).to_sdp()
        except PreconditionFailure as exc:
            raise CliError(3, f"cannot build the order-{order} SDP: {exc}")
        with open(args.dump_sdpa, "w") as fh:
            fh.write(sdp.dump_sdpa())
        print(f"SDPA dump (order {order}) written to {args.dump_sdpa}",
              file=sys.stderr)

    try:
        results = solve_hierarchy(problem, r_max=r_max, options=hopts)
    except PreconditionFailure as exc:
        raise CliError(3, f"cannot run hierarchy: {exc}")

    if names:
        print("variables: " + ", ".join(str(s) for s in names))
    print("order  kind  status              bound            exactness")
    for res in results:
        print(
            f"{res.order:^5d}  {res.kind:<4s}  {res.status:<18s}  "
            f"{_fmt(res.lower_bound):<15s}  {res.exactness}"
        )
        if res.note:
            print(f"note (order {res.order}): {res.note}", file=sys.stderr)
    exact = [res for res in results if res.exactness != "none"]
    final = exact[-1] if exact else results[-1]
    print(f"value: {_fmt(final.lower_bound)}  ({final.kind} order {final.order})")
    if exact:
        print(f"exactness: {final.exactness}")
        # a coordinate below the exactness tolerance is rounding noise whose
        # digits change with the BLAS thread count
        coords = ("0" if abs(v) < hopts.tol else _fmt(v) for v in final.minimizer)
        print("minimizer: [" + ", ".join(coords) + "]")
    else:
        print("exactness: none detected (bound only)")
    if final.dual_certificate is not None:
        cert = final.dual_certificate
        print(
            f"certificate: {len(cert.grams)} SOS multipliers, "
            f"residual {cert.residual:.3e}"
        )

    artifact = {
        "results": [
            {
                "order": res.order,
                "kind": res.kind,
                "status": res.status,
                "lower_bound": res.lower_bound,
                "exactness": res.exactness,
                "minimizer": (
                    None
                    if res.minimizer is None
                    else [float(v) for v in res.minimizer]
                ),
                "note": res.note,
            }
            for res in results
        ],
        "value": final.lower_bound,
        "exactness": final.exactness,
    }
    _emit(args, artifact)
    if not any(res.status == "optimal" for res in results):
        print("solver failed at every order", file=sys.stderr)
        return 2
    return 0


def _parse_d_fixed(options: dict) -> Optional[dict]:
    raw = options.get("d_fixed")
    if raw is None:
        return None
    try:
        return {int(k): int(v) for k, v in raw.items()}
    except (AttributeError, TypeError, ValueError) as exc:
        raise CliError(3, f"invalid d_fixed: {exc}")


def _run_certification(args, K: SemialgebraicSet, options: dict):
    try:
        return certify_convexity(
            K,
            d_max=int(_opt(args, options, "dmax", "d_max", 4)),
            tol=float(_opt(args, options, "tol", "tol", 1e-6)),
            d_fixed=_parse_d_fixed(options),
            seed=int(_opt(args, options, "seed", "seed", 0)),
            slater_waiver=bool(options.get("slater_waiver", False)),
        )
    except PreconditionFailure as exc:
        raise CliError(3, f"cannot certify: {exc}")


def cmd_certify(args) -> int:
    data = _load(args.file)
    _, names, _, K, options = _parse_problem(data)
    if K is None or K.m == 0:
        raise CliError(3, "certify needs at least one constraint")
    cert = _run_certification(args, K, options)

    if cert.status == "certified_numerically":
        print(f"status: certified numerically at tolerance {cert.tolerance:g}")
    elif cert.status == "refuted_by_sample":
        print("status: refuted by a sampled hyperplane violation")
    else:
        print("status: inconclusive")
    print(" j   d_j  method                      rho_j            closed")
    for rec in cert.records:
        if np.isnan(rec.rho_j):
            rho = "-"
        elif rec.closed and rec.method == "rho_sdp":
            # a closed value is below the tolerance, where its digits are
            # rounding noise that changes with the BLAS thread count
            rho = f"|rho|<={cert.tolerance:g}"
        elif rec.note.startswith("stall-band solve"):
            # the stall band (2e-6) determines about six digits
            rho = format(float(rec.rho_j), ".6g")
        else:
            rho = _fmt(rec.rho_j)
        print(
            f"{rec.j:^3d}  {rec.d_j:^3d}  {rec.method:<26s}  {rho:<15s}  "
            f"{'yes' if rec.closed else 'no'}"
        )
        if rec.note:
            print(f"note (j={rec.j}): {rec.note}", file=sys.stderr)
    if cert.degenerate_flags:
        flagged = ", ".join(f"g{j}" for j in cert.degenerate_flags)
        print(f"DEGENERATE boundary gradient: {flagged} "
              "(hyperplane test may hold vacuously there)")
    else:
        print("degenerate boundary: none detected")
    if cert.refutation is not None:
        ref = cert.refutation
        print(
            f"witness pair (j={ref['j']}): x={ref['x']} y={ref['y']} "
            f"violation={_fmt(ref['violation'])}"
        )
    _emit(args, cert.to_json())
    if any("solver status" in rec.note for rec in cert.records):
        return 2
    return 0


def cmd_sdr(args) -> int:
    data = _load(args.file)
    _, _, _, K, options = _parse_problem(data)
    if K is None or K.m == 0:
        raise CliError(3, "sdr needs at least one constraint")
    if args.force:
        if args.order is None:
            raise CliError(3, "--force requires an explicit --order")
        try:
            sdr = build_sdr(K, d=int(args.order))
        except PreconditionFailure as exc:
            raise CliError(3, f"cannot build lift: {exc}")
        print(f"override: lift built at order {sdr.d} without certification")
    else:
        try:
            cert = _run_certification(args, K, options)
        except CliError as exc:
            raise CliError(4, f"refusing to build SDr: {exc}") from exc
        if cert.status != "certified_numerically":
            print(
                f"refusing to build SDr: certification status {cert.status!r} "
                "(rerun with --force and --order to override)",
                file=sys.stderr,
            )
            return 4
        sdr = build_sdr(K, cert)
        print(
            f"certified numerically at tolerance {cert.tolerance:g}; "
            f"lift order {sdr.d}"
        )
    print(f"lift dimension: {sdr.lift_dimension} moments")
    print("blocks: " + ", ".join(f"{b.label} {b.dim}x{b.dim}" for b in sdr.blocks))
    _emit(args, sdr.to_json())
    return 0


def cmd_jensen(args) -> int:
    data = _load(args.file)
    n = _parse_n(data)
    try:
        f = Polynomial.from_json(n, data["f"])
        yd = data["y"]
        y = MomentVector(n, int(yd["order"]), np.array(yd["values"], dtype=float))
        g = Polynomial.from_json(n, data["g"]) if "g" in data else None
    except (PreconditionFailure, KeyError, TypeError, ValueError) as exc:
        raise CliError(3, f"invalid jensen input: {exc}")
    try:
        if g is not None:
            report = jensen_composed_check(f, g, y)
            print("composed check: L_y(f(g(X))) vs f(L_y(g(X)))")
        else:
            report = jensen_check(f, y)
            print("check: L_y(f) vs f(L_y(X))")
    except PreconditionFailure as exc:
        raise CliError(3, f"jensen preconditions failed: {exc}")
    verdict = "HOLDS" if report.holds else "FAILS"
    print(f"{_fmt(report.lhs)} ≥ {_fmt(report.rhs)} : {verdict}")
    _emit(args, {"lhs": report.lhs, "rhs": report.rhs, "holds": report.holds})
    return 0


def cmd_sos_check(args) -> int:
    data = _load(args.file)
    n, _, objective, _, _ = _parse_problem(data)
    if objective is None:
        raise CliError(3, "sos-check needs an 'objective'")
    dec = sos_decompose(objective)
    artifact = {"sos": {"status": dec.status}}
    if dec.status == "sos":
        (_, basis, _), = dec.witness.grams
        residual = dec.witness.residual
        print(f"sum of squares: yes (residual {residual:.3e}, "
              f"basis size {len(basis)})")
        artifact["sos"]["residual"] = residual
    elif dec.status == "infeasible":
        print("sum of squares: no (pseudo-moment separation found)")
    else:
        print(f"sum of squares: undecided (solver status {dec.status})",
              file=sys.stderr)
        # the partial artifact, as solve and certify write theirs on exit 2
        _emit(args, artifact)
        return 2
    conv = is_sos_convex(objective)
    artifact["sos_convex"] = {"status": conv.status}
    code = 0
    if conv.status == "sos_convex":
        print("sos-convex: yes")
    elif conv.status == "not_sos_convex":
        print(f"sos-convex: no ({conv.reason})")
    else:
        print(f"sos-convex: undecided (solver status {conv.status})",
              file=sys.stderr)
        code = 2
    _emit(args, artifact)
    return code


def cmd_probe(args) -> int:
    data = _load(args.file)
    _, _, _, K, options = _parse_problem(data)
    if K is None or K.m == 0:
        raise CliError(3, "probe needs at least one constraint")
    try:
        reports = nondegeneracy_probe(
            K, seed=int(_opt(args, options, "seed", "seed", 0))
        )
    except PreconditionFailure as exc:
        raise CliError(3, f"cannot probe: {exc}")
    print(" j   boundary samples  min ||grad g_j||   flag")
    for rep in reports:
        mn = "-" if rep.min_gradient_norm is None else _fmt(rep.min_gradient_norm)
        if rep.degenerate:  # below the threshold the norm is rounding noise
            mn = f"< {rep.degenerate_below:g}"
        flag = "DEGENERATE" if rep.degenerate else (rep.note or "ok")
        print(f"{rep.j:^3d}  {rep.boundary_samples:^16d}  {mn:<17s}  {flag}")
    _emit(args, {"probe": [rep.to_json() for rep in reports]})
    return 0


# ---- argument parsing -----------------------------------------------------------


# every flag a command may take; each command registers only those it reads
FLAGS = {
    "--order": dict(type=int, help="explicit relaxation/lift order"),
    "--dmax": dict(type=int, help="maximum certification/relaxation order"),
    "--tol": dict(type=float, help="closure tolerance"),
    "--tau": dict(type=float, help="relative rank threshold for flatness"),
    "--seed": dict(type=int, help="seed for all sampling flows"),
    "--out": dict(help="write the JSON artifact to this path"),
    "--force": dict(action="store_true", help="build the SDr without a certificate"),
    "--dump-sdpa": dict(help="write the relaxation SDP in SDPA format"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentsos",
        description="moment/SOS relaxations, convexity certificates, SDr lifts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="JSON problem file")
        for flag, spec in FLAGS.items():
            if flag in flags + ("--out",):
                p.add_argument(flag, **spec)
        p.set_defaults(func=func)

    add("solve", cmd_solve, "run the relaxation hierarchy on min f over K",
        "--order", "--dmax", "--tol", "--tau", "--seed", "--dump-sdpa")
    add("certify", cmd_certify, "per-constraint convexity certification",
        "--dmax", "--tol", "--seed")
    add("sdr", cmd_sdr, "build the semidefinite lift of a certified set",
        "--order", "--dmax", "--tol", "--seed", "--force")
    add("jensen", cmd_jensen, "check L_y(f) >= f(L_y(X)) for a moment vector")
    add("sos-check", cmd_sos_check, "SOS and SOS-convexity decomposition")
    add("probe", cmd_probe, "boundary nondegeneracy probe", "--seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # solve reads --order only as the order of the SDP it dumps
    if args.command == "solve" and args.order is not None and not args.dump_sdpa:
        parser.error("argument --order: solve takes it only with --dump-sdpa")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
