"""Command line interface: load a space spec, run checks or computations.

The spec file is JSON:

    {
      "schema_version": 1,
      "ring": {"kind": "Q"} | {"kind": "Fp", "p": 5}
              | {"kind": "quad", "base": {...}, "s": 1},
      "vars": ["x", "y", "z"],
      "metric": "euclidean" | {"diag": [...]} | {"matrix": [[...]]},
      "quotient": {"sphere": {"c": "1"}} | {"generator": "...", "q": "..."},
      "checks": ["space-form", ...],      # optional, defaults to all applicable
      "seed": 0,                          # optional
      "max_degree": 2                     # optional, 1..41 (MAX_RANDOM_DEGREE), less for
                                          # checks that read a high-degree metric or quotient
                                          # (suites.degree_cap)
    }

Exit codes: 0 all requested checks pass (or the computation succeeded),
1 at least one check failed, 2 validation or computation error.
`--json` reports are deterministic: identical spec, seed and engine version
give byte-identical output.  The text `check` report adds per-check seconds.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .errors import NotAUnit, ParseError, RinehartError, TwoNotAUnit, ValidationError
from .hypersurface import (HypersurfaceSpace, make_sphere, project_normal,
                           project_tangent, spanning_fields, verify_space_form)
from .parse import parse_poly, parse_scalar, parse_vector
from .poly import QuotientElem
from .rings import Value, ring_from_json
from .space import RinehartSpace, curvature, gradient
from .suites import (CHECK_NAMES, MAX_RANDOM_DEGREE, CheckResult, Workspace,
                     applicable_checks, degree_cap, run_checks)
from .tensors import Metric, VectorField


class SpecMeta(Value):
    """The run settings of a spec: checks (a list or None), seed and max_degree."""

    _fields = ("checks", "seed", "max_degree")


def _identifier_ok(name: str) -> bool:
    if not name or name == "al":
        return False
    if not (name[0].isalpha() or name[0] == "_"):
        return False
    return all(ch.isalnum() or ch == "_" for ch in name)


def load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError("spec", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError("spec", f"invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValidationError("spec", f"not UTF-8: {exc}") from None
    except RecursionError:
        raise ValidationError("spec", "JSON nested too deeply") from None


def build_workspace(spec: dict) -> tuple[Workspace, SpecMeta]:
    """Validate a parsed spec file and construct the described space."""
    if not isinstance(spec, dict):
        raise ValidationError("spec", "top level must be an object")
    version = spec.get("schema_version", 1)
    if version != 1:
        raise ValidationError("schema_version", f"unsupported version {version!r}")

    try:
        ring = ring_from_json(spec.get("ring"))
    except ValueError as exc:
        raise ValidationError("ring", str(exc)) from None

    names = spec.get("vars")
    if (not isinstance(names, list) or not names
            or any(not isinstance(v, str) or not _identifier_ok(v) for v in names)):
        raise ValidationError("vars", "must be a nonempty list of identifiers ('al' is reserved)")
    if len(set(names)) != len(names):
        raise ValidationError("vars", "variable names must be distinct")
    names = tuple(names)
    n = len(names)

    metric_spec = spec.get("metric", "euclidean")
    try:
        if metric_spec == "euclidean":
            metric = Metric.euclidean(ring, n, None)
        elif isinstance(metric_spec, dict) and "diag" in metric_spec:
            if "matrix" in metric_spec:
                raise ValidationError("metric", "holds both 'diag' and 'matrix'")
            if not isinstance(metric_spec["diag"], list) or len(metric_spec["diag"]) != n:
                raise ValidationError("metric", f"diagonal needs {n} entries")
            diag = [QuotientElem(parse_poly(text, ring, names), None)
                    for text in metric_spec["diag"]]
            metric = Metric.diagonal(diag)
        elif isinstance(metric_spec, dict) and "matrix" in metric_spec:
            rows = metric_spec["matrix"]
            if (not isinstance(rows, list) or len(rows) != n
                    or any(not isinstance(row, list) or len(row) != n for row in rows)):
                raise ValidationError("metric", f"matrix must be {n} x {n}")
            metric = Metric(tuple(
                tuple(QuotientElem(parse_poly(text, ring, names), None) for text in row)
                for row in rows))
        else:
            raise ValidationError("metric", "must be 'euclidean', {'diag': ...} or {'matrix': ...}")
    except (ParseError, ValueError) as exc:
        raise ValidationError("metric", str(exc)) from None

    space = RinehartSpace.with_metric(ring, names, metric)

    hyper = None
    c_scalar = None
    quotient_spec = spec.get("quotient")
    if quotient_spec is not None:
        if not isinstance(quotient_spec, dict):
            raise ValidationError("quotient", "must be an object")
        if "sphere" in quotient_spec:
            if "generator" in quotient_spec:
                raise ValidationError("quotient", "holds both 'sphere' and 'generator'")
            sphere = quotient_spec["sphere"]
            if not isinstance(sphere, dict) or "c" not in sphere:
                raise ValidationError("quotient.sphere", "needs a 'c' scalar string")
            if not metric.is_euclidean():
                raise ValidationError("metric", "sphere quotients need the euclidean metric")
            try:
                c_scalar = parse_scalar(str(sphere["c"]), ring)
            except (ParseError, ValueError) as exc:
                raise ValidationError("quotient.sphere.c", str(exc)) from None
            try:
                hyper = make_sphere(ring, n, c_scalar, var_names=names)
            except (NotAUnit, TwoNotAUnit, ValueError) as exc:
                field = {TwoNotAUnit: "ring", NotAUnit: "quotient.sphere.c"}
                raise ValidationError(field.get(type(exc), "vars"), str(exc)) from None
            space = hyper.ambient
        elif "generator" in quotient_spec:
            if "q" not in quotient_spec:
                raise ValidationError("quotient.q", "generator quotients need a witness 'q'")
            try:
                gen = parse_poly(quotient_spec["generator"], ring, names)
                q = parse_poly(quotient_spec["q"], ring, names)
                hyper = HypersurfaceSpace.build(space, gen, QuotientElem(q, None))
            except (RinehartError, ValueError) as exc:
                raise ValidationError("quotient", str(exc)) from None
        else:
            raise ValidationError("quotient", "must contain 'sphere' or 'generator'")

    checks = spec.get("checks")
    if checks is not None:
        if not isinstance(checks, list) or any(not isinstance(c, str) for c in checks):
            raise ValidationError("checks", "must be a list of check names")
        unknown = sorted(set(checks) - set(CHECK_NAMES))
        if unknown:
            raise ValidationError("checks", f"unknown checks: {', '.join(unknown)}")

    seed = _run_setting("seed", spec.get("seed", 0))
    max_degree = _run_setting("max_degree", spec.get("max_degree", 2))
    workspace = Workspace(space=space, hyper=hyper, c=c_scalar)
    return workspace, SpecMeta(checks, seed, max_degree)


def _run_setting(name: str, value) -> int:
    """Validate `seed` or `max_degree`, from the spec or from its flag."""
    if name == "seed":
        ok, message = type(value) is int and value >= 0, "must be a nonnegative integer"
    else:
        ok = type(value) is int and 1 <= value <= MAX_RANDOM_DEGREE
        message = f"must be an integer in 1..{MAX_RANDOM_DEGREE}"
    if not ok:
        raise ValidationError(name, message)
    return value


# ---------------------------------------------------------------------------
# output helpers


def _json(**payload) -> str:
    """A JSON document of the CLI: the payload with both versions, sorted keys, indent 2
    and a trailing newline, so equal payloads give equal bytes."""
    return json.dumps({"schema_version": 1, "engine_version": __version__, **payload},
                      indent=2, sort_keys=True) + "\n"


def _report_json(results, extra: Optional[dict] = None) -> str:
    return _json(checks=[{"name": r.name, "status": r.status, "detail": r.detail,
                          "counterexample": r.counterexample} for r in results], **(extra or {}))


def _report_text(results) -> str:
    lines = []
    width = max((len(r.name) for r in results), default=0)
    for r in results:
        tag = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}[r.status]
        lines.append(f"{tag}  {r.name.ljust(width)}  {r.detail} ({r.seconds:.2f}s)")
        if r.counterexample:
            for key in sorted(r.counterexample):
                lines.append(f"      {key} = {r.counterexample[key]}")
    counts = (sum(r.status == s for r in results) for s in ("pass", "fail", "skipped"))
    lines.append("{} passed, {} failed, {} skipped".format(*counts))
    return "\n".join(lines) + "\n"


def _field_strings(space, field: VectorField) -> list:
    return [space.format_fn(c) for c in field.coeffs]


def _emit_report(ws: Workspace, args, results) -> None:
    spanning = args.spanning and ws.hyper is not None
    space = ws.working_space
    fields = spanning_fields(ws.hyper) if spanning else []
    if args.json:
        extra = {"spanning": [_field_strings(space, f) for f in fields]} if spanning else None
        sys.stdout.write(_report_json(results, extra))
    else:
        sys.stdout.write("".join(f"Y{i + 1} = {space.format_field(f)}\n"
                                 for i, f in enumerate(fields)) + _report_text(results))


def _emit_field(args, space, value: VectorField) -> int:
    if args.json:
        sys.stdout.write(_json(command=args.command, result=_field_strings(space, value)))
    else:
        sys.stdout.write(space.format_field(value) + "\n")
    return 0


def _parse_field(ws: Workspace, text: str) -> VectorField:
    space = ws.working_space
    polys = parse_vector(text, space.ring, space.var_names)
    if len(polys) != space.nvars:
        raise ValidationError("field", f"expected {space.nvars} components")
    return space.field(polys)


# ---------------------------------------------------------------------------
# commands


def _cmd_check(ws, meta, args) -> int:
    seed = meta.seed if args.seed is None else _run_setting("seed", args.seed)
    max_degree = (meta.max_degree if args.max_degree is None
                  else _run_setting("max_degree", args.max_degree))
    cap = degree_cap(ws, meta.checks)
    if max_degree > cap:
        raise ValidationError("max_degree", f"must be an integer in 1..{cap} for these checks"
                              if cap >= 1 else "the metric and quotient degrees of these "
                              "checks leave no room below total degree 127")
    results = run_checks(ws, names=meta.checks, seed=seed, max_degree=max_degree)
    _emit_report(ws, args, results)
    return 1 if any(r.status == "fail" for r in results) else 0


def _cmd_space_form(ws, meta, args) -> int:
    if "space-form" not in applicable_checks(ws):
        raise ValidationError("quotient", "space-form needs a sphere quotient")
    c = ws.c if args.c is None else parse_scalar(args.c, ws.space.ring)
    report = verify_space_form(ws.hyper, c)
    status = "pass" if report.ok else "fail"
    if report.ok:
        detail = f"space form of curvature c = {c} verified"
    elif report.failed == "curvature":
        detail = "constant curvature identity fails"
    else:
        detail = f"{report.failed} identity fails"
    results = [CheckResult("space-form", status, detail, report.counterexample, 0.0)]
    _emit_report(ws, args, results)
    return 0 if report.ok else 1


def _cmd_connection(ws, meta, args) -> int:
    conn = ws.connection
    x = _parse_field(ws, args.x)
    y = _parse_field(ws, args.y)
    return _emit_field(args, ws.working_space, conn(x, y))


def _cmd_curvature(ws, meta, args) -> int:
    conn = ws.connection
    space = ws.working_space
    x = _parse_field(ws, args.x)
    y = _parse_field(ws, args.y)
    z = _parse_field(ws, args.z)
    return _emit_field(args, space, curvature(space, conn, x, y, z))


def _cmd_gradient(ws, meta, args) -> int:
    space = ws.working_space
    return _emit_field(args, space, gradient(space, space.fn(args.f)))


def _cmd_project(ws, meta, args) -> int:
    if ws.hyper is None:
        raise ValidationError("quotient", "project needs a quotient space")
    x = _parse_field(ws, args.x)
    space = ws.hyper.quotient
    tangent = project_tangent(ws.hyper, x)
    normal = project_normal(ws.hyper, x)
    if args.json:
        sys.stdout.write(_json(command="project", result={
            "tangent": _field_strings(space, tangent), "normal": _field_strings(space, normal)}))
    else:
        sys.stdout.write(f"tangent = {space.format_field(tangent)}\n"
                         f"normal  = {space.format_field(normal)}\n")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rinehart",
        description="exact verification of Rinehart-space geometry over a spec file")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="path to a JSON space spec")
        p.add_argument("--json", action="store_true", help="machine readable output")

    def spanning(p):
        p.add_argument("--spanning", action="store_true",
                       help="also print the spanning tangent fields of a quotient")

    p_check = sub.add_parser("check", help="run the invariant suites")
    common(p_check)
    spanning(p_check)
    p_check.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_check.add_argument("--max-degree", type=int, default=None, dest="max_degree",
                         help="degree bound for random coefficients")
    p_check.set_defaults(func=_cmd_check)

    p_sf = sub.add_parser("space-form", help="verify the constant-curvature identities")
    common(p_sf)
    spanning(p_sf)
    p_sf.add_argument("--c", default=None, help="curvature constant (defaults to the sphere c)")
    p_sf.set_defaults(func=_cmd_space_form)

    p_conn = sub.add_parser("connection", help="apply the space's connection")
    common(p_conn)
    p_conn.add_argument("--x", required=True, help="comma separated coefficient vector")
    p_conn.add_argument("--y", required=True, help="comma separated coefficient vector")
    p_conn.set_defaults(func=_cmd_connection)

    p_curv = sub.add_parser("curvature", help="evaluate the curvature operator")
    common(p_curv)
    p_curv.add_argument("--x", required=True)
    p_curv.add_argument("--y", required=True)
    p_curv.add_argument("--z", required=True)
    p_curv.set_defaults(func=_cmd_curvature)

    p_grad = sub.add_parser("gradient", help="gradient of a function")
    common(p_grad)
    p_grad.add_argument("--f", required=True, help="polynomial string")
    p_grad.set_defaults(func=_cmd_gradient)

    p_proj = sub.add_parser("project", help="tangent and normal parts of a field")
    common(p_proj)
    p_proj.add_argument("--x", required=True)
    p_proj.set_defaults(func=_cmd_project)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        spec = load_spec(args.spec)
        ws, meta = build_workspace(spec)
        return args.func(ws, meta, args)
    except RinehartError as exc:
        sys.stderr.write(f"error[{type(exc).__name__}]: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
