"""Command line interface: load a space spec, run checks or computations.

The spec file is JSON:

    {
      "schema_version": 1,
      "ring": {"kind": "Q"} | {"kind": "Fp", "p": 5}
              | {"kind": "quad", "base": {<a ring>}, "s": 1},   # s = 1 or -1
      "vars": ["x", "y", "z"],
      "metric": "euclidean" | {"diag": [...]} | {"matrix": [[...]]},
      "quotient": {"sphere": {"c": "1"}} | {"generator": "...", "q": "..."},
      "checks": ["space-form", ...],      # optional, defaults to all applicable
      "seed": 0,                          # optional
      "max_degree": 2                     # optional, 1..41 (MAX_RANDOM_DEGREE), less for
                                          # checks that read a high-degree metric or quotient
                                          # (suites.degree_cap)
    }

Each object holds only the keys shown for it; any other key exits 2 under its field.

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
from .errors import (NotAUnit, ParseError, RinehartError, TwoNotAUnit, ValidationError,
                     spec_object)
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
    except UnicodeDecodeError as exc:
        raise ValidationError("spec", f"not UTF-8: {exc}") from None
    except ValueError as exc:  # malformed JSON, or an integer past the int-string limit
        raise ValidationError("spec", f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ValidationError("spec", "JSON nested too deeply") from None


def build_workspace(spec: dict) -> tuple[Workspace, SpecMeta]:
    """Validate a parsed spec file and construct the described space."""
    spec_object("spec", spec, ("schema_version", "ring", "vars", "metric", "quotient", "checks",
                               "seed", "max_degree"))
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
    if metric_spec != "euclidean":
        if not isinstance(metric_spec, dict) or not {"diag", "matrix"} & metric_spec.keys():
            raise ValidationError("metric", "must be 'euclidean', {'diag': ...} or {'matrix': ...}")
        key = "diag" if "diag" in metric_spec else "matrix"
        rows = spec_object("metric", metric_spec, (key,))[key]
        if key == "diag":  # one parse path: a diagonal is the matrix with "0" off it
            if not isinstance(rows, list) or len(rows) != n:
                raise ValidationError("metric", f"diagonal needs {n} entries")
            rows = [[text if i == j else "0" for j in range(n)] for i, text in enumerate(rows)]
        elif (not isinstance(rows, list) or len(rows) != n
              or any(not isinstance(row, list) or len(row) != n for row in rows)):
            raise ValidationError("metric", f"matrix must be {n} x {n}")
    try:
        metric = Metric.euclidean(ring, n, None) if metric_spec == "euclidean" else Metric(tuple(
            tuple(QuotientElem(parse_poly(text, ring, names), None) for text in row)
            for row in rows))
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
            sphere = spec_object("quotient", quotient_spec, ("sphere",))["sphere"]
            if "c" not in spec_object("quotient.sphere", sphere, ("c",)):
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
            if "q" not in spec_object("quotient", quotient_spec, ("generator", "q")):
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


def _emit_field(args, space, value) -> int:
    """Print a field, or a dict of named fields, as JSON coefficient strings or as text."""
    if not isinstance(value, dict):
        sys.stdout.write(_json(command=args.command, result=_field_strings(space, value))
                         if args.json else space.format_field(value) + "\n")
    elif args.json:
        sys.stdout.write(_json(command=args.command, result={
            name: _field_strings(space, field) for name, field in value.items()}))
    else:
        width = max(map(len, value))
        sys.stdout.write("".join(f"{name.ljust(width)} = {space.format_field(field)}\n"
                                 for name, field in value.items()))
    return 0


def _parse_fields(ws: Workspace, *texts: str) -> list:
    space = ws.working_space
    vectors = [parse_vector(text, space.ring, space.var_names) for text in texts]
    if any(len(polys) != space.nvars for polys in vectors):
        raise ValidationError("field", f"expected {space.nvars} components")
    return [space.field(polys) for polys in vectors]


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
    return _emit_field(args, ws.working_space, conn(*_parse_fields(ws, args.x, args.y)))


def _cmd_curvature(ws, meta, args) -> int:
    conn = ws.connection
    space = ws.working_space
    return _emit_field(args, space,
                       curvature(space, conn, *_parse_fields(ws, args.x, args.y, args.z)))


def _cmd_gradient(ws, meta, args) -> int:
    space = ws.working_space
    return _emit_field(args, space, gradient(space, space.fn(args.f)))


def _cmd_project(ws, meta, args) -> int:
    if ws.hyper is None:
        raise ValidationError("quotient", "project needs a quotient space")
    x, = _parse_fields(ws, args.x)
    return _emit_field(args, ws.hyper.quotient, {"tangent": project_tangent(ws.hyper, x),
                                                 "normal": project_normal(ws.hyper, x)})


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rinehart",
        description="exact verification of Rinehart-space geometry over a spec file")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *operands, spanning=False):
        """A subcommand on a spec with --json, the optional --spanning and its operands."""
        p = sub.add_parser(name, help=help)
        p.add_argument("spec", help="path to a JSON space spec")
        p.add_argument("--json", action="store_true", help="machine readable output")
        if spanning:
            p.add_argument("--spanning", action="store_true",
                           help="also print the spanning tangent fields of a quotient")
        for operand in operands:
            p.add_argument(f"--{operand}", required=True, help="polynomial string" if operand == "f"
                           else "comma separated coefficient vector")
        p.set_defaults(func=func)
        return p

    p_check = command("check", _cmd_check, "run the invariant suites", spanning=True)
    p_check.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p_check.add_argument("--max-degree", type=int, default=None, dest="max_degree",
                         help="degree bound for random coefficients")
    p_sf = command("space-form", _cmd_space_form, "verify the constant-curvature identities",
                   spanning=True)
    p_sf.add_argument("--c", default=None, help="curvature constant (defaults to the sphere c)")
    command("connection", _cmd_connection, "apply the space's connection", "x", "y")
    command("curvature", _cmd_curvature, "evaluate the curvature operator", "x", "y", "z")
    command("gradient", _cmd_gradient, "gradient of a function", "f")
    command("project", _cmd_project, "tangent and normal parts of a field", "x")
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
