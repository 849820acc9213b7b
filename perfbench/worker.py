"""One child interpreter of the benchmark: runs one job and prints its result.

    python3 perfbench/worker.py JOB.json

The job is a JSON object with a `mode`:

* `check`: `rinehart check --json SPEC` through `rinehart.cli.main`, with
  the import of rinehart and `load_spec`/`build_workspace` timed as set-up;
* `sweep`: `make_sphere` (set-up) then `verify_space_form` per item;
* `sweep-controls`: untimed; verifies each item again with a wrong c (a
  negative control that must fail) and prints the spanning fields and one
  curvature triple of the sampled items for the sympy oracle.

With `"trace": true` the per-layer tracer is installed after the import.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

clock = time.perf_counter


def _timed(fn, box):
    def timed(*args, **kwargs):
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            box[0] += clock() - start
    return timed


def peak_rss_kib() -> int:
    """This interpreter's own peak resident set since exec, in KiB.

    `ru_maxrss` would also count the parent's pages from before exec.
    """
    with open("/proc/self/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _tracer(job):
    if not job.get("trace"):
        return None
    import tracing
    return tracing.install()


def run_check(job) -> dict:
    start = clock()
    import rinehart.cli as cli
    import_s = clock() - start
    tracer = _tracer(job)
    setup = [0.0]
    cli.load_spec = _timed(cli.load_spec, setup)
    cli.build_workspace = _timed(cli.build_workspace, setup)
    buf = io.StringIO()
    error = ""
    start = clock()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(["check", "--json", job["spec_path"]])
        except Exception:  # an uncaught error ends `rinehart check` with exit 1
            code, error = 1, traceback.format_exc()
    main_s = clock() - start
    return {"exit": code, "error": error, "import_s": import_s, "setup_s": setup[0],
            "verify_s": main_s - setup[0], "report": buf.getvalue(),
            "trace": tracer.snapshot() if tracer else None}


def _build(rinehart, item):
    ring = rinehart.ring_from_json(item["ring"])
    c = rinehart.parse_scalar(item["c"], ring)
    return ring, c, rinehart.make_sphere(ring, item["n"], c, var_names=item["names"])


def run_sweep(job) -> dict:
    start = clock()
    import rinehart
    import_s = clock() - start
    tracer = _tracer(job)
    items = []
    for item in job["items"]:
        start = built = clock()
        try:
            _, c, hyper = _build(rinehart, item)
            built = clock()
            ok, error = rinehart.verify_space_form(hyper, c).ok, "identity fails"
        except Exception:  # a program fault fails this item, not the run
            ok, error = False, traceback.format_exc()
        done = clock()
        items.append({"ok": ok, "error": "" if ok else error, "setup_s": built - start,
                      "verify_s": done - built})
    return {"import_s": import_s, "items": items,
            "trace": tracer.snapshot() if tracer else None}


def run_sweep_controls(job) -> dict:
    import rinehart
    wrong_rejected = []
    samples = []
    for index, item in enumerate(job["items"]):
        ring, c, hyper = _build(rinehart, item)
        try:
            rejected = not rinehart.verify_space_form(hyper, c + ring.one()).ok
        except Exception:  # only a clean "not verified" is a rejection
            rejected = False
        wrong_rejected.append(rejected)
        triple = job["samples"].get(str(index))
        if triple is None:
            continue
        space = hyper.quotient
        fields = rinehart.spanning_fields(hyper)
        conn = rinehart.InducedConnection(hyper)
        i, j, k = triple
        value = rinehart.curvature(space, conn, fields[i], fields[j], fields[k])
        samples.append({"index": index, "triple": triple,
                        "spanning": [[space.format_fn(a) for a in f.coeffs] for f in fields],
                        "curvature": [space.format_fn(a) for a in value.coeffs]})
    return {"wrong_c_rejected": wrong_rejected, "samples": samples}


MODES = {"check": run_check, "sweep": run_sweep, "sweep-controls": run_sweep_controls}


def main(argv) -> int:
    with open(argv[1], "r", encoding="utf-8") as handle:
        job = json.load(handle)
    result = MODES[job["mode"]](job)
    result["rss_kib"] = peak_rss_kib()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
