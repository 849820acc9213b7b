#!/usr/bin/env python3
"""Count the bytecodes one benchmark round executes, in two checkouts.

    python3 scripts/opcount.py PARENT_DIR CHANGE_DIR --workload koszul-metric --seed 3

For each checkout, one fresh interpreter with `PYTHONPATH=<checkout>/src`
imports `rinehart.cli` and then counts the `sys.settrace` opcode events of
round 0 of the workload's seeded inputs, built by `perfbench/inputs.py` of
this script's checkout: `rinehart check --json` on each spec of
`quotient-check` and `koszul-metric`, `make_sphere` and `verify_space_form`
on each item of `space-form-sweep`.  The import is not counted.  The script
prints one JSON line with both counts, the relative change
(change - parent) / parent and each child's peak resident set size
(`VmHWM`, `parent_rss_kib` and `change_rss_kib`), which moves where the
counts cannot; like the counts, the sizes are printed and never judged.  On one interpreter version the count does not
depend on the machine's load or the hash seed, so a change of a few tenths
of a percent shows where wall time cannot.  The children write no
bytecode, so neither checkout gains a `__pycache__`.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("quotient-check", "space-form-sweep", "koszul-metric")

# The child reads its job from stdin and prints {"opcodes": N, "rss_kib": its VmHWM}.
CHILD = r"""
import contextlib, io, json, sys
job = json.load(sys.stdin)
import rinehart.cli as cli
import rinehart

count = 0


def on_event(frame, event, arg):
    global count
    frame.f_trace_opcodes = True
    if event == "opcode":
        count += 1
    return on_event


def run():
    if job["mode"] == "check":
        for path in job["specs"]:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["check", "--json", path])
        return
    for item in job["items"]:
        ring = rinehart.ring_from_json(item["ring"])
        c = rinehart.parse_scalar(item["c"], ring)
        rinehart.verify_space_form(rinehart.make_sphere(ring, item["n"], c, item["names"]), c)


sys.settrace(on_event)
run()
sys.settrace(None)
with open("/proc/self/status", encoding="ascii") as status:
    rss = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps({"opcodes": count, "rss_kib": rss}))
"""


def load_inputs():
    path = ROOT / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def round_zero(workload: str, seed: int, folder: Path) -> dict:
    """The child's job for round 0 of a workload; check specs are written to `folder`."""
    inputs = load_inputs()
    if workload == "space-form-sweep":
        return {"mode": "sweep",
                "items": [item for _, items in inputs.sweep_inputs(seed) for item in items]}
    ops = (inputs.quotient_inputs(seed, 0) if workload == "quotient-check"
           else inputs.koszul_inputs(seed, 0))
    return {"mode": "check", "specs": write_specs([op["spec"] for op in ops], folder)}


def write_specs(specs: list, folder: Path) -> list:
    paths = []
    for index, spec in enumerate(specs):
        path = folder / f"spec-{index}.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        paths.append(str(path))
    return paths


def count(checkout: Path, job: dict) -> dict:
    """{"opcodes", "rss_kib"}: the opcode events of `job` in a fresh interpreter running
    `checkout`'s package, and that interpreter's peak resident set size in KiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD], input=json.dumps(job), env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: the counting child exited {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="opcount-") as folder:
        job = round_zero(args.workload, args.seed, Path(folder))
        parent, change = count(args.parent, job), count(args.change, job)
    ops = parent["opcodes"], change["opcodes"]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "parent": ops[0],
                      "change": ops[1], "relative": (ops[1] - ops[0]) / ops[0],
                      "parent_rss_kib": parent["rss_kib"], "change_rss_kib": change["rss_kib"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
