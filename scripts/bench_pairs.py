#!/usr/bin/env python3
"""Run perfbench in alternating parent/change pairs and summarise the runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload space-form-sweep \
        --pairs 10 --seed 1000 --seconds 35 --out BENCH.json

PARENT_DIR and CHANGE_DIR are two checkouts.  Pair i runs
`python3 perfbench/run.py --workload W --seed SEED+i --seconds S --trace 0`
once from the root of each, one run at a time; the parent runs first in
even pairs and the change in odd ones.  The output file keeps, per
workload, every run's raw last-line JSON with its seed and side, and per
end-to-end metric the median and quartiles (`statistics.quantiles`, n = 4)
of each side and the number of pairs the change won.  A metric's direction
and bound come from BENCHMARK.json in CHANGE_DIR.  `gain` is true when the
change won at least 9 in 10 pairs and its median beats the parent's by more
than the parent's quartile spread q3 - q1; `within_bound` is true when the
change's median is no worse than the parent's by more than the bound, a
fraction of the parent's median.  An existing output file is updated: the
workload's entry is replaced and the others are kept.  After the runs, one
line per end-to-end metric on stderr gives both medians, the pairs won out
of the pairs run, `gain` and `within_bound`.  The script exits 1, after
writing the file, when any run is not correct or failed an operation.

Both checkouts must hold compiled bytecode (`src/rinehart/__pycache__`)
or neither: a compiled side skips compiling rinehart inside `setup_s`.
The script exits 2 when exactly one of them does.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{root}: perfbench exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, declared: list) -> dict:
    """The summary per end-to-end metric of BENCHMARK.json, each a dict with
    `name`, `better` and `bound`."""
    side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    out = {}
    for metric in declared:
        name, direction = metric["name"], metric["better"]
        sign = 1 if direction == "higher" else -1  # > 0 where the change is better
        values = {s: [r["result"]["metrics"][name]["value"] for r in rs] for s, rs in side.items()}
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        gained = sign * (change["median"] - parent["median"])
        out[name] = {"better": direction, "parent": parent, "change": change,
                     "change_won_pairs": wins, "pairs": len(values["change"]),
                     "gain": 10 * wins >= 9 * len(values["change"])
                     and gained > parent["q3"] - parent["q1"],
                     "within_bound": gained >= -metric["bound"] * parent["median"]}
    out["failed"] = {s: sum(r["result"]["failed"] for r in rs) for s, rs in side.items()}
    out["attempted"] = {s: sum(r["result"]["attempted"] for r in rs) for s, rs in side.items()}
    return out


def summary_line(name: str, metric: dict) -> str:
    """One metric's summary as a line: both medians, the pairs won, `gain` and `within_bound`."""
    return (f"{name}: parent {metric['parent']['median']:.4g}, change "
            f"{metric['change']['median']:.4g}, won {metric['change_won_pairs']}/"
            f"{metric['pairs']}, gain {metric['gain']}, within_bound {metric['within_bound']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")
    compiled = [side for side in ("parent", "change")
                if (getattr(args, side) / "src" / "rinehart" / "__pycache__").is_dir()]
    if len(compiled) == 1:
        parser.error(f"only the {compiled[0]} checkout holds src/rinehart/__pycache__, which"
                     " shortens its setup_s; remove it or compile both checkouts")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(getattr(args, side).resolve(), args.workload, seed, args.seconds)
            runs.append({"pair": i, "seed": seed, "side": side, "first": side == order[0],
                         "result": result})
            print(f"pair {i} seed {seed} {side}: "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    report = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    summary = summarise(runs, declared)
    report["workloads"][args.workload] = {"seconds": args.seconds, "runs": runs, "summary": summary}
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for metric in declared:
        print(summary_line(metric["name"], summary[metric["name"]]), file=sys.stderr)
    return 0 if all(r["result"]["correct"] and not r["result"]["failed"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
