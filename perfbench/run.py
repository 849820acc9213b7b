#!/usr/bin/env python3
"""rinehart benchmark: exact-verification workloads, timed from outside.

    python3 perfbench/run.py --workload quotient-check --seed 1 --seconds 30 --trace 0

Run from the repository root.  One process drives the load and runs at
most one child interpreter at a time.  A run repeats whole rounds of the
workload's operations, each operation in a fresh interpreter, while the
next round is expected to end within `--seconds`.  After the timed rounds
it checks sampled outputs with sympy, runs the negative controls, and
prints one JSON object as its last line: the end-to-end metrics with
`--trace 0`, the per-layer metrics of one traced round with `--trace 1`.
End-to-end times are taken at the speed of a fixed reference computation
that runs between the children (reference.py), because the machine's own
speed drifts.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 170
# one reference slice per this many seconds of timed child, about 10 % extra
REF_EVERY_S = 0.8
WORKLOADS = ("quotient-check", "space-form-sweep", "koszul-metric")


class BenchError(Exception):
    """The benchmark itself cannot run here."""


# ---------------------------------------------------------------------------
# child processes


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list) -> dict:
    """Run one interpreter to its end and time it from outside."""
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                              errors="replace", cwd=ROOT, env=_env(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv} ran longer than {CHILD_TIMEOUT_S} s") from exc
    return {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "wall_s": time.perf_counter() - start}


class Pace:
    """The machine's speed around each timed child, from the reference.

    The reference runs in the gap before the first child and in the gap
    after every child, about once per REF_EVERY_S of the child's wall time
    and at least twice.  A child's scale is NOMINAL_S over the mean of the
    median reference times of the gaps on either side of it.
    """

    def __init__(self):
        self.scales: list = []
        self.last = self._gap(2)

    @staticmethod
    def _gap(slices: int) -> float:
        return statistics.median(reference.measure() for _ in range(slices))

    def scale_after(self, wall_s: float) -> float:
        before, self.last = self.last, self._gap(max(2, round(wall_s / REF_EVERY_S)))
        self.scales.append(2 * reference.NOMINAL_S / (before + self.last))
        return self.scales[-1]


def run_worker(job: dict, name: str, pace: Pace = None) -> tuple:
    """Run a worker job; with `pace`, the child's scale is `child["scale"]`."""
    path = WORK / f"{name}.job.json"
    path.write_text(json.dumps(job), encoding="utf-8")
    child = run_child([str(HERE / "worker.py"), str(path)])
    child["scale"] = pace.scale_after(child["wall_s"]) if pace else 1.0
    if child["code"] != 0:
        raise BenchError(f"worker {name} exited {child['code']}: {child['stderr'].strip()[-2000:]}")
    return child, json.loads(child["stdout"].strip().splitlines()[-1])


def rinehart_cli(args: list) -> dict:
    return run_child(["-m", "rinehart"] + args)


# ---------------------------------------------------------------------------
# workloads: one round each


def _detail_ints(name: str, detail: str) -> list:
    if name == "space-form":
        detail = detail.split(" at c =")[0]
    return [int(x) for x in re.findall(r"\d+", detail)]


def judge_report(op: dict, report: dict) -> tuple:
    """(why the operation failed or '', identity instances) for a check report."""
    by_name = {c["name"]: c for c in report["checks"]}
    if sorted(by_name) != sorted(op["checks"]):
        return f"report lists {sorted(by_name)}", 0
    instances = 0
    for name in op["checks"]:
        check = by_name[name]
        want = "skipped" if name in op["skips"] else "pass"
        if check["status"] != want:
            return f"{name}: status {check['status']}, expected {want}", 0
        if want == "skipped":
            continue
        count, shown = inputs.check_instances(name, op["n"])
        if _detail_ints(name, check["detail"]) != shown:
            return f"{name}: detail {check['detail']!r} does not show {shown}", 0
        instances += count
    return "", instances


def check_round(ops: list, trace: bool, tag: str, pace) -> list:
    records = []
    for index, op in enumerate(ops):
        job = {"mode": "check", "spec_path": str(op["spec_path"]), "trace": trace}
        child, result = run_worker(job, f"{tag}-{index}", pace)
        why, instances = "", 0
        if result["exit"] != 0:
            why = f"exit code {result['exit']}: {result['error']}"
        else:
            why, instances = judge_report(op, json.loads(result["report"]))
        records.append({"label": op["label"], "why": why, "instances": instances,
                        "scale": child["scale"], "wall_s": child["wall_s"],
                        "rss_kib": result["rss_kib"],
                        "setup_s": result["import_s"] + result["setup_s"],
                        "verify_s": result["verify_s"], "trace": result["trace"]})
    return records


def sweep_round(groups: list, trace: bool, tag: str, pace) -> list:
    """One interpreter per ring, each verifying that ring's items in order."""
    records = []
    for label, items in groups:
        child, result = run_worker({"mode": "sweep", "items": items, "trace": trace},
                                   f"{tag}-{label}", pace)
        for index, (item, res) in enumerate(zip(items, result["items"])):
            first = index == 0
            records.append({
                "label": item["label"],
                "why": "" if res["ok"] else f"not verified: {res['error']}",
                "instances": inputs.space_form_instances(item["n"]) if res["ok"] else 0,
                "scale": child["scale"],
                # the interpreter start and import belong to the ring's first item
                "wall_s": child["wall_s"] if first else 0.0,
                "rss_kib": result["rss_kib"],
                "setup_s": res["setup_s"] + (result["import_s"] if first else 0.0),
                "verify_s": res["verify_s"], "trace": result["trace"] if first else None})
    return records


def distinct_pair_triple(rng: random.Random, n: int) -> list:
    """Indices (i, j, k) with i != j; R(Y_i, Y_i) Y_k is 0 on both sides."""
    i, j = rng.sample(range(n), 2)
    return [i, j, rng.randrange(n)]


def space_form_status(stdout: str):
    """The status of the one check in a `space-form --json` report, or None."""
    try:
        checks = json.loads(stdout)["checks"]
    except (ValueError, KeyError, TypeError):
        return None
    return checks[0].get("status") if len(checks) == 1 else None


class Workload:
    """The inputs of one workload and seed.

    Check workloads draw fresh specs for every round, so a run averages over
    more random cases; the sweep has no random inputs and repeats one list.
    The oracle samples the operations of round 0.
    """

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.rng = random.Random(f"{name}:oracle:{seed}")
        if name == "space-form-sweep":
            self.groups = inputs.sweep_inputs(seed)
            self.items = [item for _, items in self.groups for item in items]
        else:
            self.ops = self.check_ops(0)

    def check_ops(self, round_no: int) -> list:
        ops = (inputs.quotient_inputs(self.seed, round_no) if self.name == "quotient-check"
               else inputs.koszul_inputs(self.seed, round_no))
        for index, op in enumerate(ops):
            op["spec_path"] = WORK / f"{self.name}-{round_no}-{index}.json"
            op["spec_path"].write_text(json.dumps(op["spec"], indent=2), encoding="utf-8")
        return ops

    def round(self, round_no: int, trace: bool, tag: str, pace) -> list:
        if self.name == "space-form-sweep":
            return sweep_round(self.groups, trace, tag, pace)
        ops = self.ops if round_no == 0 else self.check_ops(round_no)
        return check_round(ops, trace, tag, pace)

    # -- untimed correctness checks ---------------------------------------------

    def verify(self) -> list:
        """Run the oracle and the negative controls.

        Returns (operation label, problem) pairs; a problem the oracle cannot
        pin on one operation carries the label None.
        """
        import oracle

        if self.name == "quotient-check":
            return self._verify_quotient(oracle)
        if self.name == "koszul-metric":
            return self._verify_koszul(oracle)
        return self._verify_sweep(oracle)

    def _verify_quotient(self, oracle) -> list:
        problems = []
        for op in self.ops:
            spec = op["spec"]
            names, c = spec["vars"], op["c"]
            triple = distinct_pair_triple(self.rng, 3)
            fields = [
                ", ".join(("1 - " if i == k else "-") + f"({c})*{names[i]}*{names[k]}"
                          for k in range(3))
                for i in triple]
            out = rinehart_cli(["curvature", str(op["spec_path"]), "--json",
                                "--x", fields[0], "--y", fields[1], "--z", fields[2]])
            if out["code"] != 0:
                problems.append((op["label"], f"curvature exited {out['code']}"))
            else:
                printed = json.loads(out["stdout"])["result"]
                why = oracle.check_sphere_curvature(spec["ring"], names, c, triple, printed)
                if why:
                    problems.append((op["label"], why))
            # negative control: the wrong curvature constant must be refused
            # by a failed check, not by a crash, which also exits 1
            wrong = rinehart_cli(["space-form", str(op["spec_path"]), "--json",
                                  "--c", f"({c}) + 1"])
            if wrong["code"] != 1 or space_form_status(wrong["stdout"]) != "fail":
                problems.append((op["label"], f"space-form --c ({c}) + 1 was not refused: "
                                 f"exit {wrong['code']}, {wrong['stderr'].strip()[-500:]}"))
        return problems

    def _verify_koszul(self, oracle) -> list:
        problems = []
        for op in self.ops:
            spec, n = op["spec"], op["n"]
            why = oracle.check_det_one(spec["ring"], spec["vars"], op["gram"])
            if why:
                problems.append((op["label"], why))
            pairs = [(i, j) for i in range(n) for j in range(n)]
            for i, j in self.rng.sample(pairs, 3):
                basis = [", ".join("1" if m == a else "0" for m in range(n)) for a in (i, j)]
                out = rinehart_cli(["connection", str(op["spec_path"]), "--json",
                                    "--x", basis[0], "--y", basis[1]])
                if out["code"] != 0:
                    problems.append((op["label"], f"connection exited {out['code']}"))
                    continue
                printed = json.loads(out["stdout"])["result"]
                why = oracle.check_christoffel(spec["ring"], spec["vars"], op["gram"], (i, j),
                                               printed)
                if why:
                    problems.append((op["label"], why))
        return problems

    def _verify_sweep(self, oracle) -> list:
        # one sampled item per ring label, at a seeded dimension and triple
        samples = {}
        by_ring: dict = {}
        for index, item in enumerate(self.items):
            by_ring.setdefault(item["label"].split()[0], []).append(index)
        for indices in by_ring.values():
            index = self.rng.choice(indices)
            n = self.items[index]["n"]
            samples[str(index)] = distinct_pair_triple(self.rng, n)
        _, result = run_worker({"mode": "sweep-controls", "items": self.items,
                                "samples": samples}, "sweep-controls")
        problems = [(item["label"], "a wrong c was accepted")
                    for item, ok in zip(self.items, result["wrong_c_rejected"]) if not ok]
        for sample in result["samples"]:
            item = self.items[sample["index"]]
            why = oracle.check_sphere_curvature(item["ring"], item["names"], item["c"],
                                                sample["triple"],
                                                sample["curvature"], sample["spanning"])
            if why:
                problems.append((item["label"], why))
        if len(result["samples"]) != len(samples):
            problems.append((None, "sweep controls returned too few samples"))
        return problems


# ---------------------------------------------------------------------------
# metrics


def round_totals(records: list) -> dict:
    """Sums over a round, each time taken at its child's scale."""
    def total(key):
        return sum(r[key] * r["scale"] for r in records)

    return {"wall_s": total("wall_s"), "setup_s": total("setup_s"),
            "verify_s": total("verify_s"),
            "instances": sum(r["instances"] for r in records)}


def end_to_end(rounds: list, pace: Pace) -> dict:
    """The end-to-end metrics, with every time taken at the reference speed.

    A child's times are multiplied by its scale from `pace`: a second
    measured while the machine ran at 0.8 of its nominal speed counts as
    0.8 s.
    """
    sys.stderr.write(f"perfbench: {len(pace.scales)} children, median scale "
                     f"{statistics.median(pace.scales):.3f}\n")
    totals = [round_totals(r) for r in rounds]
    verify = sum(t["verify_s"] for t in totals)
    # a median over rounds, so that a faster program, which fits more rounds
    # in a run, does not get more chances at a high peak
    rss = statistics.median(max(r["rss_kib"] for r in records) for records in rounds)
    return {
        "identities_per_s": {"value": sum(t["instances"] for t in totals) / verify,
                             "unit": "identities/s"},
        "wall_s": {"value": statistics.median(t["wall_s"] for t in totals), "unit": "s"},
        "setup_s": {"value": statistics.median(t["setup_s"] for t in totals), "unit": "s"},
        "peak_rss_mib": {"value": rss / 1024.0, "unit": "MiB"},
    }


def per_layer(plain: list, traced: list) -> dict:
    merged = tracing.merge(r["trace"] for r in traced if r["trace"] is not None)
    out = {name: {"value": value, "unit": unit}
           for name, (value, unit) in tracing.layer_metrics(merged).items()}
    # a traced run has no reference, so every scale is 1 and these are raw seconds
    overhead = round_totals(traced)["wall_s"] - round_totals(plain)["wall_s"]
    out["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return out


# ---------------------------------------------------------------------------


def check_layout():
    if not (ROOT / "src" / "rinehart" / "__init__.py").is_file():
        raise BenchError(f"no rinehart sources under {ROOT / 'src'}; run from the repository root")
    # the oracle needs sympy; import it only after timing, to keep it out of
    # the memory of the children this process starts
    if importlib.util.find_spec("sympy") is None:
        raise BenchError("sympy is required for the correctness oracle")


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The reference then runs where the children run; on a shared virtual
    machine two CPUs can drift apart in speed.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> dict:
    check_layout()
    WORK.mkdir(exist_ok=True)
    pin_to_one_cpu()
    workload = Workload(args.workload, args.seed)
    warm = run_child(["-c", "import rinehart.cli"])  # compile bytecode outside timing
    if warm["code"] != 0:
        raise BenchError(f"cannot import rinehart: {warm['stderr'].strip()[-2000:]}")

    if args.trace:
        plain = workload.round(0, False, "plain", None)
        traced = workload.round(0, True, "traced", None)
        rounds = [plain, traced]
    else:
        pace = Pace()
        rounds = []
        start = time.perf_counter()
        while True:
            rounds.append(workload.round(len(rounds), False, f"round{len(rounds)}", pace))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > args.seconds:
                break

    oracle_says: dict = {}
    for label, why in workload.verify():
        oracle_says.setdefault(label, why)
    records = [r for records in rounds for r in records]
    for r in records:
        if not r["why"] and r["label"] in oracle_says:
            r["why"] = oracle_says[r["label"]]
    failed = [r for r in records if r["why"]]
    for r in failed:
        sys.stderr.write(f"FAILED {r['label']}: {r['why']}\n")
    metrics = per_layer(*rounds) if args.trace else end_to_end(rounds, pace)
    return {"correct": None not in oracle_says, "attempted": len(records),
            "failed": len(failed), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
