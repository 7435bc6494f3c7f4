"""Paired benchmark runs of two revisions, written as ``BENCH_<n>.json``.

Each revision is exported with ``git archive`` into its own directory, and
``benchmark/run.py --trace 0`` runs from each export's root, so both sides
run their own committed sources at the benchmark's own run length. The runs alternate within each pair (base
first on even pairs, head first on odd ones) so that a drifting machine
affects both sides alike. Usage::

    python tools/bench_pairs.py --base 9ed422e --head HEAD \\
        --plan long-history:5001-5010 --plan serve:5021-5025 \\
        --out BENCH_10.json

Each ``--plan`` names a workload and an inclusive range of seeds, one pair
per seed. The summary gives, per workload and end-to-end metric, the median
and quartiles of each side, the head/base ratio of the medians, and the
number of pairs in which the head was better. Each side also records the
line count of its ``src/eventqa`` Python files. If a run fails, the runs
made so far are still written, with the failed run's workload, seed, side,
exit code and the end of its stderr under ``failed_run``, and the exit
status is 1.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = 2   # 2: each side records ``src_lines``
SIDES = ("base", "head")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric: both sides' quartiles, the ratio of the
    medians and the pairs the head won. ``better`` maps each end-to-end
    metric to "higher" or "lower"."""
    pairs: dict[str, dict[int, dict]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(
            run["seed"], {})[run["side"]] = run["result"]
    summary: dict = {}
    for workload, by_seed in sorted(pairs.items()):
        complete = [p for _, p in sorted(by_seed.items()) if set(p) >= set(SIDES)]
        rows = {"pairs": len(complete),
                "all_correct": all(p[s]["correct"] and not p[s]["failed"]
                                   for p in complete for s in SIDES),
                "metrics": {}}
        for metric, direction in better.items():
            values = {s: [p[s]["metrics"][metric]["value"] for p in complete]
                      for s in SIDES}
            sign = 1.0 if direction == "higher" else -1.0
            wins = sum(sign * (h - b) > 0
                       for b, h in zip(values["base"], values["head"]))
            base, head = quartiles(values["base"]), quartiles(values["head"])
            rows["metrics"][metric] = {
                "better": direction, "base": base, "head": head,
                "ratio": head["median"] / base["median"], "wins": int(wins)}
        summary[workload] = rows
    return summary


def validate(doc: dict) -> None:
    """Raise ValueError unless ``doc`` is a complete BENCH document whose
    summary is what its runs give."""
    for key in ("schema", "command", "machine", "base", "head", "better",
                "runs", "summary"):
        if key not in doc:
            raise ValueError(f"BENCH document lacks {key!r}")
    if doc["schema"] not in (1, SCHEMA):
        raise ValueError(f"unknown BENCH schema {doc['schema']!r}")
    for side in SIDES:
        if not doc[side].get("commit"):
            raise ValueError(f"{side} has no commit id")
        if doc["schema"] >= 2 and not isinstance(doc[side].get("src_lines"),
                                                 int):
            raise ValueError(f"{side} has no src/eventqa line count")
    for key in ("nproc", "numpy", "blas", "thread_env"):
        if key not in doc["machine"]:
            raise ValueError(f"machine info lacks {key!r}")
    for run in doc["runs"]:
        if run["side"] not in SIDES or set(run["result"]["metrics"]) != \
                set(doc["better"]):
            raise ValueError(f"malformed run {run.get('workload')} "
                             f"{run.get('seed')} {run.get('side')}")
    if summarize(doc["runs"], doc["better"]) != doc["summary"]:
        raise ValueError("summary does not match the runs")


def machine_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version",
                                              "openblas configuration")},
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS}}


def export(rev: str, into: Path) -> str:
    """Extract the tree of ``rev`` into ``into``; returns its commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=ROOT, check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def src_lines(checkout: Path) -> int:
    """Lines in the checkout's ``src/eventqa`` Python files, as ``wc -l``
    counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (checkout / "src" / "eventqa").rglob("*.py"))


class RunFailed(Exception):
    """A benchmark run that exited with a non-zero status."""

    def __init__(self, exit_code: int, stderr_tail: str):
        super().__init__(f"exit code {exit_code}")
        self.exit_code = exit_code
        self.stderr_tail = stderr_tail


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_plan(text: str) -> tuple[str, list[int]]:
    workload, _, seeds = text.partition(":")
    first, _, last = seeds.partition("-")
    return workload, list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision to compare against")
    parser.add_argument("--head", default="HEAD", help="revision under test")
    parser.add_argument("--plan", action="append", required=True, type=parse_plan,
                        metavar="WORKLOAD:FIRST-LAST")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {side: Path(tmp) / side for side in SIDES}
        commits = {side: export(getattr(args, side), checkouts[side])
                   for side in SIDES}
        lines = {side: src_lines(checkouts[side]) for side in SIDES}
        spec = json.loads((checkouts["head"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        runs, failed = [], None
        try:
            for workload, seeds in args.plan:
                for i, seed in enumerate(seeds):
                    order = SIDES if i % 2 == 0 else SIDES[::-1]
                    for position, side in enumerate(order):
                        result = run_once(checkouts[side], workload, seed)
                        runs.append({"workload": workload, "seed": seed,
                                     "side": side, "position": position,
                                     "result": result})
                        print(f"{workload} seed {seed} {side}: "
                              f"{json.dumps(result['metrics'])}",
                              file=sys.stderr)
        except RunFailed as e:
            failed = {"workload": workload, "seed": seed, "side": side,
                      "exit_code": e.exit_code, "stderr_tail": e.stderr_tail}
            print(f"{workload} seed {seed} {side} failed with exit code "
                  f"{e.exit_code}:\n{e.stderr_tail}", file=sys.stderr)
    doc = {"schema": SCHEMA,
           "command": "benchmark/run.py --trace 0",
           "machine": machine_info(),
           "base": {"rev": args.base, "commit": commits["base"],
                    "src_lines": lines["base"]},
           "head": {"rev": args.head, "commit": commits["head"],
                    "src_lines": lines["head"]},
           "better": better, "runs": runs,
           "summary": summarize(runs, better)}
    if failed is not None:
        doc["failed_run"] = failed
    validate(doc)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if failed is None else 1


if __name__ == "__main__":
    sys.exit(main())
