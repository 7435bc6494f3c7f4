"""Benchmark entry point. Run from the repository root:

    python3 benchmark/run.py --workload finetune --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--smoke`` runs every workload at tiny sizes in both modes and checks that
the printed metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / "benchmark" / "out"
WORKLOADS = ("finetune", "long-history", "serve")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes (what --smoke runs)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, names checked")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    src = ROOT / "src"
    if not (src / "eventqa" / "__init__.py").is_file():
        print(f"error: no eventqa sources under {src}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    from workloads import SetupError, run_workload

    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.tiny, OUT)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def smoke() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    ok = sorted(names) == sorted(WORKLOADS)
    if not ok:
        print(f"smoke: BENCHMARK.json workloads {names} != {WORKLOADS}")
    for workload in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: "
                                f"{proc.stderr.strip()[-400:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != expected[trace]:
                    problems.append(
                        f"names/units differ: missing "
                        f"{sorted(set(expected[trace]) - set(got))}, extra "
                        f"{sorted(set(got) - set(expected[trace]))}, units "
                        f"{[k for k in got if k in expected[trace] and got[k] != expected[trace][k]]}")
                if not result["correct"] or result["failed"] \
                        or result["attempted"] < 1:
                    problems.append(f"correct={result['correct']} "
                                    f"failed={result['failed']} "
                                    f"attempted={result['attempted']}: "
                                    f"{proc.stderr.strip()[-400:]}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
