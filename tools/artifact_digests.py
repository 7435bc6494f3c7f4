"""Digests of a staged build's artifacts, to check that a change keeps them.

Runs the tiny ``finetune`` config of ``benchmark/workloads.py`` (seed 210)
through the CLI stages ``generate-data``, ``fit-codec``,
``pretrain-encoder``, ``warmup-lm``, ``train`` and ``eval --report``, in a
subprocess on the tree ``--src`` with ``OPENBLAS_NUM_THREADS=1``. It prints
one line per file, with the first 12 hex digits of its sha256::

    file run/codec.json 6937ea1fc40d

and one line per checkpoint, with a sha256 prefix over its tensors' names,
shapes and little-endian float64 values in name order, as that tree's own
``load_checkpoint`` reads them::

    tensors pipeline 0123456789ab

The tensor digests do not depend on the checkpoint format, so two trees
that write the same values in other formats print the same ones. Usage::

    python tools/artifact_digests.py --src .
    python tools/artifact_digests.py --src /tmp/base   # a `git archive` export
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 210
STEMS = ("encoder", "lm_base", "pipeline")


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def build(work: Path) -> None:
    """Run the staged build in ``work`` and print the digests; the stages'
    own output goes to stderr. Runs inside the tree's interpreter path."""
    import numpy as np
    from eventqa.checkpoint import load_checkpoint
    from eventqa.cli import main as cli_main
    from workloads import SIZES, experiment_config

    config = work / "experiment.json"
    config.write_text(json.dumps(
        experiment_config(SIZES["finetune"]["tiny"], SEED).to_json()))
    data, run = work / "data", work / "run"
    staged = ["--config", str(config), "--data", str(data), "--out", str(run)]
    commands = [["generate-data", "--config", str(config), "--out", str(data)],
                *([stage, *staged] for stage in ("fit-codec", "pretrain-encoder",
                                                 "warmup-lm", "train")),
                ["eval", "--out", str(run), "--data", str(data),
                 "--report", str(run / "report.json")]]
    with contextlib.redirect_stdout(sys.stderr):
        for argv in commands:
            if cli_main(argv) != 0:
                raise SystemExit(f"{argv[0]} failed")
    for path in sorted(p for p in work.rglob("*") if p.is_file()
                       and p != config):
        print(f"file {path.relative_to(work).as_posix()} "
              f"{sha(path.read_bytes())}")
    for stem in STEMS:
        tensors, _ = load_checkpoint(run / stem)
        h = hashlib.sha256()
        for name in sorted(tensors):
            arr = np.asarray(tensors[name], dtype="<f8")
            h.update(name.encode())
            h.update(json.dumps(list(arr.shape)).encode())
            h.update(arr.tobytes())
        print(f"tensors {stem} {h.hexdigest()[:12]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="tree whose src/ and benchmark/ are run")
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.work is not None:   # the subprocess
        build(args.work)
        return 0
    tree = args.src.resolve()
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([str(tree / "src"),
                                          str(tree / "benchmark")])}
    with tempfile.TemporaryDirectory(prefix="artifact-digests-") as work:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--src",
             str(tree), "--work", work],
            cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
