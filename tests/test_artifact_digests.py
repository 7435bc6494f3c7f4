"""The artifact-digest tool runs the staged build of this tree and prints a
digest line for every file and every checkpoint."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FILES = ["data/dataset.jsonl", "data/provenance.json", "data/schema.json",
         "run/codec.json", "run/encoder.bin", "run/encoder.json",
         "run/lm_base.bin", "run/lm_base.json", "run/pipeline.bin",
         "run/pipeline.json", "run/pretrain_loss.csv", "run/report.json",
         "run/train_loss.csv", "run/warmup_loss.csv"]


def test_prints_every_file_and_checkpoint_digest():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"),
         "--src", str(ROOT)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert [line.rsplit(" ", 1)[0] for line in lines] == \
        [f"file {name}" for name in FILES] + \
        [f"tensors {stem}" for stem in ("encoder", "lm_base", "pipeline")]
    assert all(re.fullmatch(r"[0-9a-f]{12}", line.rsplit(" ", 1)[1])
               for line in lines)
