"""The README's command-line examples parse and its config export runs."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from eventqa.cli import build_parser
from eventqa.pipeline import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def shell_commands() -> list[str]:
    """Every command of the README's ``sh`` blocks, continuations joined."""
    text = (ROOT / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        commands.extend(c.strip() for c in block.replace("\\\n", " ")
                        .splitlines() if c.strip())
    return commands


def test_every_eventqa_line_parses():
    lines = [c for c in shell_commands() if c.startswith("eventqa ")]
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        args = parser.parse_args(argv)  # a bad line exits with status 2
        assert callable(args.func), line


def test_config_export_one_liner_loads(tmp_path):
    [export] = [c for c in shell_commands() if "> experiment.json" in c]
    target = tmp_path / "experiment.json"
    command = export.replace("> experiment.json",
                             f"> {shlex.quote(str(target))}")
    command = command.replace("python3", shlex.quote(sys.executable), 1)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    subprocess.run(["sh", "-c", command], cwd=ROOT, env=env, check=True,
                   timeout=120)
    config = ExperimentConfig.from_json(json.loads(target.read_text()))
    assert config.to_json() == json.loads(target.read_text())
