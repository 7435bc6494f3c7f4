"""The paired-benchmark recorder: summary arithmetic and document schema on
canned ``benchmark/run.py`` output lines; no benchmark runs here."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BETTER = {"eval_pairs_per_s": "higher", "ask_p50_ms": "lower"}


def line(rate: float, ask_ms: float, correct: bool = True) -> str:
    """One stdout line of ``benchmark/run.py --trace 0``."""
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0,
                       "metrics": {
                           "eval_pairs_per_s": {"value": rate, "unit": "1/s"},
                           "ask_p50_ms": {"value": ask_ms, "unit": "ms"}}})


# (seed, side, stdout line); the head wins the rate in pairs 1 and 3 and the
# latency in pairs 1 and 2
CANNED = [
    (1, "base", line(100.0, 10.0)), (1, "head", line(150.0, 8.0)),
    (2, "head", line(90.0, 9.0)), (2, "base", line(120.0, 12.0)),
    (3, "base", line(110.0, 11.0)), (3, "head", line(160.0, 11.0)),
]


def canned_doc() -> dict:
    runs = [{"workload": "serve", "seed": seed, "side": side, "position": 0,
             "result": json.loads(text)} for seed, side, text in CANNED]
    return {"schema": bench.SCHEMA, "command": "benchmark/run.py --trace 0",
            "machine": {"nproc": 2, "numpy": "2", "blas": {},
                        "thread_env": {}},
            "base": {"rev": "a", "commit": "1" * 40, "src_lines": 4653},
            "head": {"rev": "b", "commit": "2" * 40, "src_lines": 4585},
            "better": BETTER, "runs": runs,
            "summary": bench.summarize(runs, BETTER)}


def test_summary_medians_quartiles_and_wins():
    summary = canned_doc()["summary"]["serve"]
    assert summary["pairs"] == 3 and summary["all_correct"]
    rate = summary["metrics"]["eval_pairs_per_s"]
    assert rate["base"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert rate["head"] == {"median": 150.0, "q1": 120.0, "q3": 155.0}
    assert rate["ratio"] == pytest.approx(150.0 / 110.0)
    assert rate["wins"] == 2 and rate["better"] == "higher"
    ask = summary["metrics"]["ask_p50_ms"]
    assert ask["wins"] == 2 and ask["better"] == "lower"  # a tie is no win
    assert ask["base"]["median"] == 11.0 and ask["head"]["median"] == 9.0


def test_incomplete_pair_and_incorrect_run_are_reported():
    doc = canned_doc()
    doc["runs"].pop()                                 # seed 3 loses its head
    doc["runs"][0]["result"] = json.loads(line(100.0, 10.0, correct=False))
    summary = bench.summarize(doc["runs"], BETTER)["serve"]
    assert summary["pairs"] == 2 and not summary["all_correct"]


@pytest.mark.parametrize("damage", [
    lambda d: d.pop("machine"),
    lambda d: d["head"].pop("commit"),
    lambda d: d["base"].pop("src_lines"),
    lambda d: d["machine"].pop("blas"),
    lambda d: d["runs"][0]["result"]["metrics"].pop("ask_p50_ms"),
    lambda d: d["summary"]["serve"]["metrics"]["ask_p50_ms"].update(wins=3),
], ids=["machine", "commit", "src_lines", "blas", "metric", "summary"])
def test_validate_rejects_incomplete_documents(damage):
    doc = canned_doc()
    bench.validate(doc)
    damaged = copy.deepcopy(doc)
    damage(damaged)
    with pytest.raises(ValueError):
        bench.validate(damaged)


def test_plan_parsing():
    assert bench.parse_plan("serve:5-7") == ("serve", [5, 6, 7])
    assert bench.parse_plan("finetune:9") == ("finetune", [9])


def test_src_lines_counts_package_python_lines(tmp_path):
    package = tmp_path / "src" / "eventqa"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "sub" / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "t.py").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 4


def test_committed_bench_files_are_valid():
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench.validate(json.loads(path.read_text()))


def test_failed_run_keeps_finished_runs(tmp_path, monkeypatch, capsys):
    """The third run fails: the document keeps the two finished runs and
    names the failed one, and the exit status is non-zero."""
    def fake_export(rev, into):
        (into / "src" / "eventqa").mkdir(parents=True)
        (into / "src" / "eventqa" / "m.py").write_text(
            "pass\n" * (3 if rev == "a" else 2))
        (into / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
            {"name": name, "better": better}
            for name, better in BETTER.items()]}))
        return rev * 40

    results = [json.loads(text) for _, _, text in CANNED[:2]]

    def fake_run_once(checkout, workload, seed):
        if not results:
            raise bench.RunFailed(7, "Traceback ...\nValueError: boom")
        return results.pop(0)

    monkeypatch.setattr(bench, "export", fake_export)
    monkeypatch.setattr(bench, "run_once", fake_run_once)
    out = tmp_path / "BENCH.json"
    assert bench.main(["--base", "a", "--head", "b", "--plan", "serve:1-2",
                       "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    bench.validate(doc)
    assert [(r["seed"], r["side"]) for r in doc["runs"]] == \
        [(1, "base"), (1, "head")]
    assert doc["failed_run"] == {"workload": "serve", "seed": 2,
                                 "side": "head", "exit_code": 7,
                                 "stderr_tail": "Traceback ...\nValueError: boom"}
    assert doc["summary"]["serve"]["pairs"] == 1
    assert (doc["base"]["src_lines"], doc["head"]["src_lines"]) == (3, 2)
    assert "boom" in capsys.readouterr().err
