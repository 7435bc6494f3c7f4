"""Command-line interface: subcommands, exit codes, artifacts."""

import json
import shutil
from pathlib import Path

import pytest

from eventqa import pipeline
from eventqa.checkpoint import load_checkpoint, save_checkpoint
from eventqa.cli import main as cli_main
from eventqa.codec import DatasetCodec
from eventqa.data import Dataset, GeneratorConfig
from eventqa.pipeline import StageSchedule, evaluate_stage, load_splits
from tests.test_pipeline import run_all_stages, tiny_experiment


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "experiment.json"
    path.write_text(json.dumps(tiny_experiment().to_json(), indent=2))
    return path


def test_generate_data_writes_dataset_and_provenance(config_path, tmp_path):
    out = tmp_path / "data"
    rc = cli_main(["generate-data", "--config", str(config_path),
                   "--out", str(out)])
    assert rc == 0
    assert (out / "dataset.jsonl").exists()
    assert (out / "schema.json").exists()
    prov = json.loads((out / "provenance.json").read_text())
    assert "rules" in prov and "config_hash" in prov
    lines = (out / "dataset.jsonl").read_text().splitlines()
    assert len(lines) == 30


def test_generate_data_rerun_identical(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli_main(["generate-data", "--config", str(config_path), "--out", str(out_a)])
    cli_main(["generate-data", "--config", str(config_path), "--out", str(out_b)])
    assert (out_a / "dataset.jsonl").read_bytes() == \
        (out_b / "dataset.jsonl").read_bytes()


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"generator": {"n_clients": 4}}))  # missing fields
    rc = cli_main(["generate-data", "--config", str(bad),
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_full_cli_workflow(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    for cmd in (["fit-codec"], ["pretrain-encoder"], ["warmup-lm"], ["train"]):
        rc = cli_main(cmd + ["--config", str(config_path), "--out", str(out)])
        assert rc == 0, f"{cmd} failed"
    assert (out / "codec.json").exists()
    assert (out / "pipeline.bin").exists()

    rc = cli_main(["eval", "--out", str(out),
                   "--report", str(out / "report.json")])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert {t["task"] for t in report["tasks"]} == \
        {"last_category", "mode_category"}
    captured = capsys.readouterr().out
    assert "baseline" in captured

    # zero-shot guard: trained task rejected (exit 2), held-out accepted
    rc = cli_main(["eval", "--out", str(out), "--tasks", "last_category",
                   "--zero-shot"])
    assert rc == 2
    rc = cli_main(["eval", "--out", str(out), "--tasks", "least_category",
                   "--zero-shot"])
    assert rc == 0

    # ask on one exported sequence
    data_dir = tmp_path / "data"
    cli_main(["generate-data", "--config", str(config_path),
              "--out", str(data_dir)])
    first_line = (data_dir / "dataset.jsonl").read_text().splitlines()[0]
    one = tmp_path / "one.jsonl"
    one.write_text(first_line + "\n")
    rc = cli_main(["ask", "--out", str(out), "--sequence", str(one),
                   "--question",
                   "What is the category of the last event?"])
    assert rc == 0
    assert "generation:" in capsys.readouterr().out

    rc = cli_main(["ask", "--out", str(out), "--sequence", str(one),
                   "--question", "Why is the sky blue?"])
    assert rc == 2
    assert "Known templates" in capsys.readouterr().err


@pytest.mark.parametrize("command,override,named", [
    ("generate-data", "encoder.bogus=1", ["'encoder'", "bogus"]),
    ("pretrain-encoder", "pretrain.epochs=oops", ["'pretrain'", "epochs"]),
    ("generate-data", "generator.bogus=1", ["'generator'", "bogus"]),
    ("generate-data", "generator.n_clients=oops",
     ["'generator'", "GeneratorConfig"]),
    ("generate-data", "encoder.dropout=0.7", ["'encoder'", "dropout"]),
    ("pretrain-encoder", "pretrain.min_lr=5", ["'pretrain'", "min_lr"]),
    ("pretrain-encoder", "pretrain.peak_lr=oops", ["'pretrain'", "peak_lr"]),
    ("pretrain-encoder", "warmup.batch_size=0", ["'warmup'", "batch_size"]),
    ("pretrain-encoder", "optimizer.beta1=oops", ["'optimizer'", "beta1"]),
    ("pretrain-encoder", "optimizer.clipnorm=0.5",
     ["'optimizer'", "clipnorm"]),
    ("pretrain-encoder", "lora.rank=oops", ["'lora'", "rank"]),
    ("generate-data",
     'generator.features=[{"name": "c", "kind": "categorical", "k": "x"}]',
     ["'generator'", "GeneratorConfig"]),
    ("pretrain-encoder", "lora.rank=0", ["'lora'", "rank"]),
    ("pretrain-encoder", "lora.rank=24", ["lora.rank", "d_model"]),
    ("pretrain-encoder", "lora.dropout=1.0", ["'lora'", "dropout"]),
    ("generate-data", 'tasks=[{"family": "count_events"}]', ["'id'"]),
    ("generate-data", 'generator.features=[{"name": "c"}]',
     ["'generator'", "feature 0", "'kind'"]),
    ("generate-data", "encoder.architecture=gru", ["'encoder'", "architecture"]),
    ("pretrain-encoder", "pretrain.restart_multiplier=2.0",
     ["'pretrain'", "restart_multiplier"]),
    ("pretrain-encoder", "lora.dropout=0.1", ["'lora'", "dropout"]),
    ("pretrain-encoder", "warmup.epochs=0", ["'warmup'", "epochs"]),
    ("pretrain-encoder", "eval_batch_size=0", ["eval_batch_size"]),
    ("pretrain-encoder", "lm.heads=0", ["'lm'", "heads"]),
    ("pretrain-encoder", "encoder.heads=0", ["'encoder'", "heads"]),
    ("pretrain-encoder", "connector.heads=0", ["'connector'", "heads"]),
])
def test_bad_nested_config_value_exits_2(config_path, tmp_path, capsys,
                                         command, override, named):
    rc = cli_main([command, "--config", str(config_path), "--set", override,
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for word in named:
        assert word in err


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    run_all_stages(tiny_experiment(), out)
    return out


def corrupt_truncate(raw: bytes) -> bytes:
    return raw[:len(raw) // 2]


def corrupt_flip_first_ulp(raw: bytes) -> bytes:
    """The first value moves by one unit in the last place."""
    return bytes([raw[0] ^ 1]) + raw[1:]


def corrupt_flip_last_sign(raw: bytes) -> bytes:
    """The last value changes sign."""
    return raw[:-1] + bytes([raw[-1] ^ 0x80])


# the checkpoint loads before the sequence file is opened
CHECKPOINT_READERS = pytest.mark.parametrize("argv", [
    ["eval"], ["ask", "--sequence", "unused.jsonl", "--question", "Any?"]],
    ids=["eval", "ask"])


@pytest.mark.parametrize("sidecar,key", [
    ("pipeline.json", "config"), ("pipeline.json", "tokenizer"),
    ("pipeline.json", "manifest"), ("encoder.json", "step")])
def test_missing_sidecar_key_exits_3(trained_run, config_path, tmp_path,
                                     capsys, sidecar, key):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / sidecar
    payload = json.loads(path.read_text())
    del payload[key]
    path.write_text(json.dumps(payload))
    argv = (["eval", "--out", str(out)] if sidecar == "pipeline.json" else
            ["pretrain-encoder", "--config", str(config_path), "--out",
             str(out), "--resume"])
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and repr(key) in err


@CHECKPOINT_READERS
@pytest.mark.parametrize("corrupt", [corrupt_truncate,
                                     corrupt_flip_first_ulp,
                                     corrupt_flip_last_sign])
def test_corrupt_checkpoint_exits_3(trained_run, tmp_path, capsys, argv,
                                    corrupt):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / "pipeline.bin"
    path.write_bytes(corrupt(path.read_bytes()))
    assert cli_main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "pipeline.bin" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def other_seed_run(tmp_path_factory):
    """A run of the trained run's config under seed 2, whose tensors have
    the same shapes."""
    out = tmp_path_factory.mktemp("other") / "run"
    run_all_stages(tiny_experiment(seed=2), out)
    return out


@CHECKPOINT_READERS
@pytest.mark.parametrize("damage", ["swapped", "no_tensors"])
def test_mismatched_sidecar_exits_3(trained_run, other_seed_run, tmp_path,
                                    capsys, argv, damage):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / "pipeline.json"
    if damage == "swapped":
        other = other_seed_run / "pipeline.json"
        assert json.loads(other.read_text())["tensors"] == \
            json.loads(path.read_text())["tensors"]
        shutil.copy(other, path)
    else:
        payload = json.loads(path.read_text())
        del payload["tensors"]
        path.write_text(json.dumps(payload))
    assert cli_main(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "pipeline.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,checkpoint", [
    (["train"], "encoder.bin"),
    (["pretrain-encoder", "--resume"], "encoder.bin"),
    (["eval"], "pipeline.bin"),
], ids=["train", "resume", "eval"])
def test_refitted_codec_exits_2(trained_run, config_path, tmp_path, capsys,
                                argv, checkpoint):
    """A codec refitted on other data after the checkpoints were written
    changes the embedder table shapes: the checkpoints are sound but do not
    match the model, a config error."""
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    _, train, _ = load_splits(tiny_experiment())
    refit = DatasetCodec.fit(Dataset(train.schema, train.sequences[:3]))
    fitted = DatasetCodec.load(out / "codec.json")
    assert refit["amount"].dim != fitted["amount"].dim
    refit.save(out / "codec.json")
    if argv != ["eval"]:
        argv = argv + ["--config", str(config_path)]
    assert cli_main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "does not match the model" in err
    assert checkpoint in err and "embedder.tables" in err


@pytest.mark.parametrize("damage,code,kind", [
    (lambda m: None, 3, "data error"),
    (lambda m: m[:-1], 2, "config error"),
], ids=["missing", "misshaped"])
def test_damaged_optimizer_moment_on_resume(trained_run, config_path,
                                            tmp_path, capsys, damage, code,
                                            kind):
    """A resume checkpoint without an Adam moment is a damaged file (3); one
    whose moment does not fit its parameter belongs to another model (2)."""
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    tensors, sidecar = load_checkpoint(out / "encoder")
    tensors = dict(tensors)
    key = next(k for k in tensors if k.startswith("opt.m.embedder."))
    moment = damage(tensors.pop(key))
    if moment is not None:
        tensors[key] = moment
    save_checkpoint(out / "encoder", tensors, sidecar)
    assert cli_main(["pretrain-encoder", "--resume", "--config",
                     str(config_path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert kind in err and repr(key) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage,named", [
    (lambda raw: raw[:len(raw) // 2], "codec.json"),
    (None, "codec.json"),
    (lambda raw: b'{"version": 1}', "'schema'"),
], ids=["truncated", "deleted", "no_schema"])
def test_damaged_codec_exits_3(trained_run, tmp_path, capsys, damage, named):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    path = out / "codec.json"
    if damage is None:
        path.unlink()
    else:
        path.write_bytes(damage(path.read_bytes()))
    assert cli_main(["eval", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and named in err


def test_unsupported_codec_version_exits_2(trained_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(trained_run, out)
    (out / "codec.json").write_text('{"version": 99}')
    assert cli_main(["eval", "--out", str(out)]) == 2
    assert "unsupported codec version 99" in capsys.readouterr().err


def test_missing_data_dir_exits_3(trained_run, tmp_path, capsys):
    data = tmp_path / "nonexistent_dir"
    assert cli_main(["eval", "--out", str(trained_run),
                     "--data", str(data)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(data / "schema.json") in err


@pytest.mark.parametrize("command,tasks,named", [
    ("eval", "last_category,last_category", "'last_category' is given twice"),
    ("baseline", "last_category,no_such_task", "'no_such_task'"),
    ("baseline", "last_category,last_category",
     "'last_category' is given twice"),
])
def test_bad_task_selection_exits_2(trained_run, config_path, capsys,
                                    command, tasks, named):
    source = (["--out", str(trained_run)] if command == "eval"
              else ["--config", str(config_path)])
    assert cli_main([command, *source, "--tasks", tasks]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and named in err


def replacing(key, value):
    return lambda line: json.dumps({**json.loads(line), key: value}).encode()


@pytest.mark.parametrize("damage", [
    replacing("events", [5]), replacing("targets", 5),
    replacing("targets", [1]), replacing("client_id", ["x"]),
    lambda line: line.replace(b'"t"', b'"\xff"', 1),
], ids=["event_not_object", "targets_number", "targets_array",
        "client_id_array", "not_utf8"])
@pytest.mark.parametrize("command", ["ask", "eval"])
def test_malformed_dataset_line_exits_3(trained_run, config_path, tmp_path,
                                        capsys, damage, command):
    """A malformed line of ``ask --sequence`` or of ``--data`` is a data
    error naming the line, not a traceback."""
    data = tmp_path / "data"
    assert cli_main(["generate-data", "--config", str(config_path),
                     "--out", str(data)]) == 0
    path = data / "dataset.jsonl"
    lines = path.read_bytes().splitlines()
    if command == "ask":
        path = tmp_path / "one.jsonl"
        lines = lines[:1]
    lines[-1] = damage(lines[-1])
    path.write_bytes(b"\n".join(lines) + b"\n")
    argv = (["ask", "--sequence", str(path), "--question",
             "What is the category of the last event?"]
            if command == "ask" else ["eval", "--data", str(data)])
    assert cli_main(argv + ["--out", str(trained_run)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and f"line {len(lines)}" in err


@pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                   float("nan")])
def test_non_finite_real_value_exits_3(config_path, tmp_path, capsys, value):
    """``Infinity``, ``-Infinity`` or ``NaN`` in a real feature of
    ``--data`` is a data error naming the feature, not a traceback."""
    data = tmp_path / "data"
    assert cli_main(["generate-data", "--config", str(config_path),
                     "--out", str(data)]) == 0
    path = data / "dataset.jsonl"
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record["events"][0]["amount"] = value
        lines.append(json.dumps(record))
    path.write_text("\n".join(lines) + "\n")
    assert cli_main(["fit-codec", "--config", str(config_path),
                     "--data", str(data), "--out", str(tmp_path / "run")]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "amount: NaN or an infinity" in err


@CHECKPOINT_READERS
def test_empty_checkpoint_dir_exits_3(tmp_path, capsys, argv):
    assert cli_main(argv + ["--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "pipeline." in err


def test_eval_loads_the_checkpoint_once(tmp_path, monkeypatch):
    out = tmp_path / "run"
    run_all_stages(tiny_experiment(), out)
    loads = []
    original = pipeline.load_pipeline

    def counting(*args, **kwargs):
        loads.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "load_pipeline", counting)
    assert cli_main(["eval", "--out", str(out)]) == 0
    assert len(loads) == 1


def test_baseline_command(config_path, capsys):
    rc = cli_main(["baseline", "--config", str(config_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "last_category" in out and "mode" in out


def test_baseline_follows_the_length_policy(config_path, capsys):
    # every generated client has at most 8 events, so none is admitted
    rc = cli_main(["baseline", "--config", str(config_path),
                   "--set", "min_seq_len=9", "--set", "max_seq_len=9"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_baselines_are_fitted_on_the_training_window(tmp_path, capsys):
    # every client has 10-14 events, more than the 8-event window
    cfg = tiny_experiment(
        generator=GeneratorConfig(
            n_clients=30, events_min=10, events_max=14,
            features=tiny_experiment().generator.features),
        tasks=[{"id": "count", "family": "count_events"},
               {"id": "last_category", "family": "last_value",
                "feature": "category"}],
        held_out_tasks=[],
        pretrain=StageSchedule(epochs=1, batch_size=8),
        warmup=StageSchedule(epochs=1, batch_size=16),
        train=StageSchedule(epochs=1, batch_size=8))
    out = tmp_path / "run"
    train, val, *_ = run_all_stages(cfg, out)
    report = evaluate_stage(out, val, train_split=train)
    count = next(t for t in report.tasks if t.task_id == "count")
    # every truth is the window, and so is the fitted mean and median
    for key in ("mae_mean", "mse_mean", "mae_median", "mse_median"):
        assert count.baselines[key] == 0.0

    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(cfg.to_json()))
    assert cli_main(["baseline", "--config", str(path)]) == 0
    printed = {}
    for line in capsys.readouterr().out.splitlines():
        task_id, kind, name, value = line.split()
        key = name if kind == "mode" else f"{name}_{kind}"
        printed[(task_id, key)] = float(value)
    reported = {(t.task_id, key): value for t in report.tasks
                for key, value in t.baselines.items()}
    assert printed.keys() == reported.keys()
    for key, value in reported.items():
        assert printed[key] == pytest.approx(value, abs=5e-5)


def test_set_overrides(config_path, tmp_path):
    out = tmp_path / "data"
    rc = cli_main(["generate-data", "--config", str(config_path),
                   "--set", "generator.n_clients=5", "--out", str(out)])
    assert rc == 0
    assert len((out / "dataset.jsonl").read_text().splitlines()) == 5


def test_divergence_exits_4_with_step_number(config_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert cli_main(["fit-codec", "--config", str(config_path),
                     "--out", str(out)]) == 0
    rc = cli_main(["pretrain-encoder", "--config", str(config_path),
                   "--out", str(out),
                   "--set", "pretrain.peak_lr=1e18",
                   "--set", "optimizer.clip_norm=0",
                   "--set", "pretrain.epochs=30"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "Diverged at step" in err


def test_seed_override_changes_data(config_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli_main(["generate-data", "--config", str(config_path),
              "--seed", "100", "--out", str(out_a)])
    cli_main(["generate-data", "--config", str(config_path),
              "--seed", "101", "--out", str(out_b)])
    assert (out_a / "dataset.jsonl").read_bytes() != \
        (out_b / "dataset.jsonl").read_bytes()


def test_negative_seed_exits_2(config_path, tmp_path, capsys):
    assert cli_main(["generate-data", "--config", str(config_path),
                     "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "seed must be >= 0" in err
