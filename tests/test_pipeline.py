"""Staged pipeline and CLI: determinism, stage isolation, protocol guards."""

import csv
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from eventqa import autodiff as ad
from eventqa import pipeline
from eventqa.autodiff import Tensor
from eventqa.checkpoint import load_checkpoint
from eventqa.cli import main as cli_main
from eventqa.codec import DatasetCodec
from eventqa.connector import ConnectorConfig
from eventqa.data import Dataset, GeneratorConfig, save_jsonl
from eventqa.encoder import EncoderConfig
from eventqa.errors import ConfigError, DataError
from eventqa.lm import LoraConfig, ToyLmConfig, length_groups
from eventqa.pipeline import (ExperimentConfig, PipelineModel, StageSchedule,
                              answer_pairs, ask, build_tokenizer,
                              evaluate_stage, fit_codec_stage, generate_data,
                              load_pipeline, load_splits, make_qa_batch,
                              match_question, pretrain_encoder_stage,
                              run_inference, train_stage, warmup_corpus,
                              warmup_lm_stage)
from eventqa.qa import admit_sequence, build_corpus, build_tasks, derived_seed
from tests.test_codec import assert_batches_equal, per_value_batch


def tiny_experiment(seed=11, **kw):
    gen = GeneratorConfig(
        n_clients=30, events_min=4, events_max=8,
        features=[
            {"name": "category", "kind": "categorical", "k": 4,
             "rule": {"type": "client_dirichlet", "alpha": 0.5}},
            {"name": "amount", "kind": "real",
             "rule": {"type": "lognormal_by_category", "of": "category",
                      "mu_min": -0.5, "mu_max": 1.0, "sigma": 0.4}},
        ])
    base = dict(
        generator=gen,
        tasks=[
            {"id": "last_category", "family": "last_value",
             "feature": "category"},
            {"id": "mode_category", "family": "most_frequent",
             "feature": "category"},
            {"id": "least_category", "family": "least_frequent",
             "feature": "category"},
        ],
        held_out_tasks=["least_category"],
        seed=seed, val_fraction=0.2, min_seq_len=2, max_seq_len=8,
        encoder=EncoderConfig(d_model=16, heads=4, layers=1, d_ff=32,
                              max_positions=16),
        connector=ConnectorConfig(queries=4, d_model=16, layers=2, heads=4,
                                  d_enc=16, d_out=24, max_events=16),
        lm=ToyLmConfig(d_model=24, enc_layers=1, dec_layers=1, heads=4,
                       d_ff=48, max_input_len=80, max_output_len=12),
        lora=LoraConfig(rank=2, alpha=4.0, dropout=0.0),
        pretrain=StageSchedule(epochs=2, batch_size=8, peak_lr=3e-3,
                               warmup_steps=4),
        warmup=StageSchedule(epochs=6, batch_size=16, peak_lr=3e-3,
                             warmup_steps=4),
        train=StageSchedule(epochs=2, batch_size=8, peak_lr=3e-3,
                            warmup_steps=4),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def run_all_stages(cfg, out):
    _, train, val = load_splits(cfg)
    codec = fit_codec_stage(cfg, train)
    out.mkdir(parents=True, exist_ok=True)
    codec.save(out / "codec.json")
    pre = pretrain_encoder_stage(cfg, train, codec, out)
    warm = warmup_lm_stage(cfg, codec, out)
    trained = train_stage(cfg, train, val, codec, out)
    return train, val, codec, pre, warm, trained


class TestStages:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("run")
        cfg = tiny_experiment()
        return (cfg, out) + run_all_stages(cfg, out)

    def test_artifacts_exist_and_carry_config_hash(self, trained):
        cfg, out = trained[:2]
        for stem in ("encoder", "lm_base", "pipeline"):
            assert (out / f"{stem}.bin").exists()
            sidecar = json.loads((out / f"{stem}.json").read_text())
            assert sidecar["config_hash"] == cfg.config_hash()
        assert (out / "pretrain_loss.csv").exists()
        assert (out / "train_loss.csv").exists()

    def test_loss_curve_csv_layout(self, trained):
        out = trained[1]
        lines = (out / "pretrain_loss.csv").read_text().splitlines()
        assert lines[0] == "step,lr,loss"
        assert len(lines) > 1

    def test_every_stage_takes_epochs_times_batches_steps(self, trained,
                                                          tmp_path):
        cfg, out, train, val, codec = trained[:5]
        usable = [s for s in train.sequences if len(s) >= 2]
        trained_tasks = [t for t in cfg.built_tasks()
                         if t.task_id in cfg.trained_task_ids()]
        pairs = build_corpus(train, trained_tasks, codec,
                             derived_seed(cfg.seed, "corpus"), cfg.prefix,
                             cfg.min_seq_len, cfg.max_seq_len)
        items = warmup_corpus(build_tokenizer(cfg, codec))
        # batches of 7 leave a partial last batch in every stage
        cfg7 = tiny_experiment(**{key: StageSchedule(
            epochs=2, batch_size=7, peak_lr=3e-3, warmup_steps=4)
            for key in ("pretrain", "warmup", "train")})
        run_all_stages(cfg7, tmp_path)
        assert len(usable) % 7 and len(pairs) % 7 and len(items) % 7
        for c, run in ((cfg, out), (cfg7, tmp_path)):
            expected = {  # pretraining and training round down, warm-up up
                "pretrain": len(usable) // c.pretrain.batch_size,
                "train": len(pairs) // c.train.batch_size,
                "warmup": math.ceil(len(items) / c.warmup.batch_size)}
            for key, n_batches in expected.items():
                with (run / f"{key}_loss.csv").open() as fh:
                    steps = [int(row[0]) for row in list(csv.reader(fh))[1:]]
                epochs = getattr(c, key).epochs
                assert steps == list(range(epochs * n_batches)), (run, key)

    def test_frozen_base_untouched(self, trained):
        info = trained[7]
        assert info["frozen_base_unchanged"]
        assert info["frozen_hash_before"] == info["frozen_hash_after"]

    def test_checkpoint_reload_reproduces_answers(self, trained):
        cfg, out, train, val = trained[:4]
        report_a = evaluate_stage(out, val, train_split=train)
        report_b = evaluate_stage(out, val, train_split=train)
        assert report_a.dumps() == report_b.dumps()

    def test_load_pipeline_adopts_checkpoint_without_drawing(
            self, trained, monkeypatch):
        out = trained[1]
        tensors, _ = load_checkpoint(out / "pipeline")

        class NoDraws(np.random.Generator):
            def normal(self, *args, **kwargs):
                raise AssertionError("load_pipeline drew normals")

            def random(self, *args, **kwargs):
                raise AssertionError("load_pipeline drew uniforms")

        with monkeypatch.context() as m:
            m.setattr(np.random, "default_rng",
                      lambda *args: NoDraws(np.random.PCG64(*args)))
            model = load_pipeline(out)[0]
        params = model.parameters()
        assert params.keys() == tensors.keys()
        for name, p in params.items():
            assert p.data.dtype == tensors[name].dtype, name
            assert p.data.shape == tensors[name].shape, name
            assert p.data.tobytes() == tensors[name].tobytes(), name

    def test_model_without_generator_starts_at_zero(self, trained):
        cfg, _, _, _, codec = trained[:5]
        model = PipelineModel(codec, build_tokenizer(cfg, codec), cfg, None)
        for name, p in model.parameters().items():
            expected = 1.0 if name.endswith(".gamma") else 0.0
            assert np.all(p.data == expected), name

    def test_eval_never_mutates_checkpoint(self, trained):
        cfg, out, train, val = trained[:4]
        before = hashlib.sha256((out / "pipeline.bin").read_bytes()).hexdigest()
        evaluate_stage(out, val, train_split=train)
        after = hashlib.sha256((out / "pipeline.bin").read_bytes()).hexdigest()
        assert before == after

    def test_zero_shot_guard_blocks_trained_task(self, trained):
        cfg, out, train, val = trained[:4]
        with pytest.raises(ConfigError, match="protocol violation"):
            evaluate_stage(out, val, task_ids=["last_category"],
                           zero_shot=True)

    def test_zero_shot_allows_held_out_task(self, trained):
        cfg, out, train, val = trained[:4]
        report = evaluate_stage(out, val, task_ids=["least_category"],
                                zero_shot=True)
        assert report.zero_shot
        assert report.tasks[0].task_id == "least_category"

    def test_zero_shot_rejects_unknown_task(self, trained):
        cfg, out, train, val = trained[:4]
        with pytest.raises(ConfigError, match="unknown task"):
            evaluate_stage(out, val, task_ids=["no_such_task"],
                           zero_shot=True)

    def test_manifest_records_trained_and_held_out(self, trained):
        out = trained[1]
        sidecar = json.loads((out / "pipeline.json").read_text())
        assert sidecar["manifest"]["trained_tasks"] == [
            "last_category", "mode_category"]
        assert sidecar["manifest"]["held_out_tasks"] == ["least_category"]

    def test_report_includes_baseline_columns(self, trained):
        cfg, out, train, val = trained[:4]
        report = evaluate_stage(out, val, train_split=train)
        for tr in report.tasks:
            assert "accuracy" in tr.baselines

    def test_ask_answers_every_question_form_as_batched_inference(
            self, trained, tmp_path):
        cfg, out, train, val = trained[:4]
        model, config, codec, _ = load_pipeline(out)
        tasks = [t for t in config.built_tasks()
                 if t.task_id in config.trained_task_ids()]
        clients = Dataset(val.schema, val.sequences[:3])
        pairs, _, texts, _ = run_inference(model, clients, tasks, codec,
                                           config)
        batched = {(p.client_id, p.task_id): text
                   for p, text in zip(pairs, texts)}
        for seq in clients.sequences:
            path = tmp_path / f"{seq.client_id}.jsonl"
            save_jsonl(Dataset(val.schema, [seq]), path)
            for task in tasks:
                readme = task.template.format(feature=task.feature)
                canonical = f"{readme} {task.instruction}"
                spaced = canonical.replace(" ", "  ")
                answers = [ask(out, path, q)["generation"]
                           for q in (readme, canonical, spaced)]
                assert answers == [batched[(seq.client_id, task.task_id)]] * 3

    def test_yes_no_score_read_from_first_decoding_step(self, trained):
        cfg, out, train, val = trained[:4]
        model, config, codec, _ = load_pipeline(out)
        tasks = config.built_tasks()
        _, _, _, scores = run_inference(model, val, tasks, codec, config)
        assert scores and all(-1.0 <= s <= 1.0 for s in scores)
        model.lm.lm_head.w.data[:] = 0.0
        model.lm.lm_head.b.data[:] = 0.0  # all logits equal -> p(Yes) == p(No)
        _, _, _, tied = run_inference(model, val, tasks, codec, config)
        assert tied == [0.0] * len(scores)

    def test_codec_fitted_on_train_only(self, trained):
        cfg, out, train, val = trained[:4]
        codec = fit_codec_stage(cfg, train)
        observed = set()
        for s in train.sequences:
            observed.update(s.values["category"])
        assert set(codec["category"].vocab.values) == \
            set(codec.schema.feature("category").values)
        # binning stats must come from the train split alone
        assert codec["amount"].bins.stats["n_samples"] == \
            sum(len(s) for s in train.sequences)


def recording(calls: list, fn):
    """``fn`` that also appends (args, result) of every call to ``calls``."""
    def wrapper(*args):
        result = fn(*args)
        calls.append((args, result))
        return result
    return wrapper


def per_pair_queries(model, batch):
    """The reference for ``pipeline.group_inputs``: one event-tower row per
    pair, each pair with its own copy of its window."""
    rows = batch.window_of
    return model.event_queries({f: w[rows] for f, w in batch.windows.items()},
                               batch.window_mask[rows])


def padded_queries(model, batch):
    """Every pair's injected rows from one event-tower pass per distinct
    window, for a text-model pass over the whole padded batch."""
    queries = model.event_queries(batch.windows, batch.window_mask)
    return ad.embedding(queries, batch.window_of)


def counting_tower(rows: list):
    """``PipelineModel.event_queries`` that also appends its window count."""
    event_queries = PipelineModel.event_queries

    def counting(self, windows, window_mask):
        rows.append(len(window_mask))
        return event_queries(self, windows, window_mask)
    return counting


class TestWindowBatches:
    """Encoded windows against per-value coding, and one event-tower row per
    distinct window in training and at inference. The trained
    ``next_category`` task holds out the last event, so every client has two
    visible windows."""

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("windows")
        tasks = tiny_experiment().tasks + [
            {"id": "next_category", "family": "next_value",
             "feature": "category"}]
        cfg = tiny_experiment(tasks=tasks)
        full, train, val = load_splits(cfg)
        codec = fit_codec_stage(cfg, train)
        encoded, batches, towers = [], [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DatasetCodec, "encode_batch",
                       recording(encoded, DatasetCodec.encode_batch))
            pretrain_encoder_stage(cfg, train, codec, out)
        warmup_lm_stage(cfg, codec, out)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "make_qa_batch",
                       recording(batches, make_qa_batch))
            mp.setattr(PipelineModel, "event_queries", counting_tower(towers))
            train_stage(cfg, train, val, codec, out)
        return cfg, out, full, train, codec, encoded, batches, towers

    def test_pretraining_batches_match_per_value_coding(self, run):
        cfg, _, _, train, _, encoded, *_ = run
        n_batches = len(train.sequences) // cfg.pretrain.batch_size
        assert len(encoded) == cfg.pretrain.epochs * n_batches
        for (codec, seqs), got in encoded:
            assert_batches_equal(got, per_value_batch(codec, seqs))
        assert {s.client_id for (_, seqs), _ in encoded for s in seqs} == \
            {s.client_id for s in train.sequences}

    def test_training_batches_match_per_value_coding(self, run):
        cfg, _, _, train, codec, _, batches, _ = run
        corpus = cfg.corpus(train, [t for t in cfg.built_tasks() if t.task_id
                                    in cfg.trained_task_ids()], codec)
        n_steps = cfg.train.epochs * (len(corpus) // cfg.train.batch_size)
        assert len(batches) > n_steps  # the validation parse pass follows
        for (pairs, sequences, tasks, _, _, config), batch in batches:
            windows = [admit_sequence(sequences[p.client_id],
                                      tasks[p.task_id], config.min_seq_len,
                                      config.max_seq_len) for p in pairs]
            want = per_value_batch(codec, windows)
            rows = batch.window_of
            assert_batches_equal(
                ({f: w[rows] for f, w in batch.windows.items()},
                 batch.window_mask[rows]), want)
            keys = {(p.client_id, tasks[p.task_id].holdout_last)
                    for p in pairs}
            assert len(batch.window_mask) == len(keys)
        trained = {(p.client_id, p.task_id)
                   for (pairs, *_), _ in batches[:n_steps] for p in pairs}
        assert trained == {(p.client_id, p.task_id) for p in corpus}

    def pairs(self, run):
        _, out, full, *_ = run
        model, config, codec, _ = load_pipeline(out)
        tasks = {t.task_id: t for t in config.built_tasks()}
        pairs = config.corpus(full, [tasks[t] for t in
                                     config.trained_task_ids()], codec)
        sequences = {s.client_id: s for s in full.sequences}
        assert len(pairs) > config.eval_batch_size  # more than one chunk
        return model, config, codec, tasks, pairs, sequences

    def test_answers_match_one_tower_pass_per_pair(self, run):
        model, config, codec, tasks, pairs, sequences = self.pairs(run)
        texts, scores = answer_pairs(model, pairs, sequences, tasks, codec,
                                     config)
        tokenizer = model.lm.tokenizer
        want_texts, want_scores = [None] * len(pairs), [None] * len(pairs)
        size = config.eval_batch_size
        for i in range(0, len(pairs), size):
            batch = make_qa_batch(pairs[i:i + size], sequences, tasks, codec,
                                  tokenizer, config)
            with ad.no_grad():
                queries = per_pair_queries(model, batch)
                for rows, text in length_groups(batch.text):
                    group_texts, steps = model.lm.generate(
                        text, Tensor(queries.data[rows]))
                    group_scores = (steps[0][:, tokenizer.yes_id]
                                    - steps[0][:, tokenizer.no_id]).tolist()
                    for r, t, s in zip(rows, group_texts, group_scores):
                        want_texts[i + r], want_scores[i + r] = t, s
        assert texts == want_texts
        assert scores == want_scores

    def test_answers_match_the_padded_batch(self, run):
        """One generate per body length against one per padded chunk."""
        model, config, codec, tasks, pairs, sequences = self.pairs(run)
        texts, scores = answer_pairs(model, pairs, sequences, tasks, codec,
                                     config)
        tokenizer = model.lm.tokenizer
        want_texts, want_scores = [], []
        size = config.eval_batch_size
        for i in range(0, len(pairs), size):
            batch = make_qa_batch(pairs[i:i + size], sequences, tasks, codec,
                                  tokenizer, config)
            assert len(length_groups(batch.text)) > 1
            with ad.no_grad():
                chunk_texts, steps = model.lm.generate(
                    batch.text, padded_queries(model, batch))
            want_texts += chunk_texts
            want_scores += (steps[0][:, tokenizer.yes_id]
                            - steps[0][:, tokenizer.no_id]).tolist()
        assert texts == want_texts
        np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)

    def test_split_gradients_match_the_padded_batch(self, run):
        """The first training step's batch: one text-model pass per body
        length gives the padded batch's loss and gradients up to rounding."""
        *_, batches, _ = run
        model, *_ = self.pairs(run)
        (pairs, sequences, tasks, codec, _, config), _ = batches[0]
        batch = make_qa_batch(pairs, sequences, tasks, codec,
                              model.lm.tokenizer, config)
        assert len(length_groups(batch.text)) > 1
        params = model.trainable_parameters()

        def gradients(loss):
            model.zero_grad()
            value = loss.item()
            ad.backward(loss)
            return value, {n: np.zeros_like(p.data) if p.grad is None
                           else p.grad.copy() for n, p in params.items()}

        got_loss, got = gradients(pipeline.qa_loss(model, batch))
        want_loss, want = gradients(model.lm.answer_loss(
            batch.text, padded_queries(model, batch)))
        assert got_loss == pytest.approx(want_loss, rel=1e-13)
        scale = max(np.abs(g).max() for g in want.values())
        assert scale > 0
        for name in params:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)

    def test_event_tower_runs_once_per_distinct_window(self, run,
                                                       monkeypatch):
        # train_stage: every training step and validation chunk
        *_, batches, towers = run
        distinct = [len({(p.client_id, tasks[p.task_id].holdout_last)
                         for p in pairs})
                    for (pairs, _, tasks, *_), _ in batches]
        assert towers == distinct
        assert sum(towers) < sum(len(pairs) for (pairs, *_), _ in batches)

        # evaluation
        model, config, codec, tasks, pairs, sequences = self.pairs(run)
        rows = []
        monkeypatch.setattr(PipelineModel, "event_queries",
                            counting_tower(rows))
        answer_pairs(model, pairs, sequences, tasks, codec, config)
        size = config.eval_batch_size
        distinct = [len({(p.client_id, tasks[p.task_id].holdout_last)
                         for p in pairs[i:i + size]})
                    for i in range(0, len(pairs), size)]
        assert rows == distinct
        assert sum(rows) < len(pairs)

    def test_gradients_match_one_tower_pass_per_pair(self, run):
        """Two pairs on one window: the window's query rows collect both
        pairs' gradients, as a tower pass per pair would give them."""
        model, config, codec, tasks, pairs, sequences = self.pairs(run)
        first = pairs[0].client_id
        chosen = [p for p in pairs if p.client_id == first
                  and not tasks[p.task_id].holdout_last][:2] + [
            p for p in pairs if p.client_id != first][:3]
        batch = make_qa_batch(chosen, sequences, tasks, codec,
                              model.lm.tokenizer, config)
        assert batch.window_of[0] == batch.window_of[1]
        params = model.trainable_parameters()

        def gradients(loss):
            model.zero_grad()
            ad.backward(loss)
            return {n: np.zeros_like(p.data) if p.grad is None
                    else p.grad.copy() for n, p in params.items()}

        got = gradients(pipeline.qa_loss(model, batch))
        want = gradients(model.lm.answer_loss(
            batch.text, per_pair_queries(model, batch)))
        scale = max(np.abs(g).max() for g in want.values())
        assert scale > 0
        for name in params:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-12 * scale, err_msg=name)


class TestDeterminism:
    def test_same_seed_same_artifacts(self, tmp_path):
        cfg = tiny_experiment(seed=21)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_all_stages(cfg, out_a)
        run_all_stages(cfg, out_b)
        for stem in ("encoder", "lm_base", "pipeline"):
            assert (out_a / f"{stem}.bin").read_bytes() == \
                (out_b / f"{stem}.bin").read_bytes(), stem

    @pytest.fixture(scope="class")
    def two_seeds(self, tmp_path_factory):
        """Runs of one config under seeds 1 and 3, whose codecs (and so
        whose tensor shapes) agree."""
        outs = []
        for seed in (1, 3):
            cfg = tiny_experiment(seed=seed)
            outs.append((cfg, tmp_path_factory.mktemp(f"seed{seed}")))
            run_all_stages(*outs[-1])
        return outs

    def test_different_seeds_differ_but_share_config_hash(self, two_seeds):
        (cfg_a, out_a), (cfg_b, out_b) = two_seeds
        assert cfg_a.config_hash() == cfg_b.config_hash()
        assert (out_a / "pipeline.bin").read_bytes() != \
            (out_b / "pipeline.bin").read_bytes()

    def test_swapped_sidecar_is_data_error(self, two_seeds, tmp_path):
        """Each stage's payload has the other seed's shapes, so only the
        checksum tells a swapped sidecar from the right one."""
        (_, out_a), (_, out_b) = two_seeds
        for stem in ("encoder", "lm_base", "pipeline"):
            shapes = [{n: t.shape for n, t in load_checkpoint(o / stem)[0]
                       .items()} for o in (out_a, out_b)]
            assert shapes[0] == shapes[1], stem
            shutil.copy(out_a / f"{stem}.bin", tmp_path / f"{stem}.bin")
            shutil.copy(out_b / f"{stem}.json", tmp_path / f"{stem}.json")
            with pytest.raises(DataError, match=f"{stem}.bin does not match "
                                                f"its sidecar"):
                load_checkpoint(tmp_path / stem)


class TestPretrainBehavior:
    def test_zero_lr_freezes_parameters(self, tmp_path):
        cfg = tiny_experiment(
            pretrain=StageSchedule(epochs=2, batch_size=8, peak_lr=0.0,
                                   min_lr=0.0, warmup_steps=0))
        _, train, _ = load_splits(cfg)
        codec = fit_codec_stage(cfg, train)
        info = pretrain_encoder_stage(cfg, train, codec, tmp_path)
        tensors, _ = load_checkpoint(tmp_path / "encoder")

        out2 = tmp_path / "again"
        out2.mkdir()
        cfg0 = tiny_experiment(
            pretrain=StageSchedule(epochs=1, batch_size=8, peak_lr=0.0,
                                   min_lr=0.0, warmup_steps=0))
        pretrain_encoder_stage(cfg0, train, codec, out2)
        tensors0, _ = load_checkpoint(out2 / "encoder")
        for name in tensors:
            if name.startswith("opt."):
                continue
            np.testing.assert_array_equal(tensors[name], tensors0[name])

    def test_resume_continues_at_recorded_step(self, tmp_path):
        cfg_short = tiny_experiment(
            pretrain=StageSchedule(epochs=1, batch_size=8, peak_lr=3e-3,
                                   warmup_steps=4))
        cfg_long = tiny_experiment(
            pretrain=StageSchedule(epochs=2, batch_size=8, peak_lr=3e-3,
                                   warmup_steps=4))
        _, train, _ = load_splits(cfg_short)
        codec = fit_codec_stage(cfg_short, train)

        out_resumed = tmp_path / "resumed"
        info_a = pretrain_encoder_stage(cfg_short, train, codec, out_resumed)
        info_b = pretrain_encoder_stage(cfg_long, train, codec, out_resumed,
                                        resume=True)
        out_direct = tmp_path / "direct"
        info_c = pretrain_encoder_stage(cfg_long, train, codec, out_direct)
        assert info_b["steps"] == info_c["steps"]
        sidecar = json.loads((out_resumed / "encoder.json").read_text())
        assert sidecar["step"] == info_c["steps"]

    def test_resume_is_exact(self, tmp_path):
        # min_lr == peak_lr and a fixed cycle make the schedule independent
        # of the run length, so resuming must replay the direct run exactly
        def config(epochs):
            return tiny_experiment(pretrain=StageSchedule(
                epochs=epochs, batch_size=8, peak_lr=3e-3, min_lr=3e-3,
                warmup_steps=2, cycle_length=5))
        _, train, _ = load_splits(config(1))
        codec = fit_codec_stage(config(1), train)
        resumed, direct = tmp_path / "resumed", tmp_path / "direct"
        pretrain_encoder_stage(config(1), train, codec, resumed)
        pretrain_encoder_stage(config(3), train, codec, resumed, resume=True)
        pretrain_encoder_stage(config(3), train, codec, direct)
        for name in ("encoder.bin", "encoder.json", "pretrain_loss.csv"):
            assert (resumed / name).read_bytes() == \
                (direct / name).read_bytes(), name

    def test_resume_rejects_other_encoder_config(self, tmp_path):
        cfg = tiny_experiment()
        _, train, _ = load_splits(cfg)
        codec = fit_codec_stage(cfg, train)
        pretrain_encoder_stage(cfg, train, codec, tmp_path)
        other = tiny_experiment(
            encoder=EncoderConfig(d_model=32, heads=4, layers=1, d_ff=32,
                                  max_positions=16),
            connector=ConnectorConfig(queries=4, d_model=16, layers=2,
                                      heads=4, d_enc=32, d_out=24,
                                      max_events=16))
        with pytest.raises(ConfigError, match="different encoder"):
            pretrain_encoder_stage(other, train, codec, tmp_path, resume=True)


class TestConfigValidation:
    def test_held_out_task_must_exist(self):
        with pytest.raises(ConfigError, match="held-out"):
            tiny_experiment(held_out_tasks=["ghost"])

    def test_seq_len_within_encoder_positions(self):
        with pytest.raises(ConfigError, match="max positions"):
            tiny_experiment(max_seq_len=99)

    def test_connector_width_must_match_lm(self):
        with pytest.raises(ConfigError, match="language model width"):
            tiny_experiment(connector=ConnectorConfig(
                queries=4, d_model=16, layers=2, heads=4, d_enc=16,
                d_out=999, max_events=16))

    def test_minimal_json_takes_dataclass_defaults(self):
        cfg = tiny_experiment()
        minimal = ExperimentConfig.from_json(
            {"generator": cfg.generator.to_json(), "tasks": cfg.tasks})
        direct = ExperimentConfig(cfg.generator, cfg.tasks)
        assert minimal.to_json() == direct.to_json()
        assert minimal.config_hash() == direct.config_hash()

    @pytest.mark.parametrize("section,given", [
        ("lora", {"alpha": 8.0}), ("warmup", {"epochs": 5}),
        ("optimizer", {"weight_decay": 0.0})])
    def test_partial_section_keeps_experiment_defaults(self, section, given):
        cfg = tiny_experiment()
        read = ExperimentConfig.from_json(
            {"generator": cfg.generator.to_json(), "tasks": cfg.tasks,
             section: given})
        default = ExperimentConfig(cfg.generator, cfg.tasks)
        assert getattr(read, section).to_json() == {
            **getattr(default, section).to_json(), **given}

    @pytest.mark.parametrize("name", ["generator", "tasks"])
    def test_missing_required_field_named(self, name):
        payload = tiny_experiment().to_json()
        del payload[name]
        with pytest.raises(ConfigError, match=f"missing field '{name}'"):
            ExperimentConfig.from_json(payload)

    def test_unknown_keys_ignored(self):
        payload = tiny_experiment().to_json()
        payload["no_such_field"] = 1
        assert ExperimentConfig.from_json(payload).to_json() == \
            tiny_experiment().to_json()

    def test_json_roundtrip(self):
        cfg = tiny_experiment()
        again = ExperimentConfig.from_json(
            json.loads(json.dumps(cfg.to_json())))
        assert again.to_json() == cfg.to_json()
        assert again.config_hash() == cfg.config_hash()


class TestMatchQuestion:
    def test_matches_registered_template(self):
        cfg = tiny_experiment()
        tasks = cfg.built_tasks()
        task, slots = match_question(
            "What is the category of the last event? "
            "Answer with a single value name.", tasks)
        assert task.task_id == "last_category"

    def test_instruction_suffix_optional(self):
        cfg = tiny_experiment()
        tasks = cfg.built_tasks()
        task, _ = match_question("What is the category of the last event?",
                                 tasks)
        assert task.task_id == "last_category"

    def test_whitespace_runs_count_as_one_space(self):
        tasks = build_tasks([{"id": "occ", "family": "occurrence",
                              "feature": "category"}])
        task, slots = match_question(
            " Does the value  c1 \t occur for category?\nAnswer Yes or No. ",
            tasks)
        assert task.task_id == "occ" and slots == {"value": "c1"}

    def test_unregistered_question_lists_templates(self):
        cfg = tiny_experiment()
        with pytest.raises(ConfigError, match="Known templates"):
            match_question("Why is the sky blue?", cfg.built_tasks())
