"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The two end-to-end fixtures (extractive and predictive pipelines)
train real models and dominate the runtime; everything stays far inside the
stated budgets on a laptop CPU.
"""

import hashlib
import math
import time
from collections import Counter

import numpy as np
import pytest

from eventqa import autodiff as ad
from eventqa.autodiff import Tensor, grad_check
from eventqa.codec import (BinningSpec, DatasetCodec, EventEmbedder,
                           doane_bin_count, embedding_dim, skewness,
                           skewness_sigma)
from eventqa.connector import Connector, ConnectorConfig
from eventqa.data import Dataset, EventSequence, FeatureSpec, GeneratorConfig, Schema
from eventqa.encoder import (EncoderConfig, EventEncoder, NextEventHeads,
                             next_event_loss)
from eventqa.errors import ConfigError
from eventqa.lm import LoraConfig, ToyLmConfig, apply_lora, token_rows
from eventqa.metrics import accuracy, f1_binary, mae, mse, roc_auc
from eventqa.pipeline import (ExperimentConfig, StageSchedule, evaluate_stage,
                              fit_codec_stage, load_pipeline, load_splits,
                              pretrain_encoder_stage, run_inference,
                              train_stage, warmup_lm_stage)


def report_line(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {criterion:>2}] {status}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# shared end-to-end runs


def extractive_config(seed=7):
    gen = GeneratorConfig(
        n_clients=2000, events_min=8, events_max=16,
        features=[
            {"name": "category", "kind": "categorical", "k": 6,
             "rule": {"type": "client_dirichlet", "alpha": 0.4}},
            {"name": "amount", "kind": "real",
             "rule": {"type": "lognormal_by_category", "of": "category",
                      "mu_min": -0.5, "mu_max": 1.5, "sigma": 0.4}},
        ])
    return ExperimentConfig(
        generator=gen,
        tasks=[
            {"id": "last_category", "family": "last_value",
             "feature": "category"},
            {"id": "mode_category", "family": "most_frequent",
             "feature": "category"},
            {"id": "is_mode_category", "family": "is_most_frequent",
             "feature": "category"},
            {"id": "least_category", "family": "least_frequent",
             "feature": "category"},
        ],
        held_out_tasks=["least_category"],
        seed=seed, val_fraction=0.1, min_seq_len=2, max_seq_len=16,
        encoder=EncoderConfig(d_model=32, heads=4, layers=2, d_ff=64,
                              max_positions=24),
        connector=ConnectorConfig(queries=8, d_model=32, layers=2, heads=4,
                                  d_enc=32, d_out=48, max_events=24),
        lm=ToyLmConfig(d_model=48, enc_layers=2, dec_layers=2, heads=4,
                       d_ff=96, max_input_len=96, max_output_len=12),
        lora=LoraConfig(rank=4, alpha=8.0, dropout=0.0),
        pretrain=StageSchedule(epochs=2, batch_size=64, peak_lr=3e-3,
                               warmup_steps=20),
        warmup=StageSchedule(epochs=60, batch_size=32, peak_lr=3e-3,
                             warmup_steps=30),
        train=StageSchedule(epochs=6, batch_size=64, peak_lr=3e-3,
                            warmup_steps=40),
    )


def markov_config(seed=13):
    gen = GeneratorConfig(
        n_clients=1200, events_min=6, events_max=12,
        features=[{"name": "category", "kind": "categorical", "k": 6,
                   "rule": {"type": "markov", "peak": 0.7}}])
    return ExperimentConfig(
        generator=gen,
        tasks=[{"id": "next_category", "family": "next_value",
                "feature": "category"}],
        held_out_tasks=[],
        seed=seed, val_fraction=0.1, min_seq_len=2, max_seq_len=12,
        encoder=EncoderConfig(d_model=32, heads=4, layers=2, d_ff=64,
                              max_positions=16),
        connector=ConnectorConfig(queries=8, d_model=32, layers=2, heads=4,
                                  d_enc=32, d_out=48, max_events=16),
        lm=ToyLmConfig(d_model=48, enc_layers=2, dec_layers=2, heads=4,
                       d_ff=96, max_input_len=80, max_output_len=10),
        lora=LoraConfig(rank=4, alpha=8.0, dropout=0.0),
        pretrain=StageSchedule(epochs=3, batch_size=64, peak_lr=3e-3,
                               warmup_steps=20),
        warmup=StageSchedule(epochs=60, batch_size=32, peak_lr=3e-3,
                             warmup_steps=30),
        train=StageSchedule(epochs=5, batch_size=32, peak_lr=3e-3,
                            warmup_steps=40),
    )


def run_full_pipeline(config, out):
    """All three stages plus standard and zero-shot evaluation."""
    started = time.time()
    out.mkdir(parents=True, exist_ok=True)
    _, train, val = load_splits(config)
    codec = fit_codec_stage(config, train)
    codec.save(out / "codec.json")
    pretrain_encoder_stage(config, train, codec, out)
    warmup_lm_stage(config, codec, out)
    info = train_stage(config, train, val, codec, out)
    report = evaluate_stage(out, val, train_split=train)
    zs_report = None
    if config.held_out_tasks:
        zs_report = evaluate_stage(out, val, zero_shot=True,
                                   train_split=train)
    return {
        "out": out, "train": train, "val": val, "codec": codec,
        "info": info, "report": report, "zs_report": zs_report,
        "elapsed": time.time() - started,
    }


@pytest.fixture(scope="session")
def extractive_run(tmp_path_factory):
    return run_full_pipeline(extractive_config(),
                             tmp_path_factory.mktemp("extractive"))


@pytest.fixture(scope="session")
def markov_run(tmp_path_factory):
    return run_full_pipeline(markov_config(),
                             tmp_path_factory.mktemp("markov"))


def metric_of(report, task_id, name):
    for tr in report.tasks:
        if tr.task_id == task_id:
            return tr.metrics.get(name), tr.baselines.get(name), tr
    raise KeyError(task_id)


def text_only_input(lm, prefix, body):
    """Token rows of a batch of one with the answer "Yes", through
    ``token_rows``; the model takes them without event rows."""
    return token_rows(lm.tokenizer, prefix, [body], ["Yes"])


# ---------------------------------------------------------------------------
# criterion 1: embedding-size law


def test_criterion_1_embedding_size_law():
    started = time.time()
    values = {k: embedding_dim(k) for k in (1, 2, 10)}
    ok = values == {1: 2, 2: 3, 10: 6}
    elapsed = time.time() - started
    report_line(1, ok and elapsed < 1.0,
                f"embedding dims for K=1,2,10 are "
                f"{values[1]},{values[2]},{values[10]} "
                f"(expected 2,3,6) in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 2: skew-adjusted bin-count rule


def test_criterion_2_bin_count_rule():
    started = time.time()
    half = np.linspace(0.1, 12.8, 128)
    sample = np.concatenate([half, -half])
    g1 = skewness(sample)
    bins, _ = doane_bin_count(sample)
    sigma8 = skewness_sigma(8)
    ok = (abs(g1) < 1e-12 and bins == 9
          and abs(sigma8 - math.sqrt(36.0 / 99.0)) < 1e-12)
    elapsed = time.time() - started
    report_line(2, ok and elapsed < 1.0,
                f"symmetric N=256 sample: |g1|={abs(g1):.2e}, bins={bins} "
                f"(expected 9); sigma(8)={sigma8:.12f} vs "
                f"sqrt(36/99)={math.sqrt(36/99):.12f}; {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# criterion 3: discretization totality


def test_criterion_3_discretization_totality():
    started = time.time()
    rng = np.random.default_rng(3)
    checked = 0
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 12))
        boundaries = np.unique(rng.normal(0, 50, n + 1))
        if boundaries.size < 2:
            continue
        spec = BinningSpec("x", [float(b) for b in boundaries])
        xs = np.sort(np.concatenate([
            rng.normal(0, 80, 46),
            boundaries[:2],
            [boundaries[0] - 10.0, boundaries[-1] + 10.0]]))
        outputs = []
        for x in xs:
            value, idx = spec.discretize(float(x))
            outputs.append(value)
            ok &= value in spec.boundaries
            ok &= spec.boundaries[idx] == value
            checked += 1
        ok &= all(b >= a for a, b in zip(outputs, outputs[1:]))  # monotone
        ok &= spec.discretize(spec.boundaries[0] - 1.0)[0] == spec.boundaries[0]
        ok &= spec.discretize(spec.boundaries[-1] + 1.0)[0] == spec.boundaries[-1]
        ok &= spec.discretize(spec.boundaries[-1])[0] == spec.boundaries[-1]
    elapsed = time.time() - started
    report_line(3, ok and checked >= 10_000 and elapsed < 5.0,
                f"{checked} random (x, spec) evaluations: outputs in "
                f"boundary set, monotone, clamps honored; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: gradient suite at 1e-4


def test_criterion_4_gradient_suite():
    started = time.time()
    details = []

    # (a) event-encoder pretraining loss
    values = ("a", "b")
    schema = Schema((FeatureSpec("cat", "categorical", values=values),))
    rng = np.random.default_rng(4)
    seqs = [EventSequence(f"c{i}", [1, 2, 3],
                          {"cat": [values[int(v)] for v in
                                   rng.integers(0, 2, 3)]})
            for i in range(2)]
    ds = Dataset(schema, seqs)
    codec = DatasetCodec.fit(ds)
    emb = EventEmbedder(codec, rng)
    enc = EventEncoder(codec.event_dim,
                       EncoderConfig(d_model=8, heads=2, layers=1, d_ff=12,
                                     max_positions=8), rng)
    heads = NextEventHeads(codec, 8, rng)
    batch, mask = codec.encode_batch(ds.sequences)
    params = {}
    params.update(emb.parameters("emb."))
    params.update(enc.parameters("enc."))
    params.update(heads.parameters("heads."))
    rep_a = grad_check(
        lambda: next_event_loss(enc, heads, emb, batch, mask)[0],
        params, tolerance=1e-4, max_entries=30)
    details.append(f"encoder loss max rel err {rep_a['max_rel_error']:.2e}")

    # (b) two connector blocks
    conn = Connector(ConnectorConfig(queries=2, d_model=8, layers=2, heads=2,
                                     d_enc=6, d_out=8, max_events=16),
                     np.random.default_rng(5))
    enc_out = Tensor(np.random.default_rng(6).normal(size=(4, 6)),
                     requires_grad=True)
    conn_params = dict(conn.parameters("conn."))
    conn_params["enc_out"] = enc_out
    rep_b = grad_check(
        lambda: ad.tsum(ad.mul(conn.connect(enc_out), conn.connect(enc_out))),
        conn_params, tolerance=1e-4, max_entries=30)
    details.append(f"connector max rel err {rep_b['max_rel_error']:.2e}")

    # (c) toy LM with LoRA adapters
    from eventqa.lm import Tokenizer, ToyLm
    tok = Tokenizer.build(["Given", "the", "history", "Answer", "yes"])
    lm = ToyLm(tok, ToyLmConfig(d_model=8, enc_layers=1, dec_layers=1,
                                heads=2, d_ff=12, max_input_len=32,
                                max_output_len=8),
               np.random.default_rng(7))
    apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
               np.random.default_rng(8))
    rows = text_only_input(lm, "Given the history", "Answer yes.")
    rep_c = grad_check(lambda: lm.answer_loss(rows, None),
                       lm.trainable_parameters(), tolerance=1e-4,
                       max_entries=40)
    details.append(f"LM+LoRA max rel err {rep_c['max_rel_error']:.2e}")

    elapsed = time.time() - started
    ok = rep_a["passed"] and rep_b["passed"] and rep_c["passed"]
    report_line(4, ok and elapsed < 60.0,
                "; ".join(details) + f"; {elapsed:.1f}s (budget 60s)")


# ---------------------------------------------------------------------------
# criterion 5: architecture contracts


def test_criterion_5_architecture_contracts(tmp_path):
    started = time.time()
    details = []

    # causal-mask independence, bit identical
    rng = np.random.default_rng(9)
    enc = EventEncoder(8, EncoderConfig(d_model=16, heads=4, layers=2,
                                        d_ff=24, max_positions=12), rng)
    x = rng.normal(size=(2, 8, 8))
    with ad.no_grad():
        base = enc.encode(Tensor(x)).data.copy()
    for i in range(7):
        perturbed = x.copy()
        perturbed[:, i + 1, :] += rng.normal(size=8)
        with ad.no_grad():
            out = enc.encode(Tensor(perturbed)).data
        assert np.array_equal(out[:, :i + 1], base[:, :i + 1]), i
    details.append("causal mask bit-identical")

    # connector arity across lengths
    conn = Connector(ConnectorConfig(queries=8, d_model=16, layers=2, heads=4,
                                     d_enc=8, d_out=24, max_events=512),
                     np.random.default_rng(10))
    for n in (1, 10, 500):
        out = conn.connect(Tensor(np.random.default_rng(n).normal(size=(n, 8))))
        assert out.shape == (8, 24), n
    details.append("connector emits q rows for I in {1,10,500}")

    # LoRA zero-init exact identity
    from eventqa.lm import BOS, Tokenizer, ToyLm
    tok = Tokenizer.build(["Given", "the", "history", "Answer", "yes"])
    lm = ToyLm(tok, ToyLmConfig(d_model=16, enc_layers=1, dec_layers=1,
                                heads=4, d_ff=24, max_input_len=32,
                                max_output_len=8),
               np.random.default_rng(11))
    rows = text_only_input(lm, "Given the history", "Answer yes.")
    with ad.no_grad():
        enc_out, valid = lm.encode(rows, None)
        before = lm.decode(np.array([[BOS]]), enc_out, valid).data.copy()
    apply_lora(lm, LoraConfig(rank=2, alpha=4.0, dropout=0.0),
               np.random.default_rng(12))
    with ad.no_grad():
        enc_out, valid = lm.encode(rows, None)
        after = lm.decode(np.array([[BOS]]), enc_out, valid).data
    assert np.array_equal(before, after)
    details.append("LoRA zero-init identity exact")

    # frozen-weight hash invariance across a full (tiny) fine-tuning run
    from tests.test_pipeline import run_all_stages, tiny_experiment
    cfg = tiny_experiment(seed=31)
    *_, trained_info = run_all_stages(cfg, tmp_path / "tiny")
    assert trained_info["frozen_base_unchanged"]
    assert trained_info["frozen_hash_before"] == \
        trained_info["frozen_hash_after"]
    details.append("frozen hash invariant across fine-tuning")

    elapsed = time.time() - started
    report_line(5, elapsed < 120.0,
                "; ".join(details) + f"; {elapsed:.1f}s (budget 120s)")


# ---------------------------------------------------------------------------
# criterion 6: metric oracles


def test_criterion_6_metric_oracles():
    started = time.time()
    rng = np.random.default_rng(6)

    for i in range(1000):
        n = int(rng.integers(1, 30))
        preds = rng.integers(0, 4, n).tolist()
        truths = rng.integers(0, 4, n).tolist()
        manual_acc = sum(1 for p, t in zip(preds, truths) if p == t) / n
        assert accuracy(preds, truths) == pytest.approx(manual_acc, abs=1e-12)

    for i in range(1000):
        n = int(rng.integers(1, 30))
        preds = rng.integers(0, 2, n).tolist()
        truths = rng.integers(0, 2, n).tolist()
        tp = sum(1 for p, t in zip(preds, truths) if p == 1 and t == 1)
        fp = sum(1 for p, t in zip(preds, truths) if p == 1 and t == 0)
        fn = sum(1 for p, t in zip(preds, truths) if p == 0 and t == 1)
        manual_f1 = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
        assert f1_binary(preds, truths) == pytest.approx(manual_f1, abs=1e-12)

    for i in range(1000):
        n = int(rng.integers(1, 30))
        preds = rng.normal(size=n).tolist()
        truths = rng.normal(size=n).tolist()
        manual_mae = sum(abs(t - p) for p, t in zip(preds, truths)) / n
        manual_mse = sum((t - p) ** 2 for p, t in zip(preds, truths)) / n
        assert mae(preds, truths) == pytest.approx(manual_mae, abs=1e-12)
        assert mse(preds, truths) == pytest.approx(manual_mse, abs=1e-12)

    auc_checked = 0
    for i in range(1000):
        n = int(rng.integers(2, 30))
        scores = (rng.integers(0, 5, n) / 4.0).tolist()
        labels = rng.integers(0, 2, n).tolist()
        if len(set(labels)) < 2:
            continue
        wins = ties = total = 0
        for sp, lp in zip(scores, labels):
            if lp != 1:
                continue
            for sn, ln in zip(scores, labels):
                if ln != 0:
                    continue
                total += 1
                wins += sp > sn
                ties += sp == sn
        oracle = (wins + 0.5 * ties) / total
        value = roc_auc(scores, labels)
        assert value == oracle or abs(value - oracle) < 1e-15
        transformed = [3.0 * s + 2.0 for s in scores]
        assert roc_auc(transformed, labels) == pytest.approx(value, abs=1e-12)
        auc_checked += 1

    elapsed = time.time() - started
    report_line(6, auc_checked > 800 and elapsed < 30.0,
                f"accuracy/F1/MAE/MSE on 1000 instances each, AUC on "
                f"{auc_checked} two-class instances incl. monotone-transform "
                f"invariance; {elapsed:.1f}s (budget 30s)")


# ---------------------------------------------------------------------------
# criterion 7: desk-scale extractive learnability


def test_criterion_7_extractive_learnability(extractive_run):
    report = extractive_run["report"]
    last_acc, last_base, _ = metric_of(report, "last_category", "accuracy")
    mode_acc, mode_base, _ = metric_of(report, "mode_category", "accuracy")
    elapsed = extractive_run["elapsed"]
    ok = (last_acc >= 0.90 and mode_acc >= 0.80
          and last_acc >= last_base + 0.2 and mode_acc >= mode_base + 0.2
          and elapsed < 1800.0)
    report_line(7, ok,
                f"last-category acc {last_acc:.3f} (>=0.90, baseline "
                f"{last_base:.3f}); most-frequent acc {mode_acc:.3f} "
                f"(>=0.80, baseline {mode_base:.3f}); both gaps >= 0.2; "
                f"{elapsed:.0f}s (budget 1800s)")


def test_injected_events_drive_event_dependent_answers(extractive_run):
    """Zeroing the injected rows breaks event questions, not calibration."""
    out = extractive_run["out"]
    model, config, codec, _ = load_pipeline(out)
    val = extractive_run["val"]
    tasks = [t for t in config.built_tasks() if t.task_id == "last_category"]
    pairs, _, texts, _ = run_inference(model, val, tasks, codec, config)
    truths = [p.truth for p in pairs]
    from eventqa.qa import parse_answer
    vocab = list(codec["category"].vocab.values)
    parsed = [parse_answer(t, tasks[0], vocab) for t in texts]
    acc_full = accuracy(parsed, truths)

    # same questions with the event queries zeroed out
    from eventqa.pipeline import make_qa_batch
    sequences = {s.client_id: s for s in val.sequences}
    task_map = {tasks[0].task_id: tasks[0]}
    zero_texts = []
    size = config.eval_batch_size
    for i in range(0, len(pairs), size):
        batch = make_qa_batch(pairs[i:i + size], sequences, task_map, codec,
                              model.lm.tokenizer, config)
        of = batch.window_of  # one tower pass per pair, as a reference
        with ad.no_grad():
            queries = model.event_queries(
                {f: w[of] for f, w in batch.windows.items()},
                batch.window_mask[of])
            zeroed = Tensor(np.zeros_like(queries.data))
            out_texts, _ = model.lm.generate(batch.text, zeroed)
        zero_texts.extend(out_texts)
    parsed_zero = [parse_answer(t, tasks[0], vocab) for t in zero_texts]
    acc_zero = accuracy(parsed_zero, truths)
    assert acc_full - acc_zero > 0.3, (acc_full, acc_zero)

    # event-independent calibration question is unaffected
    with ad.no_grad():
        rows = text_only_input(model.lm, config.prefix, "Answer yes.")
        calib, _ = model.lm.generate(rows, None)
    assert calib[0] == "Yes"


# ---------------------------------------------------------------------------
# criterion 8: desk-scale predictive learnability


def test_criterion_8_predictive_learnability(markov_run):
    report = markov_run["report"]
    acc, base, _ = metric_of(report, "next_category", "accuracy")
    elapsed = markov_run["elapsed"]
    ok = acc >= base + 0.10 and elapsed < 1800.0
    report_line(8, ok,
                f"next-category acc {acc:.3f} vs mode baseline {base:.3f} "
                f"(gap {acc - base:+.3f} >= 0.10); {elapsed:.0f}s "
                f"(budget 1800s)")


# ---------------------------------------------------------------------------
# criterion 9: zero-shot protocol


def test_criterion_9_zero_shot_protocol(extractive_run):
    started = time.time()
    zs = extractive_run["zs_report"]
    tr = zs.tasks[0]
    assert tr.task_id == "least_category"
    parseable_rate = 1.0 - tr.n_unparseable / tr.n_total

    guard_fired = False
    try:
        evaluate_stage(extractive_run["out"], extractive_run["val"],
                       task_ids=["last_category"], zero_shot=True)
    except ConfigError:
        guard_fired = True

    elapsed = time.time() - started
    ok = parseable_rate >= 0.95 and guard_fired and elapsed < 600.0
    report_line(9, ok,
                f"held-out task answers parseable for "
                f"{parseable_rate:.1%} of {tr.n_total} prompts (>=95%); "
                f"trained-task zero-shot evaluation rejected; "
                f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: determinism of the full pipeline


def test_criterion_10_determinism(extractive_run, tmp_path_factory):
    second = run_full_pipeline(extractive_config(),
                               tmp_path_factory.mktemp("extractive_again"))
    h1 = hashlib.sha256(extractive_run["report"].dumps().encode()).hexdigest()
    h2 = hashlib.sha256(second["report"].dumps().encode()).hexdigest()
    z1 = hashlib.sha256(extractive_run["zs_report"].dumps().encode()).hexdigest()
    z2 = hashlib.sha256(second["zs_report"].dumps().encode()).hexdigest()
    elapsed = second["elapsed"]
    ok = h1 == h2 and z1 == z2 and elapsed < 3600.0
    report_line(10, ok,
                f"two identically seeded runs: report hash {h1[:12]}... "
                f"{'==' if h1 == h2 else '!='} {h2[:12]}..., zero-shot hashes "
                f"{'match' if z1 == z2 else 'differ'}; second run "
                f"{elapsed:.0f}s (budget 2x criterion 7)")
