"""Command-line interface.

Subcommands follow the staged build: generate-data, fit-codec,
pretrain-encoder, warmup-lm, train, eval, ask, baseline. Every command takes
the experiment config as JSON; dotted --set overrides tweak single fields.
Exit codes: 0 ok, 2 config error, 3 data error, 4 numerical divergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checkpoint import atomic_write_text, load_sidecar
from .codec import DatasetCodec
from .errors import ConfigError, DataError, DivergenceError
from .metrics import score_baselines
from .pipeline import (ExperimentConfig, ask, evaluate_stage, fit_codec_stage,
                       generate_data, load_splits, pretrain_encoder_stage,
                       train_stage, warmup_lm_stage)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _apply_overrides(payload: dict, overrides: list[str]) -> dict:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = payload
        parts = key.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value
    return payload


def _load_config(args) -> ExperimentConfig:
    path = Path(args.config)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    payload = _apply_overrides(payload, args.set or [])
    if args.seed is not None:
        payload["seed"] = args.seed
    return ExperimentConfig.from_json(payload)


def cmd_generate_data(args) -> int:
    config = _load_config(args)
    info = generate_data(config, args.out)
    print(f"wrote {info['n_clients']} clients to {info['path']}")
    return EXIT_OK


def cmd_fit_codec(args) -> int:
    config = _load_config(args)
    _, train, _ = load_splits(config, args.data)
    codec = fit_codec_stage(config, train)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    codec.save(out / "codec.json")
    print(f"fitted codec for {len(codec.feature_names)} features "
          f"(event dim {codec.event_dim}) -> {out / 'codec.json'}")
    return EXIT_OK


def _load_or_fit_codec(config: ExperimentConfig, args, train) -> DatasetCodec:
    out = Path(args.out)
    codec_path = out / "codec.json"
    if codec_path.exists():
        return DatasetCodec.load(codec_path)
    codec = fit_codec_stage(config, train)
    out.mkdir(parents=True, exist_ok=True)
    codec.save(codec_path)
    return codec


def cmd_pretrain_encoder(args) -> int:
    config = _load_config(args)
    _, train, _ = load_splits(config, args.data)
    codec = _load_or_fit_codec(config, args, train)
    info = pretrain_encoder_stage(config, train, codec, args.out,
                                  resume=args.resume)
    print(f"pretrained encoder: loss {info['initial_loss']:.4f} -> "
          f"{info['final_loss']:.4f} over {info['steps']} steps; "
          f"checkpoint {info['checkpoint']}")
    return EXIT_OK


def cmd_warmup_lm(args) -> int:
    config = _load_config(args)
    _, train, _ = load_splits(config, args.data)
    codec = _load_or_fit_codec(config, args, train)
    info = warmup_lm_stage(config, codec, args.out)
    print(f"warmed up language model (vocab {info['vocab_size']}), final "
          f"loss {info['final_loss']:.4f}; checkpoint {info['checkpoint']}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _load_config(args)
    _, train, val = load_splits(config, args.data)
    codec = _load_or_fit_codec(config, args, train)
    info = train_stage(config, train, val, codec, args.out)
    print(f"trained pipeline: final loss {info['final_loss']:.4f}, "
          f"validation parseable rate {info['val_parseable_rate']:.3f}; "
          f"checkpoint {info['checkpoint']}")
    return EXIT_OK


def cmd_eval(args) -> int:
    task_ids = args.tasks.split(",") if args.tasks else None
    sidecar = load_sidecar(Path(args.out) / "pipeline.json")
    config = ExperimentConfig.from_json(sidecar["config"])
    _, train, val = load_splits(config, args.data)
    dataset = train if args.split == "train" else val
    report = evaluate_stage(args.out, dataset, task_ids=task_ids,
                            zero_shot=args.zero_shot, train_split=train)
    print(report.render_table())
    if args.report:
        atomic_write_text(Path(args.report), report.dumps())
        print(f"report written to {args.report}")
    return EXIT_OK


def cmd_ask(args) -> int:
    result = ask(args.out, args.sequence, args.question)
    print(f"generation: {result['generation']!r}")
    if result["parsed"] is not None:
        print(f"parsed: {result['parsed']!r}")
    else:
        print(f"unparseable: {result['unparseable_reason']}")
    if "score" in result:
        print(f"score (p(Yes) - p(No)): {result['score']:+.4f}")
    return EXIT_OK


def cmd_baseline(args) -> int:
    config = _load_config(args)
    _, train, val = load_splits(config, args.data)
    codec = fit_codec_stage(config, train)
    tasks = (config.select_tasks(args.tasks.split(",")) if args.tasks
             else config.built_tasks())
    val_pairs = config.corpus(val, tasks, codec)
    for task in tasks:
        truths = [p.truth for p in val_pairs if p.task_id == task.task_id]
        if not truths:
            continue
        train_truths = [p.truth for p in config.corpus(train, [task], codec)]
        for kind, metrics in score_baselines(task, train_truths,
                                             truths).items():
            for name, value in sorted(metrics.items()):
                if value is not None:
                    print(f"{task.task_id:24s} {kind:8s} {name:10s} "
                          f"{value:.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventqa",
        description="Question answering over structured event sequences")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_args(p):
        p.add_argument("--config", required=True,
                       help="experiment config JSON")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="dotted config override, e.g. train.epochs=2")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")

    def common(p):
        config_args(p)
        p.add_argument("--data", default=None,
                       help="directory with dataset.jsonl/schema.json "
                            "(default: regenerate from the config)")

    p = sub.add_parser("generate-data", help="write a synthetic dataset")
    config_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate_data)

    p = sub.add_parser("fit-codec", help="fit value codecs on the train split")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_codec)

    p = sub.add_parser("pretrain-encoder",
                       help="next-event pretraining of the event encoder")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in --out")
    p.set_defaults(func=cmd_pretrain_encoder)

    p = sub.add_parser("warmup-lm",
                       help="train the text model on the answer vocabulary")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_warmup_lm)

    p = sub.add_parser("train", help="end-to-end fine-tuning (frozen LM + LoRA)")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained pipeline")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--data", default=None)
    p.add_argument("--split", choices=("train", "val"), default="val")
    p.add_argument("--tasks", default=None, help="comma-separated task ids")
    p.add_argument("--zero-shot", action="store_true")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ask", help="answer one question about one sequence")
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.add_argument("--sequence", required=True, help="JSONL file; first line used")
    p.add_argument("--question", required=True)
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("baseline", help="statistical baselines on the val split")
    common(p)
    p.add_argument("--tasks", default=None, help="comma-separated task ids")
    p.set_defaults(func=cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except DivergenceError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
