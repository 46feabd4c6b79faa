"""Command-line interface: train, tag, eval, transform, synth, bench.

Exit codes: 0 on success, 1 on runtime failures (missing files, malformed
input, numerical breakdown), 2 on usage errors (argparse's convention).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .corpus import (
    CorpusError,
    SynthConfig,
    generate_synthetic,
    identity_rule,
    read_conll,
    rotation_rule,
    write_conll,
)
from .crf import CrfError
from .crf_types import ModelOrder
from .evaluation import (
    EvaluationError,
    run_comparison,
    run_longdistance,
    score,
)
from .features import FeatureError, TemplateConfig
from .induction import (
    AlphabetError,
    build_expanded_alphabet,
    corpus_entity_types,
    induce,
    revert,
)
from .model_io import ModelFormatError, load_model, save_model
from .training import TrainConfig, TrainingError, measure_iteration_cost, train

_ORDERS = [str(o) for o in ModelOrder]


def _read_corpus(path: str, labeled: bool = True):
    with open(path, "r", encoding="utf-8") as handle:
        return read_conll(handle, label_column=-1 if labeled else None)


def _read_maybe_labeled(path: str):
    """Read a corpus, treating the last column as gold only if every line has one."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    has_labels = False
    for line in lines:
        if line.strip():
            has_labels = all(len(l.split()) >= 2 for l in lines if l.strip())
            break
    return read_conll(lines, label_column=-1 if has_labels else None)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        model_order=ModelOrder(args.order),
        template=TemplateConfig(set_id=args.features),
        l2_variance=args.l2_variance,
        max_iterations=args.max_iters,
        relative_tolerance=args.tol,
    )


def cmd_train(args) -> int:
    corpus = _read_corpus(args.train)
    types = corpus_entity_types(corpus)
    if not types:
        raise CorpusError("no entity types found in the corpus")
    model, report = train(corpus, _train_config(args), build_expanded_alphabet(types))
    save_model(model, args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_jsonl())
    if args.report_text:
        with open(args.report_text, "w", encoding="utf-8") as handle:
            handle.write(report.to_text())
    print(report.summary())
    print("model written to %s" % args.out)
    return 0


def cmd_tag(args) -> int:
    model = load_model(args.model)
    corpus = _read_maybe_labeled(args.input)
    predicted = [model.decode(s, constrained=args.constrained) for s in corpus]
    text = write_conll(corpus, predicted)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def cmd_eval(args) -> int:
    if args.pred and args.model:
        raise EvaluationError("give either --pred or --model, not both")
    gold_path = args.gold if args.gold else args.input
    gold = _read_corpus(gold_path)
    if args.pred:
        pred_corpus = _read_corpus(args.pred)
        predicted = [s.labels for s in pred_corpus]
    elif args.model:
        model = load_model(args.model)
        predicted = [model.decode(s) for s in gold]
    else:
        raise EvaluationError("need --pred or --model to produce predictions")
    report = score(gold, predicted)
    sys.stdout.write(report.to_text(per_type=args.per_type))
    return 0


def cmd_transform(args) -> int:
    corpus = _read_corpus(args.input)
    types = corpus_entity_types(corpus)
    if not types:
        raise CorpusError("no entity types found in the corpus")
    alphabet = build_expanded_alphabet(types)

    transformed = []
    for sentence in corpus:
        if args.direction == "induce":
            labels = induce(sentence.labels, alphabet)
        else:
            labels = revert(sentence.labels, alphabet)
        transformed.append(replace(sentence, labels=tuple(labels)))
    text = write_conll(transformed)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _synth_config(args) -> SynthConfig:
    config = SynthConfig(
        entity_type_count=args.types,
        sentences=args.sentences,
        seed=args.seed,
        gap_lengths=tuple(range(args.gap_min, args.gap_max + 1)),
    )
    rule = identity_rule if args.rule == "identity" else rotation_rule
    return replace(config, dependency_rule=rule(config.entity_types))


def cmd_synth(args) -> int:
    corpus = generate_synthetic(_synth_config(args))
    text = write_conll(corpus)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _parse_orders(text: str) -> list[ModelOrder]:
    try:
        return [ModelOrder(part.strip()) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise EvaluationError(str(exc)) from None


def _write_records(path: str, records: list[dict]) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def cmd_bench(args) -> int:
    base = TrainConfig(
        template=TemplateConfig(set_id=args.features),
        l2_variance=args.l2_variance,
        max_iterations=args.max_iters,
        relative_tolerance=args.tol,
    )
    orders = _parse_orders(args.orders)

    if args.mode == "longdistance":
        synth = SynthConfig(
            entity_type_count=args.types,
            sentences=args.train_size + args.test_size,
            seed=args.seed,
            gap_lengths=tuple(range(args.gap_min, args.gap_max + 1)),
        )
        rule = identity_rule if args.rule == "identity" else rotation_rule
        synth = replace(synth, dependency_rule=rule(synth.entity_types))
        report = run_longdistance(synth, args.train_size, args.test_size, orders, base)
        sys.stdout.write(report.to_text())
        records = report.to_records()
    elif args.mode == "timing":
        synth = SynthConfig(
            entity_type_count=args.types, sentences=args.sentences, seed=args.seed
        )
        corpus = generate_synthetic(synth)
        configs = [replace(base, model_order=o) for o in orders]
        report = measure_iteration_cost(corpus, configs, measured=args.measured, warmup=args.warmup)
        sys.stdout.write(report.to_text())
        records = report.to_records()
    else:
        train_corpus = _read_corpus(args.train)
        test_corpus = _read_corpus(args.test)
        feature_sets = [int(p) for p in args.feature_sets.split(",") if p.strip()]
        report = run_comparison(train_corpus, test_corpus, orders, feature_sets, base)
        sys.stdout.write(report.to_text())
        records = report.to_records()

    if args.report:
        _write_records(args.report, records)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="picrf",
        description="Chain CRF sequence tagger with carrier-state label induction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a tagger on a CoNLL corpus")
    p.add_argument("--train", required=True, help="labeled CoNLL training file")
    p.add_argument("--order", choices=_ORDERS, default="first")
    p.add_argument("--features", type=int, choices=(1, 2), default=1)
    p.add_argument("--l2-variance", type=float, default=10.0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", required=True, help="model output path")
    p.add_argument("--report", help="write per-iteration records (JSON lines)")
    p.add_argument("--report-text", help="write the per-iteration table as plain text")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", help="decode a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument(
        "--constrained",
        action="store_true",
        help="forbid structurally impossible transitions (pre-induced models only)",
    )
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", help="gold CoNLL file (with --pred)")
    p.add_argument("--pred", help="predictions as a parallel CoNLL file")
    p.add_argument("--model", help="decode with this model instead of --pred")
    p.add_argument("--input", help="gold CoNLL file to decode (with --model)")
    p.add_argument("--per-type", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("transform", help="rewrite labels with the carrier transform")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default="-")
    p.add_argument("--direction", choices=("induce", "revert"), required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("synth", help="generate the long-range dependency corpus")
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--sentences", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--gap-min", type=int, default=1)
    p.add_argument("--gap-max", type=int, default=6)
    p.add_argument("--rule", choices=("identity", "rotate"), default="identity")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("bench", help="comparison, long-distance and timing experiments")
    p.add_argument(
        "mode", choices=("longdistance", "timing", "compare"), help="which experiment to run"
    )
    p.add_argument("--orders", default="first,pre-induced")
    p.add_argument("--features", type=int, choices=(1, 2), default=1)
    p.add_argument("--feature-sets", dest="feature_sets", default="1", help="CSV, compare mode")
    p.add_argument("--l2-variance", type=float, default=10.0)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--types", type=int, default=2)
    p.add_argument("--train-size", type=int, default=2000)
    p.add_argument("--test-size", type=int, default=500)
    p.add_argument("--gap-min", type=int, default=2)
    p.add_argument("--gap-max", type=int, default=6)
    p.add_argument("--rule", choices=("identity", "rotate"), default="identity")
    p.add_argument("--sentences", type=int, default=2000, help="timing corpus size")
    p.add_argument("--measured", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--train", help="training corpus (compare mode)")
    p.add_argument("--test", help="test corpus (compare mode)")
    p.add_argument("--report", help="write result records (JSON lines)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        CorpusError,
        AlphabetError,
        FeatureError,
        CrfError,
        TrainingError,
        ModelFormatError,
        EvaluationError,
        OSError,
        ValueError,
    ) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
