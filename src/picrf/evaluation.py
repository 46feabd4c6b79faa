"""Entity-level scoring and the comparison experiment drivers.

Scoring is exact-span, exact-type matching over IOB2 chunks with
micro-averaged precision, recall and F1. Predicted sequences are repaired
to strict IOB2 before chunk extraction; gold sequences must already be
valid. Zero denominators score zero rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .corpus import (
    CorpusError,
    Sentence,
    SynthConfig,
    extract_chunks,
    generate_synthetic,
    split_label,
    validate_iob2,
)
from .crf_types import ModelOrder
from .features import WINDOW_RADIUS, FeatureError
from .induction import AlphabetError, LabelAlphabet, build_expanded_alphabet, corpus_alphabet
from .training import TrainConfig, _table, train


class EvaluationError(Exception):
    """Misaligned predictions or an invalid experiment setup."""


@dataclass(frozen=True)
class TypeScore:
    gold: int
    predicted: int
    correct: int

    @property
    def precision(self) -> float:
        return self.correct / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.gold if self.gold else 0.0

    @property
    def f1(self) -> float:
        denom = self.precision + self.recall
        return 2.0 * self.precision * self.recall / denom if denom else 0.0


@dataclass(frozen=True)
class ScoreReport:
    """Micro-averaged chunk P/R/F1 with a per-type breakdown."""

    overall: TypeScore
    per_type: Mapping[str, TypeScore]

    @property
    def precision(self) -> float:
        return self.overall.precision

    @property
    def recall(self) -> float:
        return self.overall.recall

    @property
    def f1(self) -> float:
        return self.overall.f1

    def to_text(self, per_type: bool = False) -> str:
        lines = [
            "chunks: gold %d, predicted %d, correct %d"
            % (self.overall.gold, self.overall.predicted, self.overall.correct),
            "precision %.4f  recall %.4f  f1 %.4f"
            % (self.precision, self.recall, self.f1),
        ]
        if per_type:
            for name in sorted(self.per_type):
                ts = self.per_type[name]
                lines.append(
                    "%-12s precision %.4f  recall %.4f  f1 %.4f  (gold %d, predicted %d)"
                    % (name, ts.precision, ts.recall, ts.f1, ts.gold, ts.predicted)
                )
        return "".join(line + "\n" for line in lines)


def _check_pairing(
    gold_sentences: Sequence[Sentence], predicted: Sequence[Sequence[str]]
) -> None:
    """Raise unless there is one predicted label per token of every sentence."""
    if len(gold_sentences) != len(predicted):
        raise EvaluationError(
            "%d predicted sequences for %d sentences" % (len(predicted), len(gold_sentences))
        )
    for si, (sentence, pred) in enumerate(zip(gold_sentences, predicted)):
        if len(pred) != len(sentence):
            raise EvaluationError(
                "sentence %d: %d tokens but %d predicted labels" % (si, len(sentence), len(pred))
            )


def score(
    gold_sentences: Sequence[Sentence],
    predicted: Sequence[Sequence[str]],
) -> ScoreReport:
    """Score predicted label sequences against gold sentences.

    A predicted chunk counts as correct only when its type, start and end
    all match a gold chunk. Sentence order does not matter beyond the
    pairing of gold and predicted sequences.
    """
    _check_pairing(gold_sentences, predicted)
    counts: dict[str, list[int]] = {}

    def cell(name: str) -> list[int]:
        return counts.setdefault(name, [0, 0, 0])

    for si, (sentence, pred) in enumerate(zip(gold_sentences, predicted)):
        if sentence.labels is None:
            raise EvaluationError("sentence %d has no gold labels" % si)
        try:
            gold_chunks = extract_chunks(sentence.labels)
        except CorpusError as exc:
            raise EvaluationError("sentence %d: invalid gold labels: %s" % (si, exc)) from None
        try:
            pred_chunks = extract_chunks(validate_iob2(pred, mode="repair"))
        except CorpusError as exc:
            raise EvaluationError("sentence %d: invalid predicted labels: %s" % (si, exc)) from None
        for chunk in gold_chunks:
            cell(chunk.entity_type)[0] += 1
        for chunk in pred_chunks:
            cell(chunk.entity_type)[1] += 1
        for chunk in gold_chunks & pred_chunks:
            cell(chunk.entity_type)[2] += 1

    per_type = {name: TypeScore(*values) for name, values in counts.items()}
    overall = TypeScore(
        sum(ts.gold for ts in per_type.values()),
        sum(ts.predicted for ts in per_type.values()),
        sum(ts.correct for ts in per_type.values()),
    )
    return ScoreReport(overall=overall, per_type=per_type)


@dataclass(frozen=True)
class ExperimentCell:
    """One trained, decoded and scored cell; second_entity_accuracy is None
    where the experiment does not measure it."""

    order: ModelOrder
    feature_set: int
    score: ScoreReport
    seconds_per_iteration: float
    iterations: int
    termination: str
    second_entity_accuracy: float | None = None


def _record(cell: ExperimentCell, columns: Sequence[tuple[str, str, str]], **more) -> dict:
    """The cell's value of each column's record key, then more. The values
    are the cell's fields, with the order as text, and its score's
    precision, recall and f1."""
    values = dict(vars(cell), order=str(cell.order))
    score = values.pop("score")
    values.update(precision=score.precision, recall=score.recall, f1=score.f1)
    return {**{key: values[key] for _, _, key in columns}, **more}


@dataclass
class ExperimentReport:
    """One ScoreReport and iteration timing per (order, feature set) cell."""

    cells: list[ExperimentCell]

    # (header, value format, record key) of each to_text column
    _COLUMNS = (
        ("order", "%-12s", "order"),
        ("set", "%4d", "feature_set"),
        ("precision", "%10.4f", "precision"),
        ("recall", "%10.4f", "recall"),
        ("f1", "%10.4f", "f1"),
        ("s/iteration", "%12.4f", "seconds_per_iteration"),
        ("iters", "%8d", "iterations"),
    )

    def cell(self, order: ModelOrder, feature_set: int | None = None) -> ExperimentCell:
        """The cell of order, and of feature_set where it is given."""
        for c in self.cells:
            if c.order == ModelOrder(order) and feature_set in (None, c.feature_set):
                return c
        raise KeyError(str(order) if feature_set is None else "%s/set%d" % (order, feature_set))

    def to_text(self) -> str:
        return _table(self._COLUMNS, self.to_records())

    def to_records(self) -> list[dict]:
        return [_record(c, self._COLUMNS, termination=c.termination) for c in self.cells]


def _check_grid(name: str, values: Sequence) -> None:
    """Raise EvaluationError unless an experiment axis is non-empty and
    names each value once."""
    if not values:
        raise EvaluationError("need at least one %s" % name)
    for i, value in enumerate(values):
        if value in values[:i]:
            raise EvaluationError("%s %s is repeated" % (name, value))


def _cell_configs(
    base_config: TrainConfig, orders: Sequence[ModelOrder], feature_sets: Sequence[int]
) -> list[TrainConfig]:
    """The TrainConfig of every (order, feature set) cell, order by order,
    built before any cell trains: a bad order or feature set raises
    EvaluationError naming it."""
    _check_grid("order", orders)
    _check_grid("feature set", feature_sets)
    configs = []
    for order in orders:
        try:
            order = ModelOrder(order)
        except ValueError:
            raise EvaluationError("unknown order %r" % (order,)) from None
        for feature_set in feature_sets:
            try:
                template = replace(base_config.template, set_id=feature_set)
            except FeatureError as exc:
                raise EvaluationError("feature set %r: %s" % (feature_set, exc)) from None
            configs.append(replace(base_config, model_order=order, template=template))
    return configs


def _run_cells(
    train_corpus: Sequence[Sentence],
    test_corpus: Sequence[Sentence],
    configs: Sequence[TrainConfig],
    alphabet: LabelAlphabet,
    second_entity: bool = False,
) -> list[ExperimentCell]:
    """Train, decode and score one cell per config, with the second-entity
    accuracy where second_entity is set. Every cell runs alone, so its
    iteration timing is not polluted by concurrent work; a failure is
    re-raised as EvaluationError naming the cell."""
    cells = []
    for config in configs:
        order, feature_set = config.model_order, config.template.set_id
        try:
            model, report = train(train_corpus, config, alphabet)
            predicted = model.decode_corpus(test_corpus)
            cells.append(
                ExperimentCell(
                    order=order,
                    feature_set=feature_set,
                    score=score(test_corpus, predicted),
                    seconds_per_iteration=report.mean_seconds_per_iteration,
                    iterations=report.n_iterations,
                    termination=report.termination,
                    second_entity_accuracy=(
                        second_entity_accuracy(test_corpus, predicted) if second_entity else None
                    ),
                )
            )
        except Exception as exc:
            raise EvaluationError("cell %s/set%d failed: %s" % (order, feature_set, exc)) from exc
    return cells


def run_comparison(
    train_corpus: Sequence[Sentence],
    test_corpus: Sequence[Sentence],
    orders: Sequence[ModelOrder],
    feature_sets: Sequence[int],
    base_config: TrainConfig | None = None,
) -> ExperimentReport:
    """Train and score every (order, feature set) cell on a shared split.

    All cells share one alphabet built from the union of the corpora's
    entity types, and every cell runs alone, so its iteration timing is
    not polluted by concurrent work. Failures are re-raised naming the
    offending cell.
    """
    configs = _cell_configs(base_config or TrainConfig(), orders, feature_sets)
    try:
        alphabet = corpus_alphabet(train_corpus, test_corpus)
    except AlphabetError as exc:
        raise EvaluationError(str(exc)) from exc
    return ExperimentReport(_run_cells(train_corpus, test_corpus, configs, alphabet))


def chance_level(config: SynthConfig) -> float:
    """Best blind accuracy on the second entity's type.

    The generator draws the first type uniformly and the dependency rule is
    a bijection, so the second type is uniform too; the second entity token
    and every filler are drawn from type-independent vocabularies, so a
    window around the second entity carries no evidence about its type.
    The Bayes-optimal guesser without access to the first entity therefore
    hits 1 / entity_type_count.
    """
    return 1.0 / config.entity_type_count


def _second_entity_position(labels: Sequence[str]) -> int:
    seen = 0
    for i, label in enumerate(labels):
        if label.startswith("B-"):
            seen += 1
            if seen == 2:
                return i
    raise EvaluationError("sentence has no second entity")


def second_entity_accuracy(
    test_corpus: Sequence[Sentence], predicted: Sequence[Sequence[str]]
) -> float:
    """Fraction of sentences whose second entity got the right type."""
    if not test_corpus:
        raise EvaluationError("empty test corpus")
    _check_pairing(test_corpus, predicted)
    hits = 0
    for si, (sentence, pred) in enumerate(zip(test_corpus, predicted)):
        if sentence.labels is None:
            raise EvaluationError("sentence %d has no gold labels" % si)
        pos = _second_entity_position(sentence.labels)
        _, gold_type = split_label(sentence.labels[pos])
        try:
            _, pred_type = split_label(pred[pos])
        except CorpusError:
            pred_type = None
        hits += int(pred_type == gold_type)
    return hits / len(test_corpus)


@dataclass
class LongDistanceReport(ExperimentReport):
    """Long-range dependency experiment: per-order scores, accuracies and
    iteration cost, over one feature set."""

    chance: float
    train_size: int
    test_size: int

    _COLUMNS = (
        ("order", "%-12s", "order"),
        ("precision", "%10.4f", "precision"),
        ("recall", "%10.4f", "recall"),
        ("f1", "%10.4f", "f1"),
        ("second-entity acc", "%18.4f", "second_entity_accuracy"),
        ("s/iteration", "%12.4f", "seconds_per_iteration"),
        ("iters", "%8d", "iterations"),
    )

    def to_text(self) -> str:
        title = "long-distance experiment: %d train / %d test, chance level %.3f" % (
            self.train_size,
            self.test_size,
            self.chance,
        )
        return _table(self._COLUMNS, self.to_records(), head=[title])

    def to_records(self) -> list[dict]:
        return [_record(c, self._COLUMNS, chance=self.chance) for c in self.cells]


def run_longdistance(
    synth: SynthConfig,
    train_size: int,
    test_size: int,
    orders: Sequence[ModelOrder] = (ModelOrder.FIRST, ModelOrder.PRE_INDUCED),
    base_config: TrainConfig | None = None,
) -> LongDistanceReport:
    """Generate the dependency corpus, train each order, score the split.

    The feature window must be narrower than the smallest possible gap;
    otherwise the window itself could see the first entity and the
    experiment would not isolate label-state propagation. Every cell runs
    alone, and a failure is re-raised naming the offending cell, as in
    run_comparison.
    """
    if base_config is None:
        base_config = TrainConfig()
    configs = _cell_configs(base_config, orders, [base_config.template.set_id])
    if train_size < 1 or test_size < 1:
        raise EvaluationError("train_size and test_size must be positive")
    min_gap = min(synth.gap_lengths)
    if WINDOW_RADIUS >= min_gap:
        raise EvaluationError(
            "feature window radius %d reaches across the minimum gap %d" % (WINDOW_RADIUS, min_gap)
        )

    corpus = generate_synthetic(replace(synth, sentences=train_size + test_size))
    alphabet = build_expanded_alphabet(synth.entity_types)
    return LongDistanceReport(
        cells=_run_cells(corpus[:train_size], corpus[train_size:], configs, alphabet, True),
        chance=chance_level(synth),
        train_size=train_size,
        test_size=test_size,
    )
