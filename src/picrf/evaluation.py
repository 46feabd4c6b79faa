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
from .induction import build_expanded_alphabet, corpus_entity_types
from .model_io import Model
from .training import TrainConfig, TrainReport, train


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


def score(
    gold_sentences: Sequence[Sentence],
    predicted: Sequence[Sequence[str]],
) -> ScoreReport:
    """Score predicted label sequences against gold sentences.

    A predicted chunk counts as correct only when its type, start and end
    all match a gold chunk. Sentence order does not matter beyond the
    pairing of gold and predicted sequences.
    """
    if len(gold_sentences) != len(predicted):
        raise EvaluationError(
            "%d predicted sequences for %d sentences" % (len(predicted), len(gold_sentences))
        )
    counts: dict[str, list[int]] = {}

    def cell(name: str) -> list[int]:
        return counts.setdefault(name, [0, 0, 0])

    for si, (sentence, pred) in enumerate(zip(gold_sentences, predicted)):
        if sentence.labels is None:
            raise EvaluationError("sentence %d has no gold labels" % si)
        if len(pred) != len(sentence):
            raise EvaluationError(
                "sentence %d: %d tokens but %d predicted labels" % (si, len(sentence), len(pred))
            )
        try:
            gold_chunks = extract_chunks(sentence.labels)
        except CorpusError as exc:
            raise EvaluationError("sentence %d: invalid gold labels: %s" % (si, exc)) from None
        pred_chunks = extract_chunks(validate_iob2(pred, mode="repair"))
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
    order: ModelOrder
    feature_set: int
    score: ScoreReport
    seconds_per_iteration: float
    iterations: int
    termination: str


@dataclass
class ExperimentReport:
    """One ScoreReport and iteration timing per (order, feature set) cell."""

    cells: list[ExperimentCell]

    def cell(self, order: ModelOrder, feature_set: int) -> ExperimentCell:
        for c in self.cells:
            if c.order == ModelOrder(order) and c.feature_set == feature_set:
                return c
        raise KeyError("%s/set%d" % (order, feature_set))

    def to_text(self) -> str:
        lines = [
            "%-12s %4s %10s %10s %10s %12s %8s"
            % ("order", "set", "precision", "recall", "f1", "s/iteration", "iters")
        ]
        for c in self.cells:
            lines.append(
                "%-12s %4d %10.4f %10.4f %10.4f %12.4f %8d"
                % (
                    c.order,
                    c.feature_set,
                    c.score.precision,
                    c.score.recall,
                    c.score.f1,
                    c.seconds_per_iteration,
                    c.iterations,
                )
            )
        return "".join(line + "\n" for line in lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "order": str(c.order),
                "feature_set": c.feature_set,
                "precision": c.score.precision,
                "recall": c.score.recall,
                "f1": c.score.f1,
                "seconds_per_iteration": c.seconds_per_iteration,
                "iterations": c.iterations,
                "termination": c.termination,
            }
            for c in self.cells
        ]


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
    if base_config is None:
        base_config = TrainConfig()
    if not orders or not feature_sets:
        raise EvaluationError("need at least one order and one feature set")
    types = corpus_entity_types(train_corpus, test_corpus)
    if not types:
        raise EvaluationError("no entity types found in the corpora")
    alphabet = build_expanded_alphabet(types)

    cells: list[ExperimentCell] = []
    for order in orders:
        for feature_set in feature_sets:
            config = replace(
                base_config,
                model_order=ModelOrder(order),
                template=replace(base_config.template, set_id=feature_set),
            )
            try:
                model, report = train(train_corpus, config, alphabet)
                predicted = [model.decode(s) for s in test_corpus]
                cell_score = score(test_corpus, predicted)
            except Exception as exc:
                raise EvaluationError(
                    "cell %s/set%d failed: %s" % (order, feature_set, exc)
                ) from exc
            cells.append(
                ExperimentCell(
                    order=ModelOrder(order),
                    feature_set=feature_set,
                    score=cell_score,
                    seconds_per_iteration=report.mean_seconds_per_iteration,
                    iterations=report.n_iterations,
                    termination=report.termination,
                )
            )
    return ExperimentReport(cells=cells)


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
    hits = 0
    for sentence, pred in zip(test_corpus, predicted):
        pos = _second_entity_position(sentence.labels)
        _, gold_type = split_label(sentence.labels[pos])
        try:
            _, pred_type = split_label(pred[pos])
        except CorpusError:
            pred_type = None
        hits += int(pred_type == gold_type)
    return hits / len(test_corpus)


@dataclass
class LongDistanceCell:
    order: ModelOrder
    score: ScoreReport
    second_entity_accuracy: float
    iterations: int
    seconds_per_iteration: float


@dataclass
class LongDistanceReport:
    """Long-range dependency experiment: per-order scores and accuracies."""

    cells: list[LongDistanceCell]
    chance: float
    train_size: int
    test_size: int

    def cell(self, order: ModelOrder) -> LongDistanceCell:
        for c in self.cells:
            if c.order == ModelOrder(order):
                return c
        raise KeyError(str(order))

    def to_text(self) -> str:
        lines = [
            "long-distance experiment: %d train / %d test, chance level %.3f"
            % (self.train_size, self.test_size, self.chance),
            "%-12s %10s %10s %10s %18s"
            % ("order", "precision", "recall", "f1", "second-entity acc"),
        ]
        for c in self.cells:
            lines.append(
                "%-12s %10.4f %10.4f %10.4f %18.4f"
                % (c.order, c.score.precision, c.score.recall, c.score.f1, c.second_entity_accuracy)
            )
        return "".join(line + "\n" for line in lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "order": str(c.order),
                "precision": c.score.precision,
                "recall": c.score.recall,
                "f1": c.score.f1,
                "second_entity_accuracy": c.second_entity_accuracy,
                "chance": self.chance,
            }
            for c in self.cells
        ]


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
    experiment would not isolate label-state propagation.
    """
    if base_config is None:
        base_config = TrainConfig()
    if train_size < 1 or test_size < 1:
        raise EvaluationError("train_size and test_size must be positive")
    radius = base_config.template.window_radius
    min_gap = min(synth.gap_lengths)
    if radius >= min_gap:
        raise EvaluationError(
            "feature window radius %d reaches across the minimum gap %d" % (radius, min_gap)
        )

    corpus = generate_synthetic(replace(synth, sentences=train_size + test_size))
    train_corpus = corpus[:train_size]
    test_corpus = corpus[train_size:]
    alphabet = build_expanded_alphabet(synth.entity_types)

    cells: list[LongDistanceCell] = []
    for order in orders:
        config = replace(base_config, model_order=ModelOrder(order))
        model, report = train(train_corpus, config, alphabet)
        predicted = [model.decode(s) for s in test_corpus]
        cells.append(
            LongDistanceCell(
                order=ModelOrder(order),
                score=score(test_corpus, predicted),
                second_entity_accuracy=second_entity_accuracy(test_corpus, predicted),
                iterations=report.n_iterations,
                seconds_per_iteration=report.mean_seconds_per_iteration,
            )
        )
    return LongDistanceReport(
        cells=cells,
        chance=chance_level(synth),
        train_size=train_size,
        test_size=test_size,
    )
