"""Batch training via L-BFGS and per-iteration cost measurement.

The optimizer maximizes the L2-penalized conditional log-likelihood from
crf.log_likelihood_and_gradient, starting from the zero vector over the
full corpus (no minibatching), so training is deterministic: same corpus,
config and alphabet give bit-identical weights. The quasi-Newton loop is
scipy's L-BFGS-B; its relative-reduction stop maps to relative_tolerance
and its projected-gradient stop is pinned at max-norm 1e-8.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import minimize

from .corpus import Sentence, validate_iob2
from .crf import (
    CompiledBatch,
    CrfError,
    compile_sentence,
    log_likelihood_and_gradient,
    pack_batch,
    state_space,
    total_parameters,
)
from .crf_types import ModelOrder
from .features import TemplateConfig, build_feature_index, extract_features
from .induction import LabelAlphabet, build_expanded_alphabet, corpus_entity_types
from .model_io import Model


class TrainingError(Exception):
    """Bad training inputs or a numerically broken objective."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and template settings for one training run."""

    model_order: ModelOrder = ModelOrder.FIRST
    template: TemplateConfig = field(default_factory=TemplateConfig)
    l2_variance: float = 10.0
    max_iterations: int = 500
    relative_tolerance: float = 1e-6
    history_size: int = 7
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "model_order", ModelOrder(self.model_order))
        if not (self.l2_variance > 0):
            raise TrainingError("l2_variance must be strictly positive (inf disables it)")
        if self.max_iterations < 1:
            raise TrainingError("max_iterations must be at least 1")
        if not (self.relative_tolerance > 0):
            raise TrainingError("relative_tolerance must be strictly positive")
        if self.history_size < 1:
            raise TrainingError("history_size must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted optimizer iteration."""

    iteration: int
    objective: float
    gradient_max: float
    seconds: float


@dataclass
class TrainReport:
    """Per-iteration trace plus how and why the run stopped."""

    order: ModelOrder
    feature_set: int
    n_parameters: int
    iterations: list[IterationRecord]
    termination: str
    final_objective: float

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def mean_seconds_per_iteration(self) -> float:
        if not self.iterations:
            return 0.0
        return sum(r.seconds for r in self.iterations) / len(self.iterations)

    def to_records(self) -> list[dict]:
        return [
            {
                "iteration": r.iteration,
                "objective": r.objective,
                "gradient_max": r.gradient_max,
                "seconds": r.seconds,
            }
            for r in self.iterations
        ]

    def to_jsonl(self) -> str:
        lines = [json.dumps(record) for record in self.to_records()]
        lines.append(
            json.dumps(
                {
                    "termination": self.termination,
                    "order": str(self.order),
                    "feature_set": self.feature_set,
                    "n_parameters": self.n_parameters,
                    "final_objective": self.final_objective,
                }
            )
        )
        return "".join(line + "\n" for line in lines)

    def to_text(self) -> str:
        lines = ["%10s  %18s  %12s  %10s" % ("iteration", "objective", "grad max", "seconds")]
        for r in self.iterations:
            lines.append(
                "%10d  %18.8f  %12.4e  %10.4f" % (r.iteration, r.objective, r.gradient_max, r.seconds)
            )
        lines.append(
            "stopped: %s after %d iterations, %.4f s/iteration mean"
            % (self.termination, self.n_iterations, self.mean_seconds_per_iteration)
        )
        return "".join(line + "\n" for line in lines)

    def summary(self) -> str:
        return (
            "trained %s model, feature set %d: %d parameters, %d iterations, "
            "objective %.6f, %.4f s/iteration, stopped on %s"
            % (
                self.order,
                self.feature_set,
                self.n_parameters,
                self.n_iterations,
                self.final_objective,
                self.mean_seconds_per_iteration,
                self.termination,
            )
        )


def _check_finite(objective: float, gradient: np.ndarray) -> None:
    if not np.isfinite(objective):
        raise TrainingError("objective became non-finite: %r" % (objective,))
    bad = np.flatnonzero(~np.isfinite(gradient))
    if bad.size:
        raise TrainingError(
            "gradient became non-finite at slot %d (value %r)"
            % (int(bad[0]), float(gradient[bad[0]]))
        )


def _termination_reason(result) -> str:
    message = result.message
    if isinstance(message, bytes):
        message = message.decode("latin-1")
    if result.status == 1:
        return "max_iterations"
    if result.status == 0:
        upper = message.upper()
        if "REL_REDUCTION" in upper or "RELATIVE REDUCTION" in upper:
            return "tolerance"
        if "PGTOL" in upper or "PROJECTED GRADIENT" in upper:
            return "gradient"
        return "converged"
    return "stopped: %s" % message


def compile_corpus(
    corpus: Sequence[Sentence],
    template: TemplateConfig,
    index,
    space,
) -> CompiledBatch:
    """Repair gold labels, extract features and encode and pack the training
    batch, once, for log_likelihood_and_gradient."""
    compiled = []
    for sentence in corpus:
        if sentence.labels is None:
            raise TrainingError("training corpus contains an unlabeled sentence")
        if len(sentence) == 0:
            raise TrainingError("training corpus contains an empty sentence")
        repaired = validate_iob2(
            sentence.labels, mode="repair", entity_types=space.alphabet.entity_types
        )
        compiled.append(
            compile_sentence(extract_features(sentence, template), repaired, index, space)
        )
    return pack_batch(compiled, index, space)


def train(
    corpus: Sequence[Sentence],
    config: TrainConfig,
    alphabet: LabelAlphabet | None = None,
) -> tuple[Model, TrainReport]:
    """Fit one model on a labeled corpus.

    Gold label sequences are repaired to strict IOB2 first; the pre-induced
    order then runs them through the carrier transform internally, so
    callers always supply plain IOB2. When no alphabet is given, one is
    built from the entity types present in the corpus. Feature extraction
    and indexing happen once, before the optimizer loop, and per-iteration
    wall times exclude them.
    """
    if not corpus:
        raise TrainingError("training corpus is empty")
    if alphabet is None:
        types = corpus_entity_types(corpus)
        if not types:
            raise TrainingError("training corpus has no entity types; pass an alphabet")
        alphabet = build_expanded_alphabet(types)
    space = state_space(config.model_order, alphabet)
    if space.n_states == 0:
        raise TrainingError("state set is empty")
    index = build_feature_index(corpus, config.template, alphabet, config.model_order)
    compiled = compile_corpus(corpus, config.template, index, space)
    n_params = total_parameters(index, space)

    cache: list[tuple[np.ndarray, float, float]] = []

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = log_likelihood_and_gradient(compiled, x, index, space, config.l2_variance)
        _check_finite(value, grad)
        cache.append((x.copy(), -value, float(np.max(np.abs(grad)))))
        del cache[:-4]
        return -value, -grad

    records: list[IterationRecord] = []
    clock = {"last": 0.0}

    def callback(xk: np.ndarray) -> None:
        now = time.perf_counter()
        elapsed = now - clock["last"]
        clock["last"] = now
        for cached_x, f, gmax in reversed(cache):
            if np.array_equal(cached_x, xk):
                break
        else:
            value, grad = log_likelihood_and_gradient(
                compiled, xk, index, space, config.l2_variance
            )
            f, gmax = -value, float(np.max(np.abs(grad)))
        records.append(IterationRecord(len(records) + 1, -f, gmax, elapsed))

    x0 = np.zeros(n_params)
    clock["last"] = time.perf_counter()
    result = minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        callback=callback,
        options={
            "maxiter": config.max_iterations,
            "maxcor": config.history_size,
            "ftol": config.relative_tolerance,
            "gtol": 1e-8,
            "maxfun": max(50 * config.max_iterations, 15000),
        },
    )

    model = Model(
        order=config.model_order,
        alphabet=alphabet,
        template=config.template,
        index=index,
        weights=np.asarray(result.x, dtype=np.float64),
    )
    report = TrainReport(
        order=config.model_order,
        feature_set=config.template.set_id,
        n_parameters=n_params,
        iterations=records,
        termination=_termination_reason(result),
        final_objective=float(-result.fun),
    )
    return model, report


@dataclass(frozen=True)
class TimingRow:
    order: ModelOrder
    measured_iterations: int
    mean_seconds: float
    seconds: tuple[float, ...]


@dataclass
class TimingReport:
    """Mean per-iteration cost per model order, plus pairwise ratios."""

    rows: list[TimingRow]
    warmup: int

    def mean(self, order: ModelOrder) -> float:
        for row in self.rows:
            if row.order == ModelOrder(order):
                return row.mean_seconds
        raise KeyError(str(order))

    @property
    def ratios(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for a in self.rows:
            for b in self.rows:
                if a.order != b.order:
                    out["%s/%s" % (a.order, b.order)] = a.mean_seconds / b.mean_seconds
        return out

    def to_text(self) -> str:
        lines = ["%-12s  %8s  %12s" % ("order", "iters", "s/iteration")]
        for row in self.rows:
            lines.append(
                "%-12s  %8d  %12.4f" % (row.order, row.measured_iterations, row.mean_seconds)
            )
        for name, value in sorted(self.ratios.items()):
            lines.append("ratio %s: %.3f" % (name, value))
        return "".join(line + "\n" for line in lines)

    def to_records(self) -> list[dict]:
        return [
            {
                "order": str(row.order),
                "measured_iterations": row.measured_iterations,
                "mean_seconds": row.mean_seconds,
                "seconds": list(row.seconds),
            }
            for row in self.rows
        ]


def measure_iteration_cost(
    corpus: Sequence[Sentence],
    configs: Sequence[TrainConfig],
    measured: int = 10,
    warmup: int = 2,
    alphabet: LabelAlphabet | None = None,
) -> TimingReport:
    """Wall-clock cost per optimizer iteration on an identical corpus.

    The configs must differ only in model_order, so the comparison isolates
    the state-space size. Each run executes warmup + measured iterations
    with the stopping tolerances effectively disabled; the warm-up
    iterations are discarded. Runs that stop with fewer than three
    measured iterations are an error (the corpus is too easy to time).
    """
    if len(configs) < 2:
        raise TrainingError("need at least two configs to compare iteration cost")
    seen_orders = set()
    reference = replace(configs[0], model_order=ModelOrder.FIRST)
    for config in configs:
        if replace(config, model_order=ModelOrder.FIRST) != reference:
            raise TrainingError("timing configs must differ only in model_order")
        if config.model_order in seen_orders:
            raise TrainingError("duplicate model_order in timing configs")
        seen_orders.add(config.model_order)
    if measured < 3:
        raise TrainingError("need at least three measured iterations")
    if warmup < 0:
        raise TrainingError("warmup must be non-negative")

    if alphabet is None:
        alphabet = build_expanded_alphabet(corpus_entity_types(corpus))

    rows: list[TimingRow] = []
    for config in configs:
        timing_config = replace(
            config,
            max_iterations=warmup + measured,
            relative_tolerance=1e-300,
        )
        _, report = train(corpus, timing_config, alphabet)
        seconds = [r.seconds for r in report.iterations[warmup:]]
        if len(seconds) < 3:
            raise TrainingError(
                "%s run stopped after %d measured iterations; need at least 3"
                % (config.model_order, len(seconds))
            )
        rows.append(
            TimingRow(
                order=config.model_order,
                measured_iterations=len(seconds),
                mean_seconds=sum(seconds) / len(seconds),
                seconds=tuple(seconds),
            )
        )
    return TimingReport(rows=rows, warmup=warmup)
