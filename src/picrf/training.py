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
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import count
from numbers import Integral
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .corpus import Sentence, validate_iob2
from .crf import (
    CompiledBatch,
    compile_sentence,
    log_likelihood_and_gradient,
    pack_batch,
    state_space,
    total_parameters,
)
from .crf_types import ModelOrder
from .features import TemplateConfig, build_feature_index, extract_features
from .induction import LabelAlphabet, corpus_alphabet
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

    def __post_init__(self):
        object.__setattr__(self, "model_order", ModelOrder(self.model_order))
        if not (self.l2_variance > 0):
            raise TrainingError("l2_variance must be strictly positive (inf disables it)")
        if not (self.relative_tolerance > 0):
            raise TrainingError("relative_tolerance must be strictly positive")
        for name in ("max_iterations", "history_size"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 1:
                raise TrainingError("%s must be an integer of at least 1" % name)


@dataclass(frozen=True)
class IterationRecord:
    """One accepted optimizer iteration."""

    iteration: int
    objective: float
    gradient_max: float
    seconds: float
    objective_calls: int


@dataclass
class TrainReport:
    """Per-iteration trace plus how and why the run stopped."""

    order: ModelOrder
    feature_set: int
    n_parameters: int
    iterations: list[IterationRecord]
    termination: str
    final_objective: float
    objective_calls: int

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def calls_per_iteration(self) -> float:
        """Objective calls the optimizer made per accepted iteration."""
        return self.objective_calls / max(1, len(self.iterations))

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
                "objective_calls": r.objective_calls,
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
                    "objective_calls": self.objective_calls,
                    "calls_per_iteration": self.calls_per_iteration,
                }
            )
        )
        return "".join(line + "\n" for line in lines)

    def to_text(self) -> str:
        lines = [
            "%10s  %18s  %12s  %10s  %6s"
            % ("iteration", "objective", "grad max", "seconds", "calls")
        ]
        for r in self.iterations:
            lines.append(
                "%10d  %18.8f  %12.4e  %10.4f  %6d"
                % (r.iteration, r.objective, r.gradient_max, r.seconds, r.objective_calls)
            )
        lines.append(
            "stopped: %s after %d iterations, %.4f s/iteration mean, "
            "%d objective calls (%.2f per iteration)"
            % (
                self.termination,
                self.n_iterations,
                self.mean_seconds_per_iteration,
                self.objective_calls,
                self.calls_per_iteration,
            )
        )
        return "".join(line + "\n" for line in lines)

    def summary(self) -> str:
        return (
            "trained %s model, feature set %d: %d parameters, %d iterations, "
            "objective %.6f, %.4f s/iteration, %.2f objective calls/iteration, "
            "stopped on %s"
            % (
                self.order,
                self.feature_set,
                self.n_parameters,
                self.n_iterations,
                self.final_objective,
                self.mean_seconds_per_iteration,
                self.calls_per_iteration,
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
    callers always supply plain IOB2. When no alphabet is given,
    corpus_alphabet builds one from the corpus labels, raising AlphabetError
    if they name no entity type. Feature extraction and indexing happen
    once, before the optimizer loop, and per-iteration wall times exclude
    them.
    """
    return _train(corpus, config, alphabet)


def _train(
    corpus: Sequence[Sentence],
    config: TrainConfig,
    alphabet: LabelAlphabet | None,
    pause: Callable[[], None] | None = None,
) -> tuple[Model, TrainReport]:
    """train, calling pause (when given) at the end of every iteration; the
    time pause takes counts toward no iteration."""
    if not corpus:
        raise TrainingError("training corpus is empty")
    if alphabet is None:
        alphabet = corpus_alphabet(corpus)
    space = state_space(config.model_order, alphabet)
    index = build_feature_index(corpus, config.template, alphabet, config.model_order)
    compiled = compile_corpus(corpus, config.template, index, space)
    n_params = total_parameters(index, space)

    # clock time and optimizer objective calls at the last iteration's end
    clock = {"last": 0.0, "calls": 0, "calls_before": 0}
    # the value and gradient max the last objective call returned
    latest = [0.0, 0.0]

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        clock["calls"] += 1
        value, grad = log_likelihood_and_gradient(compiled, x, index, space, config.l2_variance)
        _check_finite(value, grad)
        latest[:] = -value, float(np.max(np.abs(grad)))
        return -value, -grad

    records: list[IterationRecord] = []

    def callback(intermediate_result: OptimizeResult) -> None:
        # L-BFGS-B reports an iterate right after evaluating it, so the
        # last objective call is the iterate's
        now = time.perf_counter()
        elapsed = now - clock["last"]
        clock["last"] = now
        f, gmax = latest
        if intermediate_result.fun != f:
            raise TrainingError(
                "optimizer reported objective %r at an iterate, but the last evaluation gave %r"
                % (intermediate_result.fun, f)
            )
        calls = clock["calls"] - clock["calls_before"]
        clock["calls_before"] = clock["calls"]
        records.append(IterationRecord(len(records) + 1, -f, gmax, elapsed, calls))
        if pause is not None:
            waited = time.perf_counter()
            pause()
            clock["last"] += time.perf_counter() - waited

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
        objective_calls=clock["calls"],
    )
    return model, report


# Pause before each turn of measure_iteration_cost. OpenBLAS worker threads
# spin for about 0.1 s after a threaded product, and a turn that starts
# within that time runs slower: on the criterion-6 corpus, on 2 cores, a
# first-order iteration took 15-18 ms right after second-order turns and
# 7-10 ms after a 0.15 s pause.
_TURN_PAUSE = 0.15


class _Stopped(Exception):
    """Ends a training thread that measure_iteration_cost no longer needs."""


class _Turn:
    """A training run in a thread of its own that runs only while it has
    the turn. target(pause) trains, calling pause at each iteration's end;
    step() gives the thread the turn and returns once it calls pause or
    its training returns (result) or raises, which step() raises again."""

    def __init__(self, target: Callable[[Callable[[], None]], object]):
        self._go, self._done = threading.Semaphore(0), threading.Semaphore(0)
        self.finished, self.result, self._error, self._stopping = False, None, None, False
        self._thread = threading.Thread(target=self._run, args=(target,), daemon=True)
        self._thread.start()

    def _run(self, target) -> None:
        self._go.acquire()
        try:
            if not self._stopping:
                self.result = target(self._pause)
        except _Stopped:
            pass
        except BaseException as exc:  # handed to the thread that called step()
            self._error = exc
        finally:
            self.finished = True
            self._done.release()

    def _pause(self) -> None:
        self._done.release()
        self._go.acquire()
        if self._stopping:
            raise _Stopped

    def step(self) -> None:
        self._go.release()
        self._done.acquire()
        if self._error is not None:
            raise self._error

    def stop(self) -> None:
        """End the thread, at its next pause if it is still training."""
        self._stopping = True
        self._go.release()
        self._thread.join()


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

    The runs take turns an iteration at a time: round k runs iteration k of
    every run, in config order in even rounds and in reverse in odd ones,
    so that a slow phase of the machine falls on every order alike rather
    than on one order's whole window. Each run trains in a thread of its
    own, only the thread whose turn it is runs, and the wait for a turn
    (with a pause of _TURN_PAUSE before it, so that one order's BLAS
    threads have gone idle before the next order's turn) counts toward no
    iteration; each run's weights are those train gives.
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
        alphabet = corpus_alphabet(corpus)

    timing = [
        replace(config, max_iterations=warmup + measured, relative_tolerance=1e-300)
        for config in configs
    ]
    turns = [_Turn(partial(_train, corpus, config, alphabet)) for config in timing]
    try:
        for k in count():
            running = [turn for turn in turns if not turn.finished]
            if not running:
                break
            for turn in running if k % 2 == 0 else running[::-1]:
                time.sleep(_TURN_PAUSE)
                turn.step()
    finally:
        for turn in turns:
            turn.stop()

    rows: list[TimingRow] = []
    for config, turn in zip(configs, turns):
        _, report = turn.result
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
