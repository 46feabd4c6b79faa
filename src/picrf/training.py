"""Batch training via L-BFGS and per-iteration cost measurement.

The optimizer maximizes the L2-penalized conditional log-likelihood from
crf.log_likelihood_and_gradient, starting from the zero vector over the
full corpus (no minibatching), so training is deterministic: same corpus,
config and alphabet give bit-identical weights. The quasi-Newton loop is
_lbfgs, an unconstrained L-BFGS (Liu & Nocedal 1989) written as a
generator that yields after every iteration, so train times each
iteration by one next() and measure_iteration_cost interleaves the
iterations of several orders in one thread. It stops as L-BFGS-B does:
on a relative reduction of the objective below relative_tolerance
("tolerance"), a gradient of max-norm 1e-8 or less ("gradient") or
max_iterations; a line search that finds no sufficient decrease within
20 objective calls stops it as "line_search".
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import asdict, dataclass, field, replace
from itertools import count
from numbers import Integral, Real
from typing import Callable, Generator, Mapping, NamedTuple, Sequence

import numpy as np

from .corpus import Sentence, validate_iob2
from .crf import (
    CompiledBatch,
    compile_sentence,
    log_likelihood_and_gradient,
    pack_batch,
    release_scratch,
    state_space,
    total_parameters,
)
from .crf_types import ModelOrder
from .features import FeatureIndex, TemplateConfig, build_feature_index, extract_features
from .induction import LabelAlphabet, corpus_alphabet
from .model_io import Model

try:
    import resource
except ImportError:  # not on every platform (Windows)
    resource = None


class TrainingError(Exception):
    """Bad training inputs or a numerically broken objective."""


def _check_type(name: str, value, kind: type) -> None:
    """Raise TrainingError naming the setting unless value is a kind,
    numbers.Integral or numbers.Real, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is Integral else "a number"
        raise TrainingError("%s must be %s, got %r" % (name, what, value))


# the precision and type of a %-conversion, which a header drops
_CONVERSION = re.compile(r"(\.\d+)?[a-z]$")


def _table(
    columns: Sequence[tuple[str, str, str]],
    records: Sequence[Mapping],
    gap: str = " ",
    head: Sequence[str] = (),
    foot: Sequence[str] = (),
) -> str:
    """Fixed-width text of records: the head lines, a header line, a line
    per record and the foot lines. Each column is (header, value format,
    record key), joined to the next by gap, and a column whose key some
    record lacks is left out. A header takes the width and flags of its
    value format: "%10.4f" formats its header by "%10s"."""
    columns = [c for c in columns if all(c[2] in record for record in records)]
    header = gap.join(_CONVERSION.sub("s", fmt) for _, fmt, _ in columns)
    line = gap.join(fmt for _, fmt, _ in columns)
    lines = [
        *head,
        header % tuple(name for name, _, _ in columns),
        *(line % tuple(record[key] for _, _, key in columns) for record in records),
        *foot,
    ]
    return "".join(text + "\n" for text in lines)


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and template settings for one training run."""

    model_order: ModelOrder = ModelOrder.FIRST
    template: TemplateConfig = field(default_factory=TemplateConfig)
    l2_variance: float = 10.0
    max_iterations: int = 500
    relative_tolerance: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "model_order", ModelOrder(self.model_order))
        _check_type("l2_variance", self.l2_variance, Real)
        _check_type("max_iterations", self.max_iterations, Integral)
        _check_type("relative_tolerance", self.relative_tolerance, Real)
        if not (self.l2_variance > 0):
            raise TrainingError("l2_variance must be strictly positive (inf disables it)")
        if not (self.relative_tolerance > 0):
            raise TrainingError("relative_tolerance must be strictly positive")
        if self.max_iterations < 1:
            raise TrainingError("max_iterations must be an integer of at least 1")


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

    # (header, value format, record key) of each to_text column
    _COLUMNS = (
        ("iteration", "%10d", "iteration"),
        ("objective", "%18.8f", "objective"),
        ("grad max", "%12.4e", "gradient_max"),
        ("seconds", "%10.4f", "seconds"),
        ("calls", "%6d", "objective_calls"),
    )
    # the keys of the last line of to_jsonl, after the iteration records
    _SUMMARY = (
        "termination",
        "order",
        "feature_set",
        "n_parameters",
        "final_objective",
        "objective_calls",
        "calls_per_iteration",
    )

    def to_records(self) -> list[dict]:
        return [asdict(r) for r in self.iterations]

    def to_jsonl(self) -> str:
        summary = {key: getattr(self, key) for key in self._SUMMARY}
        return "".join(json.dumps(record) + "\n" for record in [*self.to_records(), summary])

    def to_text(self) -> str:
        stopped = (
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
        return _table(self._COLUMNS, self.to_records(), "  ", foot=[stopped])

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


def _max_abs(gradient: np.ndarray) -> float:
    """max |gradient|, with no n-length temporary; NaN if any entry is NaN."""
    return max(abs(float(gradient.max())), abs(float(gradient.min())))


def _check_finite(objective: float, gradient: np.ndarray) -> None:
    if not np.isfinite(objective):
        raise TrainingError("objective became non-finite: %r" % (objective,))
    if not np.isfinite(_max_abs(gradient)):
        bad = int(np.flatnonzero(~np.isfinite(gradient))[0])
        raise TrainingError(
            "gradient became non-finite at slot %d (value %r)" % (bad, float(gradient[bad]))
        )


# L-BFGS-B's defaults: the (s, y) pairs the direction uses, the
# sufficient-decrease constant of the line search (dcsrch's ftol), the
# gradient max-norm at which training stops, and the objective calls one
# line search may make.
_HISTORY = 7
_ARMIJO = 1e-3
_GRADIENT_STOP = 1e-8
_LINE_SEARCH_CALLS = 20

# value and gradient of a function of the weights
_Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


class _Iterate(NamedTuple):
    """A point _lbfgs reached, with the objective calls made so far."""

    x: np.ndarray
    fun: float
    gradient_max: float
    calls: int


class _History:
    """The (s, y) pairs of an L-BFGS run, at most _HISTORY of them, in a
    ring of rows, with the two n-length scratch vectors of the run: d, the
    direction, and work. rows lists the ring rows that hold pairs, oldest
    first, and rho[i] is 1 / s[i]·y[i]. A row holds the very arrays add()
    was given, which _lbfgs has finished with, so storing a pair copies
    nothing, and an evicted pair's arrays are dropped. The rows are
    separate vectors, not one (_HISTORY, n) block: in the lexical
    benchmark workload such a block raised the peak resident set by 11-13%,
    separate rows by 2-4%."""

    def __init__(self, n: int):
        self.s: list[np.ndarray] = []
        self.y: list[np.ndarray] = []
        self.rho = np.empty(_HISTORY)
        self.rows: list[int] = []
        self.d, self.work = np.empty(n), np.empty(n)

    def add(self, s: np.ndarray, y: np.ndarray) -> None:
        """Keep the pair (s, y), in place of the oldest when the ring is
        full; a pair with s·y <= 0 is not stored. The caller must not write
        to s or y afterwards."""
        sy = float(s @ y)
        if sy <= 0:
            return
        if len(self.rows) < _HISTORY:
            row = len(self.rows)
            self.s.append(s)
            self.y.append(y)
        else:
            row = self.rows.pop(0)
            self.s[row], self.y[row] = s, y
        self.rho[row] = 1.0 / sy
        self.rows.append(row)

    def direction(self, g: np.ndarray) -> np.ndarray:
        """-H g in d by the two-loop recursion, for H the inverse-Hessian
        estimate from the stored pairs; -g without pairs."""
        s, y, rho, work = self.s, self.y, self.rho, self.work
        d = np.negative(g, out=self.d)
        alphas = []
        for i in reversed(self.rows):
            alphas.append(rho[i] * (s[i] @ d))
            d -= np.multiply(y[i], alphas[-1], out=work)
        if self.rows:
            newest = self.rows[-1]
            d *= 1.0 / (rho[newest] * (y[newest] @ y[newest]))
        for i, alpha in zip(self.rows, reversed(alphas)):
            d += np.multiply(s[i], alpha - rho[i] * (y[i] @ d), out=work)
        return d


def _lbfgs(
    fun: _Objective, x: np.ndarray, max_iterations: int, tolerance: float
) -> Generator[_Iterate, None, tuple[str, _Iterate]]:
    """Minimize fun from x by L-BFGS, yielding each iterate; return the
    stop reason and the last point.

    The line search starts at step 1, or at 1/|g| along -g when no pair is
    stored, and backtracks to the minimizer of the quadratic through f(0),
    f'(0) and f(t), kept within [t/10, t/2], until f falls by _ARMIJO of
    the linear prediction. A direction that rounding has made not downhill
    gets no line search. A step with s·y <= 0, which the L2 penalty rules
    out, stores no pair.

    Once a step is taken, s = x_new - x is written into x and y = g_new -
    g into g, and _History keeps those arrays as the pair, so an iteration
    allocates no n-length vector beyond the x_new it passes to fun and the
    gradient fun returns. So an iterate's x is valid until the next
    iterate is yielded; the last one, which _lbfgs returns, stays valid.
    Every x passed to fun is a fresh array, and the caller's x is not
    written to. fun must return its gradient in a new array, one that
    shares no memory with the x it was given, and must not write to it
    again: s is written over the old x, so a gradient that is, or is a
    view of, its x would make s and y the same array.
    """
    x = np.array(x, dtype=np.float64)
    f, g = fun(x)
    calls = 1
    history = _History(x.size)
    for iteration in count():
        iterate = _Iterate(x, f, _max_abs(g), calls)
        if iteration:
            yield iterate
        if iterate.gradient_max <= _GRADIENT_STOP:
            return "gradient", iterate
        if iteration and f_old - f <= tolerance * max(abs(f_old), abs(f), 1.0):
            return "tolerance", iterate
        if iteration >= max_iterations:
            return "max_iterations", iterate
        d = history.direction(g)
        step = 1.0 if history.rows else 1.0 / np.linalg.norm(g)
        slope = g @ d
        for _ in range(_LINE_SEARCH_CALLS if slope < 0 else 0):
            x_new = x + np.multiply(d, step, out=history.work)
            f_new, g_new = fun(x_new)
            calls += 1
            if f_new <= f + _ARMIJO * step * slope:
                break
            quadratic = -slope * step * step / (2.0 * (f_new - f - slope * step))
            step = min(max(quadratic, 0.1 * step), 0.5 * step)
        else:
            return "line_search", iterate._replace(calls=calls)
        # x and g are spent: they become s and y
        history.add(np.subtract(x_new, x, out=x), np.subtract(g_new, g, out=g))
        f_old, x, f, g = f, x_new, f_new, g_new


class Minimum(NamedTuple):
    """Where minimize stopped, with the value, gradient max-norm, objective
    calls and seconds of each iteration."""

    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    termination: str
    trace: tuple[tuple[float, float, int, float], ...]


def minimize(fun: _Objective, x0: np.ndarray, max_iterations: int, tolerance: float) -> Minimum:
    """Run _lbfgs from x0 to its stop, timing every iteration."""
    iterations = _lbfgs(fun, x0, max_iterations, tolerance)
    trace, calls = [], 0
    while True:
        start = time.perf_counter()
        try:
            iterate = next(iterations)
        except StopIteration as stop:
            termination, end = stop.value
            return Minimum(end.x, end.fun, len(trace), end.calls, termination, tuple(trace))
        seconds = time.perf_counter() - start
        trace.append((iterate.fun, iterate.gradient_max, iterate.calls - calls, seconds))
        calls = iterate.calls


def compile_corpus(
    corpus: Sequence[Sentence],
    template: TemplateConfig,
    index,
    space,
) -> CompiledBatch:
    """Repair gold labels, extract features and encode and pack the training
    batch, once, for log_likelihood_and_gradient: each sentence by its own
    validate_iob2, extract_features and compile_sentence calls (one array
    of feature ids), then the whole batch by one pack_batch."""
    compiled = []
    for sentence in corpus:
        if sentence.labels is None:
            raise TrainingError("training corpus contains an unlabeled sentence")
        repaired = validate_iob2(
            sentence.labels, mode="repair", entity_types=space.alphabet.entity_types
        )
        compiled.append(
            compile_sentence(extract_features(sentence, template), repaired, index, space)
        )
    return pack_batch(compiled, index, space)


def _objective(
    corpus: Sequence[Sentence], config: TrainConfig, alphabet: LabelAlphabet
) -> tuple[FeatureIndex, int, _Objective]:
    """Index the corpus's features and compile its batch, once; return the
    index, the weight count and the negated penalized log-likelihood with
    its gradient as a function of the weights."""
    space = state_space(config.model_order, alphabet)
    index = build_feature_index(corpus, config.template, alphabet, config.model_order)
    compiled = compile_corpus(corpus, config.template, index, space)

    def objective(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = log_likelihood_and_gradient(compiled, x, index, space, config.l2_variance)
        _check_finite(value, grad)
        return -value, np.negative(grad, out=grad)

    return index, total_parameters(index, space), objective


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
    them. The objective's scratch arena is freed on return.
    """
    if not corpus:
        raise TrainingError("training corpus is empty")
    if alphabet is None:
        alphabet = corpus_alphabet(corpus)
    index, n_params, objective = _objective(corpus, config, alphabet)
    try:
        result = minimize(
            objective, np.zeros(n_params), config.max_iterations, config.relative_tolerance
        )
    finally:
        release_scratch()

    records = [
        IterationRecord(k, -fun, gradient_max, seconds, calls)
        for k, (fun, gradient_max, calls, seconds) in enumerate(result.trace, 1)
    ]
    model = Model(
        order=config.model_order,
        alphabet=alphabet,
        template=config.template,
        index=index,
        weights=result.x,
    )
    report = TrainReport(
        order=config.model_order,
        feature_set=config.template.set_id,
        n_parameters=n_params,
        iterations=records,
        termination=result.termination,
        final_objective=float(-result.fun),
        objective_calls=result.nfev,
    )
    return model, report


# Pause before each turn of measure_iteration_cost. OpenBLAS worker threads
# spin for about 0.1 s after a threaded product, and a turn that starts
# within that time runs slower: on the criterion-6 corpus, on 2 cores, a
# first-order iteration took 15-18 ms right after second-order turns and
# 7-10 ms after a 0.15 s pause.
_TURN_PAUSE = 0.15


@dataclass(frozen=True)
class TimingRow:
    """One order's measured iterations; faults_per_iteration is the mean
    count of minor page faults per iteration, None where the resource
    module is unavailable."""

    order: ModelOrder
    measured_iterations: int
    mean_seconds: float
    seconds: tuple[float, ...]
    faults_per_iteration: float | None


@dataclass
class TimingReport:
    """Mean per-iteration cost per model order, plus pairwise ratios."""

    rows: list[TimingRow]

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

    # (header, value format, record key) of each to_text column; a row
    # without a fault count leaves the last column out
    _COLUMNS = (
        ("order", "%-12s", "order"),
        ("iters", "%8d", "measured_iterations"),
        ("s/iteration", "%12.4f", "mean_seconds"),
        ("faults/iter", "%11.1f", "faults_per_iteration"),
    )

    def to_text(self) -> str:
        ratios = ["ratio %s: %.3f" % item for item in sorted(self.ratios.items())]
        return _table(self._COLUMNS, self.to_records(), "  ", foot=ratios)

    def to_records(self) -> list[dict]:
        """Each row's fields, with the order as text, the seconds as a list
        and no faults_per_iteration where it is None."""
        records = [dict(asdict(r), order=str(r.order), seconds=list(r.seconds)) for r in self.rows]
        return [{key: value for key, value in r.items() if value is not None} for r in records]


def _minor_faults() -> int | None:
    """Minor page faults of this process so far; None without resource."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure_iteration_cost(
    corpus: Sequence[Sentence],
    configs: Sequence[TrainConfig],
    measured: int = 10,
    warmup: int = 2,
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
    than on one order's whole window. Every run is set up before the first
    round, each turn is one next() of its run's _lbfgs, and a pause of
    _TURN_PAUSE before each turn, so that one order's BLAS threads have
    gone idle before the next order's turn, counts toward no iteration.
    Each row also counts the minor page faults of its measured turns. The
    objective's scratch arena is freed on return.
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
    _check_type("measured", measured, Integral)
    _check_type("warmup", warmup, Integral)
    if measured < 3:
        raise TrainingError("need at least three measured iterations")
    if warmup < 0:
        raise TrainingError("warmup must be non-negative")

    alphabet = corpus_alphabet(corpus)
    total = warmup + measured
    runs = []
    for config in configs:
        _, n_params, objective = _objective(corpus, config, alphabet)
        runs.append(_lbfgs(objective, np.zeros(n_params), total, 1e-300))
    seconds: list[list[float]] = [[] for _ in runs]
    faults: list[list[int]] = [[] for _ in runs]
    running = list(range(len(runs)))
    try:
        for k in range(total):
            for i in running[:: -1 if k % 2 else 1]:
                time.sleep(_TURN_PAUSE)
                before = _minor_faults()
                start = time.perf_counter()
                if next(runs[i], None) is None:
                    running.remove(i)
                else:
                    seconds[i].append(time.perf_counter() - start)
                    if before is not None:
                        faults[i].append(_minor_faults() - before)
    finally:
        release_scratch()

    rows: list[TimingRow] = []
    for config, times, counts in zip(configs, seconds, faults):
        times, counts = times[warmup:], counts[warmup:]
        if len(times) < 3:
            raise TrainingError(
                "%s run stopped after %d measured iterations; need at least 3"
                % (config.model_order, len(times))
            )
        rows.append(
            TimingRow(
                order=config.model_order,
                measured_iterations=len(times),
                mean_seconds=sum(times) / len(times),
                seconds=tuple(times),
                faults_per_iteration=sum(counts) / len(counts) if counts else None,
            )
        )
    return TimingReport(rows=rows)
