"""picrf benchmark: one command for every workload, traced or not.

    python3 benchmarks/run.py --workload longdist --seed 0 --seconds 35 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are every end-to-end metric BENCHMARK.json declares, measured
with no wrappers in place. With ``--trace 1`` they are every declared
per-layer metric:
rounds alternate between traced and untraced, per-layer numbers come from
the traced rounds, and the difference between the two kinds of round is
the tracing overhead. Spans and run metadata go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

LAYERS = ("corpus", "features", "induction", "crf", "training", "model_io", "cli")
# span name -> per-layer metric holding the span's self time
SELF_TIME_METRICS = {
    "crf.objective": "crf.objective_s",
    "crf.compile": "crf.compile_s",
    "crf.lattice": "crf.lattice_s",
    "crf.viterbi": "crf.viterbi_s",
    "training.minimize": "training.optimizer_s",
    "features.extract": "features.extract_s",
    "features.index": "features.index_s",
    "induction.induce": "induction.induce_s",
    "induction.revert": "induction.revert_s",
    "model_io.save": "model_io.save_s",
    "model_io.load": "model_io.load_s",
    "corpus.read": "corpus.read_s",
    "corpus.write": "corpus.write_s",
    "corpus.generate": "corpus.generate_s",
}


def declared_metrics():
    """Name -> unit of the end-to-end and of the per-layer metrics BENCHMARK.json declares."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple({m["name"]: m["unit"] for m in doc[key]} for key in ("end_to_end", "per_layer"))


def select(values, units):
    """The declared metrics, each with its unit; every one must have been measured."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit("benchmark: no value for declared metrics %s" % ", ".join(missing))
    return {name: {"value": values[name], "unit": units[name]} for name in sorted(units)}


def import_picrf():
    """Put the checkout's ``src/`` first on the path; refuse any other picrf."""
    package = ROOT / "src" / "picrf"
    if not (package / "__init__.py").is_file():
        raise SystemExit("benchmark: no picrf sources at %s" % package)
    sys.path.insert(0, str(ROOT / "src"))
    import picrf

    if Path(picrf.__file__).resolve().parent != package.resolve():
        raise SystemExit("benchmark: imported picrf from %s, not %s" % (picrf.__file__, package))


# Timings are reported in nominal seconds: measured seconds times
# REFERENCE_NOMINAL_S over the wall time of the reference computation,
# measured next to them. That cancels the machine's own changes of speed
# (README.md, "Nominal seconds").
REFERENCE_NOMINAL_S = 0.010
# references on each side of an operation that scale its time
REFERENCE_WINDOW = 12
REFERENCE_ARRAY = np.linspace(-3.0, 3.0, 20000)
REFERENCE_TABLE = np.linspace(0.0, 1.0, 1 << 21)
REFERENCE_INDEX = np.random.default_rng(0).integers(0, 1 << 21, 100000)


def reference_seconds():
    """Wall time of a fixed computation that runs no picrf code.

    It mixes the kinds of work picrf spends its time on: an interpreted
    Python loop, numpy exp/sum/log over a cache-sized array, and a numpy
    gather from a table far larger than the caches.
    """
    began = time.perf_counter()
    total = 0
    for i in range(80000):
        total += i * i
    for _ in range(100):
        np.log(np.sum(np.exp(REFERENCE_ARRAY)))
    for _ in range(4):
        np.sum(REFERENCE_TABLE[REFERENCE_INDEX])
    return time.perf_counter() - began


def nominal(seconds, references):
    """Measured seconds in nominal seconds, given reference times taken around them."""
    return seconds * REFERENCE_NOMINAL_S / statistics.median(references)


class Recorder:
    """Operation counts, failures and per-round samples of one kind of round."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # plain values; timings are kept in ``timed``
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.references: list[float] = []
        self.reference_time = 0.0
        self.notes: dict[str, dict] = {}
        # (metric, measured seconds, work or None, index of the reference after it)
        self.timed: list[tuple[str, float, float | None, int]] = []

    def reference(self):
        """Run the reference computation once and keep its wall time."""
        ref = reference_seconds()
        self.references.append(ref)
        self.reference_time += ref

    @contextlib.contextmanager
    def op(self, kind, order):
        """One operation: counted, and failed if its body raises.

        Its garbage collector state is that of a fresh process: what
        earlier operations left is collected, and what survives is
        frozen, so the collector's passes inside the operation scan only
        the objects the operation makes.
        """
        self.attempted += 1
        gc.collect()
        gc.freeze()
        self.reference()
        try:
            with self.stage(kind, order):
                yield
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append("%s %s: %s: %s" % (kind, order, type(exc).__name__, exc))

    def stage(self, kind, order):
        """A span around work for one order; on its own, not an operation."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span("bench." + kind, order=order)

    def sample(self, name, value):
        """A plain value, such as an F1 score."""
        self.samples[name].append(value)

    def timing(self, name, seconds, work=None):
        """The wall time of one operation; with ``work``, a throughput sample."""
        self.reference()
        self.timed.append((name, seconds, work, len(self.references) - 1))

    def nominal_samples(self):
        """Plain samples, plus every timing in nominal seconds (throughput per nominal second).

        A timing is scaled by the median of the references in a window
        around it: the REFERENCE_WINDOW references up to the one just
        before the operation, and as many from the one just after it on.
        One reference is a short computation and reads the machine's
        speed with noise; the window smooths that but still follows the
        machine's changes of speed over a few seconds.
        """
        out = defaultdict(list, {name: list(v) for name, v in self.samples.items()})
        for name, seconds, work, after in self.timed:
            window = self.references[max(0, after - REFERENCE_WINDOW) : after + REFERENCE_WINDOW]
            t = nominal(seconds, window)
            out[name].append(t if work is None else work / t)
        return dict(out)

    def summary(self):
        """Median of each sampled metric."""
        return {name: statistics.median(v) for name, v in self.nominal_samples().items()}

    def note(self, name, value):
        self.notes[name] = value


def layer_metrics(spans):
    """Per-layer metrics of one run id's spans (see README.md for definitions).

    Every metric is given summed over all orders, under its plain name,
    and for each order, under the name with ``.<order>`` appended.
    """
    own = self_times(spans)
    names = {s["id"]: s["name"] for s in spans}
    totals = defaultdict(float)

    def add(metric, suffix, value):
        totals[metric] += value
        if suffix:
            totals[metric + suffix] += value

    for s in spans:
        name = s["name"]
        layer = name.split(".", 1)[0]
        attrs = s["attrs"]
        suffix = "." + attrs["order"] if "order" in attrs else ""
        if layer in LAYERS:
            totals[layer + ".self_s"] += own[s["id"]]
        if name in SELF_TIME_METRICS:
            add(SELF_TIME_METRICS[name], suffix, own[s["id"]])
        if name == "crf.objective":
            add("crf.objective_calls", suffix, 1)
            add("cells", suffix, attrs["cells"])
            if s["parent"] is not None and names[s["parent"]] == "training.minimize":
                add("training.fevals", suffix, 1)
        elif name == "training.minimize":
            add("training.iterations", suffix, attrs["nit"])
        elif name == "crf.compile":
            add("tokens", suffix, attrs["tokens"])
            add("active", suffix, attrs["active"])
        elif name == "features.index":
            add("features.n_features", suffix, attrs["n_features"])
        elif name == "model_io.save":
            add("model_io.file_mb", suffix, attrs["bytes"] / 1e6)
            add("model_io.n_weights", suffix, attrs["n_weights"])
    out = {}
    for key, value in list(totals.items()):
        head, dot, order = key.partition(".")
        suffix = dot + order if head in ("cells", "tokens", "active") else None
        if head == "cells":
            out["crf.ns_per_cell" + suffix] = 1e9 * totals["crf.objective_s" + suffix] / value
        elif head == "tokens":
            out["features.active_per_token" + suffix] = totals["active" + suffix] / value
        elif head != "active":
            out[key] = value
        if key.startswith("training.iterations") and value:
            suffix = key[len("training.iterations"):]
            out["training.fevals_per_iteration" + suffix] = totals.get("training.fevals" + suffix, 0) / value
    return out


def per_layer(tracer, traced_rounds, untraced_rounds):
    """Median over traced rounds; metrics seen only in set-up use set-up runs."""
    by_run = defaultdict(list)
    for s in tracer.spans:
        by_run[s["run"]].append(s)
    rounds = [layer_metrics(v) for k, v in by_run.items() if k.startswith("round-")]
    setups = [layer_metrics(v) for k, v in by_run.items() if k.startswith("setup-")]
    names = {n for m in rounds for n in m}
    values = defaultdict(list)
    for m in rounds:
        for n, v in m.items():
            values[n].append(v)
    for m in setups:
        for n, v in m.items():
            if n not in names:
                values[n].append(v)
    out = {n: statistics.median(v) for n, v in values.items()}
    if traced_rounds and untraced_rounds:
        out["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced_rounds) / statistics.median(untraced_rounds) - 1.0
        )
    return out


def git_commit():
    """Commit of the checkout, read from .git without starting a process."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            path = ROOT / ".git" / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unresolved ref " + ref
        return text
    except OSError:
        return "unavailable: not a git checkout"


def metadata(args, workload, bases):
    import scipy

    return {
        "workload": workload.name,
        "workload_config": dataclasses.asdict(workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "closed_loop": "one caller; each operation starts when the previous returns",
        "bases": bases,
    }


def parse_args(argv, registry):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(registry))
    parser.add_argument("--seed", type=int, help="workload seed (default: the acceptance corpus)")
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = registry[args.workload].default_seed
    return args


def measure(workload, set_up, seconds, tracer):
    """Set up and run rounds until the round ending nearest the deadline has run.

    Every round runs on inputs set up just before it, so set-up is timed
    as often as rounds run and across the whole run, not at one moment.
    Each set-up first drops the previous inputs, so that neither its time
    nor the peak resident set includes two copies of them. While a round
    runs, the garbage collector leaves the inputs alone: a picrf process
    would not hold them, and rescanning them would slow every collection.

    Tracing, when on, covers every other round, starting with the first;
    a traced run makes at least one round of each kind so that it can
    report the tracing overhead. Each traced round and the untraced round
    after it get the same round index, so that both kinds of round use
    the same inputs and their difference is the tracer's own cost.

    A round's duration leaves out the reference computations run inside
    it and is kept in nominal seconds, scaled by the median of those
    references and of one taken on each side of the round.

    Returns both recorders, the round durations of each kind, and the
    last round's inputs.
    """
    untraced = Recorder()
    traced = Recorder(tracer)
    durations = {True: [], False: []}
    cycles = []
    memo = {}
    start = time.perf_counter()
    k = 0
    while True:
        cycle_began = time.perf_counter()
        state = None
        gc.collect()
        state = set_up()
        gc.freeze()
        use_trace = tracer is not None and k % 2 == 0
        recorder = traced if use_trace else untraced
        if use_trace:
            tracer.run_id = "round-%d" % k
            tracer.install()
        n_references = len(recorder.references)
        recorder.reference()
        reference_time = recorder.reference_time
        began = time.perf_counter()
        try:
            workload.run_round(state, k // 2 if tracer else k, recorder, memo)
        finally:
            if use_trace:
                tracer.uninstall()
            gc.unfreeze()
        now = time.perf_counter()
        elapsed = now - began - (recorder.reference_time - reference_time)
        recorder.reference()
        durations[use_trace].append(nominal(elapsed, recorder.references[n_references:]))
        cycles.append(time.perf_counter() - cycle_began)
        k += 1
        if k >= (2 if tracer else 1) and now - start + statistics.median(cycles) / 2 >= seconds:
            return traced, untraced, durations, state


def run(argv=None, registry=None):
    """Run one workload; returns the result object and the run metadata."""
    import workloads

    registry = registry or workloads.WORKLOADS
    args = parse_args(argv, registry)
    workload = registry[args.workload]
    out_dir = ROOT / ".bench_out"
    work_dir = ROOT / ".bench_work" / ("%s-%d" % (workload.name, os.getpid()))
    tracer = Tracer() if args.trace else None
    setup_times = []

    def set_up():
        """One timed set-up in a fresh work directory; its time is kept in nominal seconds."""
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        before = reference_seconds()
        if tracer:
            tracer.run_id = "setup-%d" % len(setup_times)
            tracer.install()
        began = time.perf_counter()
        try:
            state = workload.setup(args.seed, str(work_dir), Recorder(tracer))
        finally:
            if tracer:
                tracer.uninstall()
        elapsed = time.perf_counter() - began
        setup_times.append(nominal(elapsed, (before, reference_seconds())))
        return state

    try:
        traced, untraced, durations, state = measure(workload, set_up, args.seconds, tracer)
        bases = workload.bases(state)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()

    main_rec = traced if tracer else untraced
    attempted = traced.attempted + untraced.attempted
    failed = traced.failed + untraced.failed
    bases.update(untraced.notes)
    bases.update(traced.notes)
    meta = metadata(args, workload, bases)
    meta["rounds"] = {"traced": len(durations[True]), "untraced": len(durations[False])}
    meta["failures"] = traced.failures + untraced.failures
    end_to_end_units, per_layer_units = declared_metrics()

    if tracer:
        measured = per_layer(tracer, durations[True], durations[False])
        overhead = {}
        with_trace, without = traced.summary(), untraced.summary()
        with_trace["round_s"] = statistics.median(durations[True])
        without["round_s"] = statistics.median(durations[False])
        for name in sorted(set(with_trace) & set(without)):
            t, u = with_trace[name], without[name]
            overhead[name] = {"traced": t, "untraced": u, "traced_minus_untraced": t - u}
        meta["tracing_overhead"] = overhead
        units = per_layer_units
    else:
        measured = untraced.summary()
        measured["round_s"] = statistics.median(durations[False])
        measured["setup_s"] = statistics.median(setup_times)
        measured["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = end_to_end_units
    meta["samples"] = main_rec.nominal_samples()
    meta["reference_seconds"] = main_rec.references
    meta["reference_nominal_s"] = REFERENCE_NOMINAL_S
    meta["timed"] = main_rec.timed
    meta["setup_s_each"] = setup_times
    meta["round_s_each"] = durations[bool(tracer)]
    # everything measured: the declared metrics, and per order and
    # quality values besides
    meta["measured"] = measured

    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": select(measured, units),
    }
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (workload.name, args.seed, args.trace)
    with open(out_dir / ("result-%s.json" % stem), "w", encoding="utf-8") as handle:
        json.dump({"meta": meta, "result": result}, handle, indent=1)
    if tracer:
        with open(out_dir / ("spans-%s.json" % stem), "w", encoding="utf-8") as handle:
            json.dump({"meta": meta, "spans": tracer.spans}, handle)

    return result, meta


def main():
    import_picrf()
    result, meta = run()
    for failure in meta["failures"]:
        print("FAILED %s" % failure)
    print("meta %s" % json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
