"""In-memory spans recorded around picrf's public functions.

The tracer times layers from outside the program: it replaces a function
in the module namespace where its callers look it up (for example
``picrf.training.log_likelihood_and_gradient``, which ``train`` calls by
that name) with a wrapper that records a span and calls the original.
Nothing under ``src/`` changes. Spans live in a list until the benchmark
writes them out at exit; each carries its name, start, end, parent span,
run id and a few attributes (the model order of the enclosing operation,
plus counts taken where the work happens).

A span's layer is the part of its name before the first dot, which is the
picrf module that does the work. Self time is a span's duration minus the
durations of its direct children; spans of one run nest strictly because
the benchmark starts no threads.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager


def _objective_counts(args, result):
    """Lattice cells one objective call computes: sum over sentences of T * S^2."""
    batch, space = args[0], args[3]
    n_states = space.n_states
    return {"cells": sum(len(cs.feature_starts) for cs in batch) * n_states * n_states}


def _compile_counts(args, result):
    return {
        "tokens": len(result.feature_starts),
        "active": sum(int(s.size) for s in result.feature_starts),
    }


def _index_counts(args, result):
    return {"n_features": len(result.features)}


def _minimize_counts(args, result):
    return {"nit": int(result.nit)}


def _save_counts(args, result):
    model, path = args[0], args[1]
    return {"n_weights": int(model.weights.size), "bytes": os.path.getsize(path)}


# (module, attribute, span name, counts). Each entry is a place where a
# caller looks the function up by name, so wrapping it sees every call.
# Counts are taken from the arguments and result after the span closes,
# so counting costs no span time.
WRAP_POINTS = (
    ("picrf.cli", "main", "cli.main", None),
    ("picrf.cli", "read_conll", "corpus.read", None),
    ("picrf.cli", "write_conll", "corpus.write", None),
    ("picrf.cli", "load_model", "model_io.load", None),
    ("picrf.cli", "save_model", "model_io.save", _save_counts),
    ("picrf.cli", "train", "training.train", None),
    ("picrf.training", "train", "training.train", None),
    ("picrf.training", "minimize", "training.minimize", _minimize_counts),
    ("picrf.training", "log_likelihood_and_gradient", "crf.objective", _objective_counts),
    ("picrf.training", "compile_sentence", "crf.compile", _compile_counts),
    ("picrf.training", "extract_features", "features.extract", None),
    ("picrf.training", "build_feature_index", "features.index", _index_counts),
    ("picrf.crf", "induce", "induction.induce", None),
    ("picrf.model_io", "save_model", "model_io.save", _save_counts),
    ("picrf.model_io", "extract_features", "features.extract", None),
    ("picrf.model_io", "build_lattice", "crf.lattice", None),
    ("picrf.model_io", "viterbi", "crf.viterbi", None),
    ("picrf.model_io", "revert", "induction.revert", None),
    ("picrf.model_io.Model", "decode", "model_io.decode", None),
    ("picrf.corpus", "generate_synthetic", "corpus.generate", None),
)


def _resolve(path):
    """Import 'pkg.module' or 'pkg.module.Class' and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``install`` swaps the wrappers in and ``uninstall`` restores the
    originals, so rounds run with tracing off pay nothing for it.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        if "order" not in attrs and parent is not None and "order" in parent["attrs"]:
            attrs["order"] = parent["attrs"]["order"]
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": parent["id"] if parent is not None else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, original, name, counts):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                record["attrs"].update(counts(args, result))
            return result

        return traced

    def install(self):
        if self._saved:
            return
        for path, attr, name, counts in WRAP_POINTS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(original, name, counts))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans):
    """Map span id to its duration minus its direct children's durations."""
    out = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None and s["parent"] in out:
            out[s["parent"]] -= s["end"] - s["start"]
    return out
