"""Self-describing plain-text model persistence.

A model file carries everything needed to rebuild the tagger: format
version, model order, entity types, template configuration, the label
inventory, the feature list in slot order (JSON-escaped, since features
embed sentinel control characters), and the weight vector printed with
%.17g so every float64 survives the round trip bit-exactly. The version
line comes first and is checked before anything else is parsed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator, Sequence

import numpy as np

from .corpus import Sentence
from .crf import StateSpace, build_lattice, state_space, total_parameters, viterbi
from .crf_types import ModelOrder
from .features import FeatureIndex, TemplateConfig, extract_features, make_feature_index
from .induction import LabelAlphabet, build_expanded_alphabet, revert

FORMAT_LINE = "picrf model format 1"


class ModelFormatError(Exception):
    """Unreadable, truncated, or wrong-version model file."""


@dataclass
class Model:
    """A trained tagger: weights plus the vocabulary that interprets them."""

    order: ModelOrder
    alphabet: LabelAlphabet
    template: TemplateConfig
    index: FeatureIndex
    weights: np.ndarray

    def __post_init__(self):
        self.order = ModelOrder(self.order)
        expected = total_parameters(self.index, self.space)
        if self.weights.shape != (expected,):
            raise ModelFormatError(
                "weight vector has %s entries, expected %d" % (self.weights.shape, expected)
            )
        bad = np.flatnonzero(~np.isfinite(self.weights))
        if bad.size:
            raise ModelFormatError(
                "weight slot %d is not finite: %r" % (int(bad[0]), float(self.weights[bad[0]]))
            )

    @cached_property
    def space(self) -> StateSpace:
        return state_space(self.order, self.alphabet)

    def decode(self, sentence: Sentence, constrained: bool = False) -> list[str]:
        """Viterbi-decode one sentence to base IOB2 labels.

        Pre-induced decodes are reverted, so carrier labels never leak into
        output. Deterministic: equal inputs give equal label sequences.
        """
        if len(sentence) == 0:
            return []
        features = extract_features(sentence, self.template)
        lattice = build_lattice(features, self.weights, self.index, self.space, constrained)
        path, _ = viterbi(lattice)
        labels = [self.space.output_labels[s] for s in path]
        if self.order == ModelOrder.PRE_INDUCED:
            labels = revert(labels, self.alphabet)
        return labels


def _dump(model: Model, out: IO[str]) -> None:
    space = model.space
    t = model.template
    out.write(FORMAT_LINE + "\n")
    out.write("order: %s\n" % model.order)
    out.write("entity_types: %d\n" % len(model.alphabet.entity_types))
    for name in model.alphabet.entity_types:
        out.write(name + "\n")
    out.write("template_set: %d\n" % t.set_id)
    out.write("window_offsets: %s\n" % " ".join(str(d) for d in t.window_offsets))
    out.write("use_normalized: %d\n" % int(t.use_normalized))
    out.write("affix_lengths: %s\n" % " ".join(str(n) for n in t.affix_lengths))
    out.write("min_feature_count: %d\n" % t.min_feature_count)
    out.write("labels: %d\n" % model.alphabet.n_expanded)
    for label in model.alphabet.expanded_labels:
        out.write(label + "\n")
    out.write("effective_states: %d\n" % space.effective_states)
    out.write("transition_params: %d\n" % space.n_transition_params)
    out.write("features: %d\n" % len(model.index.features))
    for feature in model.index.features:
        out.write(json.dumps(feature) + "\n")
    out.write("weights: %d\n" % model.weights.size)
    for w in model.weights:
        out.write("%.17g\n" % w)
    out.write("end\n")


def save_model(model: Model, destination: str | os.PathLike | IO[str]) -> None:
    """Write a model to a path or text file object."""
    if hasattr(destination, "write"):
        _dump(model, destination)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            _dump(model, handle)


class _LineReader:
    def __init__(self, lines: Iterator[str]):
        self._lines = lines
        self.count = 0

    def next_line(self) -> str:
        try:
            raw = next(self._lines)
        except StopIteration:
            raise ModelFormatError("model file truncated at line %d" % (self.count + 1)) from None
        self.count += 1
        return raw.rstrip("\n")

    def keyed(self, key: str) -> str:
        line = self.next_line()
        prefix = key + ": "
        if not line.startswith(prefix):
            raise ModelFormatError(
                "line %d: expected '%s: ...', found %r" % (self.count, key, line)
            )
        return line[len(prefix) :]

    def keyed_int(self, key: str) -> int:
        value = self.keyed(key)
        try:
            return int(value)
        except ValueError:
            raise ModelFormatError(
                "line %d: %s must be an integer, found %r" % (self.count, key, value)
            ) from None


def _parse(reader: _LineReader) -> Model:
    first = reader.next_line()
    if first != FORMAT_LINE:
        raise ModelFormatError(
            "unsupported model format: expected %r, found %r" % (FORMAT_LINE, first)
        )
    try:
        order = ModelOrder(reader.keyed("order"))
    except ValueError as exc:
        raise ModelFormatError("line %d: %s" % (reader.count, exc)) from None

    n_types = reader.keyed_int("entity_types")
    types = [reader.next_line() for _ in range(n_types)]
    alphabet = build_expanded_alphabet(types)

    template = TemplateConfig(
        set_id=reader.keyed_int("template_set"),
        window_offsets=tuple(int(v) for v in reader.keyed("window_offsets").split()),
        use_normalized=bool(reader.keyed_int("use_normalized")),
        affix_lengths=tuple(int(v) for v in reader.keyed("affix_lengths").split()),
        min_feature_count=reader.keyed_int("min_feature_count"),
    )

    n_labels = reader.keyed_int("labels")
    labels = tuple(reader.next_line() for _ in range(n_labels))
    if labels != alphabet.expanded_labels:
        raise ModelFormatError("label inventory does not match the entity type list")

    space = state_space(order, alphabet)
    effective = reader.keyed_int("effective_states")
    if effective != space.effective_states:
        raise ModelFormatError(
            "model declares %d effective states, expected %d"
            % (effective, space.effective_states)
        )
    n_trans = reader.keyed_int("transition_params")
    if n_trans != space.n_transition_params:
        raise ModelFormatError(
            "model declares %d transition parameters, expected %d"
            % (n_trans, space.n_transition_params)
        )

    n_features = reader.keyed_int("features")
    features = []
    for _ in range(n_features):
        line = reader.next_line()
        try:
            feature = json.loads(line)
        except json.JSONDecodeError:
            raise ModelFormatError(
                "line %d: feature entry is not a JSON string" % reader.count
            ) from None
        if not isinstance(feature, str):
            raise ModelFormatError("line %d: feature entry is not a string" % reader.count)
        features.append(feature)
    index = make_feature_index(features, alphabet, order)

    n_weights = reader.keyed_int("weights")
    expected = index.n_parameters + n_trans
    if n_weights != expected:
        raise ModelFormatError(
            "model declares %d weights, expected %d" % (n_weights, expected)
        )
    weights = np.empty(n_weights)
    first_weight_line = reader.count + 1
    for i in range(n_weights):
        line = reader.next_line()
        try:
            weights[i] = float(line)
        except ValueError:
            raise ModelFormatError(
                "line %d: weight entry is not a number: %r" % (reader.count, line)
            ) from None
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ModelFormatError(
            "line %d: weight entry is not finite: %r"
            % (first_weight_line + int(bad[0]), float(weights[bad[0]]))
        )
    if reader.next_line() != "end":
        raise ModelFormatError("model file does not finish with the end marker")

    return Model(order=order, alphabet=alphabet, template=template, index=index, weights=weights)


def load_model(source: str | os.PathLike | IO[str]) -> Model:
    """Read a model from a path or text file object, validating as it goes."""
    if hasattr(source, "read"):
        return _parse(_LineReader(iter(source)))
    with open(source, "r", encoding="utf-8") as handle:
        return _parse(_LineReader(iter(handle)))
