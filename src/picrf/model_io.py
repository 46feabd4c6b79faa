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
from itertools import islice
from typing import IO, Iterator, Sequence

import numpy as np

from .corpus import Sentence
from .crf import StateSpace, build_lattice, state_space, total_parameters, viterbi
from .crf_types import ModelOrder
from .features import (
    FeatureError,
    FeatureIndex,
    TemplateConfig,
    feature_id_matrix,
    make_feature_index,
)

# Not called here: decoding builds features with feature_id_matrix.
# benchmarks/spans.py wraps picrf.model_io.extract_features by name, so the
# name stays until that wrap point moves.
from .features import extract_features  # noqa: F401
from .induction import AlphabetError, LabelAlphabet, build_expanded_alphabet, revert

FORMAT_LINE = "picrf model format 1"
# Weight lines read and parsed, or formatted and written, in one step while
# loading or saving; bounds the line strings held at once.
_WEIGHT_LINES_PER_READ = 1 << 12


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
        """Viterbi-decode one sentence to base IOB2 labels: decode_corpus of
        a one-sentence corpus."""
        return self.decode_corpus([sentence], constrained)[0]

    def decode_corpus(
        self, corpus: Sequence[Sentence], constrained: bool = False
    ) -> list[list[str]]:
        """Viterbi-decode sentences to base IOB2 labels, in input order.

        The corpus is decoded as one batch: feature_id_matrix gives the
        feature ids of all its tokens at once, and build_lattice lays the
        sentences out in length-grouped (T, B, S) blocks that viterbi
        decodes block by block. Empty sentences decode to []. Pre-induced
        decodes are reverted, so carrier labels never leak into output.
        Deterministic: a sentence decodes to the same labels alone or in
        any batch.
        """
        kept = [i for i, sentence in enumerate(corpus) if len(sentence)]
        sentences = [corpus[i] for i in kept]
        ids = feature_id_matrix(sentences, self.template, self.index.feature_ids.get)
        names = self.space.output_labels
        if self.order == ModelOrder.PRE_INDUCED:
            names = revert(names, self.alphabet)
        names = np.array(names, dtype=object)
        decoded: list[list[str]] = [[] for _ in corpus]
        for members, lattice in build_lattice(
            ids, [len(s) for s in sentences], self.weights, self.index, self.space, constrained
        ):
            paths, _ = viterbi(lattice)
            for i, labels in zip(members, names[paths].tolist()):
                decoded[kept[i]] = labels
        return decoded


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
    out.write("".join(json.dumps(feature) + "\n" for feature in model.index.features))
    out.write("weights: %d\n" % model.weights.size)
    for lo in range(0, model.weights.size, _WEIGHT_LINES_PER_READ):
        # one % over the slice: the same formatting as "%.17g\n" % w per weight
        part = tuple(model.weights[lo : lo + _WEIGHT_LINES_PER_READ].tolist())
        out.write(("%.17g\n" * len(part)) % part)
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

    def floats(self, n: int) -> np.ndarray:
        """The next n lines as float64 values, parsed a slice of lines at a
        time. A short read or a line that float() rejects raises the error
        the line-by-line reads would have raised, naming the same line."""
        values = np.empty(n)
        for lo in range(0, n, _WEIGHT_LINES_PER_READ):
            want = min(_WEIGHT_LINES_PER_READ, n - lo)
            lines = list(islice(self._lines, want))
            if len(lines) == want:
                try:
                    values[lo : lo + want] = np.fromiter(map(float, lines), np.float64, want)
                except ValueError:
                    pass
                else:
                    self.count += want
                    continue
            # a short read or a line that is not a number: find the first fault
            for raw in lines:
                self.count += 1
                try:
                    float(raw)
                except ValueError:
                    raise ModelFormatError(
                        "line %d: weight entry is not a number: %r"
                        % (self.count, raw.rstrip("\n"))
                    ) from None
            raise ModelFormatError("model file truncated at line %d" % (self.count + 1))
        return values

    def json_strings(self, n: int) -> list[str]:
        """The next n lines as JSON strings, decoded by one json.loads of the
        lines joined into one array. Each line must then hold exactly one
        string, as strict JSON rejects a raw newline inside a string and an
        empty item. A short read or a line that is not one JSON string
        raises the error the line-by-line reads would have raised, naming
        the same line."""
        lines = [raw.rstrip("\n") for raw in islice(self._lines, n)]
        if len(lines) == n:
            try:
                values = json.loads("[" + ",\n".join(lines) + "]")
            except json.JSONDecodeError:
                pass
            else:
                if len(values) == n and all(isinstance(v, str) for v in values):
                    self.count += n
                    return values
        # a short read or a line that is not one JSON string: find the first fault
        for line in lines:
            self.count += 1
            try:
                value = json.loads(line)
            except json.JSONDecodeError:
                raise ModelFormatError(
                    "line %d: feature entry is not a JSON string" % self.count
                ) from None
            if not isinstance(value, str):
                raise ModelFormatError("line %d: feature entry is not a string" % self.count)
        raise ModelFormatError("model file truncated at line %d" % (self.count + 1))

    def keyed(self, key: str) -> str:
        line = self.next_line()
        prefix = key + ": "
        if not line.startswith(prefix):
            raise ModelFormatError(
                "line %d: expected '%s: ...', found %r" % (self.count, key, line)
            )
        return line[len(prefix) :]

    def keyed_int(self, key: str) -> int:
        """A count or flag: a non-negative integer."""
        value = self.keyed(key)
        if not value.isdecimal():
            raise ModelFormatError(
                "line %d: %s must be a non-negative integer, found %r" % (self.count, key, value)
            )
        return int(value)

    def keyed_ints(self, key: str) -> tuple[int, ...]:
        value = self.keyed(key)
        try:
            return tuple(int(v) for v in value.split())
        except ValueError:
            raise ModelFormatError(
                "line %d: %s must be integers, found %r" % (self.count, key, value)
            ) from None

    def end(self) -> None:
        if self.next_line() != "end":
            raise ModelFormatError("model file does not finish with the end marker")
        if next(self._lines, None) is not None:
            raise ModelFormatError("line %d: content after the end marker" % (self.count + 1))


def _parse(reader: _LineReader) -> Model:
    """The model a file describes. An AlphabetError or FeatureError from
    checking the entity types, the template or the feature list is raised
    as a ModelFormatError naming the last line read."""
    try:
        return _parse_lines(reader)
    except (AlphabetError, FeatureError) as exc:
        raise ModelFormatError("line %d: %s" % (reader.count, exc)) from None


def _parse_lines(reader: _LineReader) -> Model:
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
        window_offsets=reader.keyed_ints("window_offsets"),
        use_normalized=bool(reader.keyed_int("use_normalized")),
        affix_lengths=reader.keyed_ints("affix_lengths"),
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
    features = reader.json_strings(n_features)
    index = make_feature_index(features, alphabet, order)

    n_weights = reader.keyed_int("weights")
    expected = index.n_parameters + n_trans
    if n_weights != expected:
        raise ModelFormatError(
            "model declares %d weights, expected %d" % (n_weights, expected)
        )
    first_weight_line = reader.count + 1
    weights = reader.floats(n_weights)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise ModelFormatError(
            "line %d: weight entry is not finite: %r"
            % (first_weight_line + int(bad[0]), float(weights[bad[0]]))
        )
    reader.end()

    return Model(order=order, alphabet=alphabet, template=template, index=index, weights=weights)


def load_model(source: str | os.PathLike | IO[str]) -> Model:
    """Read a model from a path or text file object, validating as it goes."""
    if hasattr(source, "read"):
        return _parse(_LineReader(iter(source)))
    with open(source, "r", encoding="utf-8") as handle:
        return _parse(_LineReader(iter(handle)))
