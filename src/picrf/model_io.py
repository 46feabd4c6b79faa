"""Self-describing plain-text model persistence.

A model file carries everything needed to rebuild the tagger: format
version, model order, entity types, template configuration, the label
inventory, the feature list in slot order (JSON-escaped, since features
embed sentinel control characters), and the weight vector. The version
line comes first and is checked before anything else is parsed.

Format 2, the one save_model writes, stores the weights as one base64
block of their little-endian float64 bytes, in the 76-character lines
base64.encodebytes writes (57 bytes a line), so every float64 survives
the round trip bit-exactly. Format 1 printed each weight with %.17g on a
line of its own; it still loads, to the same weights.
"""

from __future__ import annotations

import base64
import json
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import IO, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .corpus import Sentence
from .crf import StateSpace, build_lattice, state_space, total_parameters, viterbi
from .crf_types import ModelOrder
from .features import (
    BIAS_FEATURE,
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

FORMAT_LINE = "picrf model format 2"
FORMAT_1_LINE = "picrf model format 1"
# Format 1 weight lines read and parsed in one step; bounds the line
# strings held at once.
_WEIGHT_LINES_PER_READ = 1 << 12
# Bytes in each full line of a format 2 weight block.
_BLOCK_LINE_BYTES = 57


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
        feature ids of all its tokens at once, build_lattice lays them out
        in one packed lattice, as training does, and viterbi decodes every
        sentence in one pass; the row order puts the states back in
        sentence order. Empty sentences decode to []. Pre-induced decodes
        are reverted, so carrier labels never leak into output.
        Deterministic: a sentence decodes to the same labels alone or in
        any batch.
        """
        decoded: list[list[str]] = [[] for _ in corpus]
        kept = [i for i, sentence in enumerate(corpus) if len(sentence)]
        if not kept:
            return decoded
        sentences = [corpus[i] for i in kept]
        lengths = [len(s) for s in sentences]
        ids = feature_id_matrix(sentences, self.template, self.index.feature_ids.get)
        lattice, widths, order = build_lattice(
            ids, lengths, self.weights, self.index, self.space, constrained
        )
        rows, _ = viterbi(lattice, widths)
        states = np.empty_like(rows)
        states[order] = rows
        names = self.space.output_labels
        if self.order == ModelOrder.PRE_INDUCED:
            names = revert(names, self.alphabet)
        labels = np.array(names, dtype=object)[states].tolist()
        ends = np.cumsum(lengths).tolist()
        for i, end, n_pos in zip(kept, ends, lengths):
            decoded[i] = labels[end - n_pos : end]
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
    out.write(base64.encodebytes(model.weights.astype("<f8").tobytes()).decode("ascii"))
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
            try:
                values[lo : lo + want] = np.fromiter(map(float, lines), np.float64, want)
            except ValueError:  # a line that is not a number, or a short read
                self._first_fault(lines, _number_fault)
            self.count += want
        return values

    def block_floats(self, n: int) -> np.ndarray:
        """n little-endian float64 values from the next ceil(8n/57) lines:
        the base64 block base64.encodebytes writes, decoded in one step. A
        short read or a line that encodebytes would not have written raises
        an error naming that line."""
        size = 8 * n
        lines = list(islice(self._lines, -(-size // _BLOCK_LINE_BYTES)))
        try:
            data = base64.b64decode("".join(line.rstrip("\n") for line in lines), validate=True)
        except ValueError:  # binascii.Error, or a plain ValueError for non-ASCII text
            data = b""
        if len(data) != size:
            self._first_fault(lines, lambda k, line: _block_fault(size - k * _BLOCK_LINE_BYTES, line))
        self.count += len(lines)
        return np.frombuffer(data, "<f8").astype(np.float64)

    def json_strings(self, n: int) -> list[str]:
        """The next n lines as JSON strings, decoded by one json.loads of the
        lines joined into one array. Each line must then hold exactly one
        string, as strict JSON rejects a raw newline inside a string and an
        empty item. A short read or a line that is not one JSON string
        raises the error the line-by-line reads would have raised, naming
        the same line."""
        lines = [raw.rstrip("\n") for raw in islice(self._lines, n)]
        try:
            values = json.loads("[" + ",\n".join(lines) + "]")
        except json.JSONDecodeError:
            values = []
        if len(lines) != n or len(values) != n or not all(isinstance(v, str) for v in values):
            self._first_fault(lines, _feature_fault)
        self.count += n
        return values

    def _first_fault(self, lines: list[str], fault: Callable[[int, str], str | None]) -> NoReturn:
        """Raise the error for the first of lines, the k-th of a read, for
        which fault(k, line) names a fault, naming that line; or, if there
        is none, the error for a read cut short after them."""
        for k, raw in enumerate(lines):
            self.count += 1
            problem = fault(k, raw.rstrip("\n"))
            if problem:
                raise ModelFormatError("line %d: %s" % (self.count, problem))
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
        line = self.next_line()
        if line != "end":
            raise ModelFormatError("line %d: expected the end marker, found %r" % (self.count, line))
        if next(self._lines, None) is not None:
            raise ModelFormatError("line %d: content after the end marker" % (self.count + 1))


def _number_fault(k: int, line: str) -> str | None:
    try:
        float(line)
    except ValueError:
        return "weight entry is not a number: %r" % line
    return None


def _feature_fault(k: int, line: str) -> str | None:
    try:
        value = json.loads(line)
    except json.JSONDecodeError:
        return "feature entry is not a JSON string"
    return None if isinstance(value, str) else "feature entry is not a string"


def _block_fault(left: int, line: str) -> str | None:
    """What is wrong with a line that should hold the base64 encodebytes
    writes for the next min(57, left) bytes of a weight block, if anything."""
    want = min(_BLOCK_LINE_BYTES, left)
    try:
        fits = len(base64.b64decode(line, validate=True)) == want
    except ValueError:
        fits = False
    if fits and len(line) == 4 * -(-want // 3):
        return None
    return "weight line is not %d bytes in base64: %r" % (want, line)


def _expect(declared: int, expected: int, what: str) -> None:
    if declared != expected:
        raise ModelFormatError("model declares %d %s, expected %d" % (declared, what, expected))


def _parse(reader: _LineReader) -> Model:
    """The model a file describes. An AlphabetError or FeatureError from
    checking the entity types, the template or the feature list is raised
    as a ModelFormatError naming the last line read."""
    try:
        return _parse_lines(reader)
    except (AlphabetError, FeatureError) as exc:
        raise ModelFormatError("line %d: %s" % (reader.count, exc)) from None


def _parse_lines(reader: _LineReader) -> Model:
    version = reader.next_line()
    if version not in (FORMAT_LINE, FORMAT_1_LINE):
        raise ModelFormatError(
            "unsupported model format: expected %r or %r, found %r"
            % (FORMAT_LINE, FORMAT_1_LINE, version)
        )
    name = reader.keyed("order")  # read outside the try: a UnicodeDecodeError is a ValueError
    try:
        order = ModelOrder(name)
    except ValueError as exc:
        raise ModelFormatError("line %d: %s" % (reader.count, exc)) from None

    n_types = reader.keyed_int("entity_types")
    types = [reader.next_line() for _ in range(n_types)]
    alphabet = build_expanded_alphabet(types)

    set_id = reader.keyed_int("template_set")
    window_offsets = reader.keyed_ints("window_offsets")
    use_normalized = reader.keyed_int("use_normalized")
    if use_normalized > 1:
        raise ModelFormatError(
            "line %d: use_normalized must be 0 or 1, found %d" % (reader.count, use_normalized)
        )
    template = TemplateConfig(
        set_id=set_id,
        window_offsets=window_offsets,
        use_normalized=bool(use_normalized),
        affix_lengths=reader.keyed_ints("affix_lengths"),
        min_feature_count=reader.keyed_int("min_feature_count"),
    )

    n_labels = reader.keyed_int("labels")
    labels = tuple(reader.next_line() for _ in range(n_labels))
    if labels != alphabet.expanded_labels:
        raise ModelFormatError("label inventory does not match the entity type list")

    space = state_space(order, alphabet)
    _expect(reader.keyed_int("effective_states"), space.effective_states, "effective states")
    n_trans = space.n_transition_params
    _expect(reader.keyed_int("transition_params"), n_trans, "transition parameters")

    n_features = reader.keyed_int("features")
    features = reader.json_strings(n_features)
    # the template emits BIAS and strings that start with one of its
    # prefixes; a feature's prefix runs to its first "="
    emitted = template.feature_prefixes | {BIAS_FEATURE}
    heads = [f[: f.find("=") + 1] or f for f in features]
    if not emitted.issuperset(heads):
        i = next(i for i, head in enumerate(heads) if head not in emitted)
        raise ModelFormatError(
            "line %d: the template cannot emit feature %r"
            % (reader.count - n_features + 1 + i, features[i])
        )
    index = make_feature_index(features, alphabet, order)

    n_weights = index.n_parameters + n_trans
    _expect(reader.keyed_int("weights"), n_weights, "weights")
    first_weight_line = reader.count + 1
    if version == FORMAT_LINE:
        weights = reader.block_floats(n_weights)
    else:
        weights = reader.floats(n_weights)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        i = int(bad[0])
        line = first_weight_line + (8 * i // _BLOCK_LINE_BYTES if version == FORMAT_LINE else i)
        raise ModelFormatError(
            "line %d: weight entry is not finite: %r" % (line, float(weights[i]))
        )
    reader.end()

    return Model(order=order, alphabet=alphabet, template=template, index=index, weights=weights)


def load_model(source: str | os.PathLike | IO[str]) -> Model:
    """Read a model from a path or text file object, validating as it goes.
    Text that is not UTF-8 raises ModelFormatError too, naming for a path
    the line of the first bad byte, and for a file object, whose decoder
    reads ahead of the parser, the last line parsed."""
    if hasattr(source, "read"):
        reader = _LineReader(iter(source))
        try:
            return _parse(reader)
        except UnicodeDecodeError as exc:
            raise ModelFormatError("not UTF-8 after line %d: %s" % (reader.count, exc)) from None
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return _parse(_LineReader(iter(handle)))
    except UnicodeDecodeError:
        # the bad byte's offset in the whole file names its line
        with open(source, "rb") as handle:
            data = handle.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = len(data[: exc.start + 1].splitlines())
            raise ModelFormatError("line %d: not UTF-8: %s" % (line, exc.reason)) from None
        raise
