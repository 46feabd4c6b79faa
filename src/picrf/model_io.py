"""Self-describing plain-text model persistence.

A model file carries everything needed to rebuild the tagger: format
version, model order, entity types, template configuration, the label
inventory, the feature list in slot order (JSON-escaped, since features
embed sentinel control characters), and the weight vector. The version
line comes first and is checked before anything else is parsed.

Format 3, the one save_model writes, puts weight i on line i of the
weight block, as the 16 lowercase hex digits of its little-endian float64
bytes, so every float64 survives the round trip bit-exactly and one
bytes.fromhex decodes the whole block. Format 2 stored the same bytes as
one base64 block, in the 76-character lines base64.encodebytes writes (57
bytes a line), and format 1 printed each weight with %.17g on a line of
its own; both still load, to the same weights.
"""

from __future__ import annotations

import base64
import json
import os
import re
import secrets
import stat
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Callable, Iterator, NoReturn, Sequence

import numpy as np

from .corpus import Sentence
from .crf import StateSpace, build_lattice, state_space, total_parameters, viterbi
from .crf_types import ModelOrder
from .features import (
    AFFIX_LENGTHS,
    WINDOW_OFFSETS,
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

FORMAT_LINE = "picrf model format 3"
FORMAT_2_LINE = "picrf model format 2"
FORMAT_1_LINE = "picrf model format 1"
# Weights per bytes.hex call when a format 3 weight block is written.
_HEX_SLICE = 4096
# A line of a format 3 weight block.
_HEX_LINE = re.compile("[0-9a-f]{16}")
# Bytes in each full line of a format 2 weight block.
_BLOCK_LINE_BYTES = 57
# The template lines after template_set, which every model holds as they
# stand here: the window, the normalized words and the affix lengths are
# the same for both feature sets.
_TEMPLATE_LINES = (
    ("window_offsets", " ".join(map(str, WINDOW_OFFSETS))),
    ("use_normalized", "1"),
    ("affix_lengths", " ".join(map(str, AFFIX_LENGTHS))),
)


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
        feature ids of all its tokens at once, looking each word type up in
        the index's per-slot tables (empty sentences add no rows there),
        build_lattice lays the non-empty sentences out in one packed
        lattice, as training does, and viterbi decodes them all in one
        pass; the row order puts the states back in token order, and one
        flat label list is split at the cumulative sentence lengths, so
        empty sentences decode to []. Pre-induced decodes are reverted, so
        carrier labels never leak into output. Deterministic: a sentence
        decodes to the same labels alone or in any batch.
        """
        lengths = np.fromiter(map(len, corpus), np.int64, len(corpus))
        if not lengths.any():
            return [[] for _ in corpus]
        ids = feature_id_matrix(corpus, self.index)
        lattice, widths, order = build_lattice(
            ids, lengths[lengths > 0], self.weights, self.index, self.space, constrained
        )
        rows, _ = viterbi(lattice, widths)
        states = np.empty_like(rows)
        states[order] = rows
        names = self.space.output_labels
        if self.order == ModelOrder.PRE_INDUCED:
            names = revert(names, self.alphabet)
        labels = np.array(names, dtype=object)[states].tolist()
        ends = np.cumsum(lengths)
        return [labels[a:b] for a, b in zip((ends - lengths).tolist(), ends.tolist())]


def _dump(model: Model, out: IO[str]) -> None:
    space = model.space
    t = model.template
    out.write(FORMAT_LINE + "\n")
    out.write("order: %s\n" % model.order)
    out.write("entity_types: %d\n" % len(model.alphabet.entity_types))
    for name in model.alphabet.entity_types:
        out.write(name + "\n")
    out.write("template_set: %d\n" % t.set_id)
    for key, value in _TEMPLATE_LINES:
        out.write("%s: %s\n" % (key, value))
    out.write("min_feature_count: %d\n" % t.min_feature_count)
    out.write("labels: %d\n" % model.alphabet.n_expanded)
    for label in model.alphabet.expanded_labels:
        out.write(label + "\n")
    out.write("effective_states: %d\n" % space.effective_states)
    out.write("transition_params: %d\n" % space.n_transition_params)
    out.write("features: %d\n" % len(model.index.features))
    # one json.dumps per feature, each on a line of its own
    out.write(json.dumps(model.index.features, separators=("\n", ":"))[1:-1] + "\n")
    out.write("weights: %d\n" % model.weights.size)
    _write_hex_lines(model.weights, out)
    out.write("end\n")


def _write_hex_lines(weights: np.ndarray, out: IO[str]) -> None:
    """Write one line per weight: the 16 lowercase hex digits of its
    little-endian float64 bytes. The lines are made _HEX_SLICE weights at
    a time, so no string of the whole block is built."""
    for start in range(0, weights.size, _HEX_SLICE):
        data = weights[start : start + _HEX_SLICE].astype("<f8").tobytes()
        out.write(data.hex("\n", 8) + "\n")


def save_model(model: Model, destination: str | os.PathLike | IO[str]) -> None:
    """Write a model to a text file object, or in place of the file at a
    path (open_replacing)."""
    if hasattr(destination, "write"):
        _dump(model, destination)
    else:
        with open_replacing(destination) as handle:
            _dump(model, handle)


@contextmanager
def open_replacing(path: str | os.PathLike) -> Iterator[IO[str]]:
    """A UTF-8 text file to write in place of the file at path.

    The text goes to a new file beside the target, which os.replace moves
    over it when the block exits, so the target is never left half
    written and is not truncated and rewritten; if the block raises, the
    new file is removed and the target is left as it was. A symbolic link
    is followed, so the link stays and the file it names is replaced. The
    new file gets the permission bits open(path, "w") would leave: the
    target's own, or for a new path 0o666 less the umask. Its owner is
    the writer, and other hard links to the target keep the old text.

    path is opened and written in place, as open(path, "w") would, when
    it names an existing file that is not a regular one (a terminal, a
    pipe, /dev/stdout, also through links) or when the new file cannot be
    created beside it.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    descriptor = None
    if mode is None or stat.S_ISREG(mode):
        if os.path.islink(path):
            path = os.path.realpath(path)
        directory, name = os.path.split(path)
        temporary = os.path.join(directory, ".%s.%s.tmp" % (name, secrets.token_hex(8)))
        try:
            # created as open() creates a file, so the umask applies
            descriptor = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError:
            # no such directory, no permission, a name too long: open()
            # below raises the error for path itself, or rewrites it
            pass
    if descriptor is None:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    try:
        with open(descriptor, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(descriptor, stat.S_IMODE(mode))
            yield handle
        os.replace(temporary, path)
    except BaseException:
        os.unlink(temporary)
        raise


class _LineReader:
    """A cursor over the whole text of a model file: lines end at "\n"
    and are read in order, by offset, without a list of them. count is
    the number of lines read."""

    def __init__(self, text: str):
        self._text = text
        self._pos = 0
        self.count = 0

    def next_line(self) -> str:
        text, pos = self._text, self._pos
        if pos >= len(text):
            raise ModelFormatError("model file truncated at line %d" % (self.count + 1))
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        self._pos = end + 1
        self.count += 1
        return text[pos:end]

    def _parsed_lines(
        self, n: int, parse: Callable[[str], object], fault: Callable[[int, str], str | None]
    ) -> object:
        """parse of the next n lines, as one slice that keeps each line's
        "\n". If the text holds fewer, or parse raises ValueError or
        RecursionError, raise the error _first_fault(n, fault) raises."""
        match = re.compile("(?:.*\n){%d}" % n).match(self._text, self._pos)
        try:
            if match is None:
                raise ValueError("short read")
            parsed = parse(match.group())
        except (ValueError, RecursionError):
            self._first_fault(n, fault)
        self._pos = match.end()
        self.count += n
        return parsed

    def floats(self, n: int) -> np.ndarray:
        """The next n lines as float64 values, parsed as one slice. A short
        read or a line that is not an ASCII number float() reads raises the
        error the line-by-line reads would have raised, naming the same
        line."""
        return self._parsed_lines(n, _floats, _number_fault)

    def hex_floats(self, n: int) -> np.ndarray:
        """n little-endian float64 values from the next n lines, each the
        16 lowercase hex digits of one value's bytes: the block format 3
        writes. The block is checked as one slice: a "\n" ends every 17th
        character, the slice is ASCII without an uppercase digit, and one
        bytes.fromhex, which skips the line breaks, gives exactly 8n bytes.
        If it is not exactly such a block, the first line that is not 16
        lowercase hex digits, or the short read, raises an error naming
        that line."""
        width = 17 * n
        block = self._text[self._pos : self._pos + width]
        data = bytearray()
        if (
            len(block) == width
            and block.isascii()
            and block[16::17] == "\n" * n
            and not any(digit in block for digit in "ABCDEF")
        ):
            try:
                data = bytearray.fromhex(block)
            except ValueError:
                pass
        if len(data) != 8 * n:
            self._first_fault(n, _hex_fault)
        self._pos += width
        self.count += n
        # a bytearray, so the weights are writable without a copy
        return np.frombuffer(data, "<f8").astype(np.float64, copy=False)

    def block_floats(self, n: int) -> np.ndarray:
        """n little-endian float64 values from the next ceil(8n/57) lines:
        the base64 block base64.encodebytes writes. The block is checked as
        one slice: its line breaks by their places, its alphabet and
        padding by one b64decode(validate=True) of the block without them,
        which also decodes it. If it is not exactly such a block, the first
        line that encodebytes would not have written, or the short read,
        raises an error naming that line."""
        size = 8 * n
        full, rest = divmod(size, _BLOCK_LINE_BYTES)
        # how a short last line ends: its "=" padding, then "\n"
        tail = b"=" * (-rest % 3) + b"\n" if rest else b""
        width = 77 * full + (4 * -(-rest // 3) + 1 if rest else 0)
        block = self._text[self._pos : self._pos + width]
        data = block.encode("ascii") if block.isascii() else b""
        decoded = b""
        if len(data) == width and data[76 : 77 * full : 77] == b"\n" * full and data.endswith(tail):
            try:
                decoded = base64.b64decode(data.replace(b"\n", b""), validate=True)
            except ValueError:
                pass
        if len(decoded) != size:
            self._first_fault(
                full + bool(rest), lambda k, line: _block_fault(size - k * _BLOCK_LINE_BYTES, line)
            )
        self._pos += width
        self.count += full + bool(rest)
        return np.frombuffer(decoded, "<f8").astype(np.float64)

    def json_strings(self, n: int) -> list[str]:
        """The next n lines as JSON strings, decoded by one json.loads of
        their slice as one array. A short read or a line that is not one
        JSON string raises the error the line-by-line reads would have
        raised, naming the same line."""
        return self._parsed_lines(n, _json_strings, _feature_fault)

    def _first_fault(self, n: int, fault: Callable[[int, str], str | None]) -> NoReturn:
        """Raise the error for the first of the next n lines, the k-th, for
        which fault(k, line) names a fault, naming that line; or, if there
        is none, the error for a read cut short after them."""
        for k in range(n):
            problem = fault(k, self.next_line())
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
        """A count: a non-negative integer in ASCII digits."""
        value = self.keyed(key)
        if not (value.isascii() and value.isdecimal()):
            raise ModelFormatError(
                "line %d: %s must be a non-negative integer, found %r" % (self.count, key, value)
            )
        return int(value)

    def end(self) -> None:
        line = self.next_line()
        if line != "end":
            raise ModelFormatError("line %d: expected the end marker, found %r" % (self.count, line))
        if self._pos < len(self._text):
            raise ModelFormatError("line %d: content after the end marker" % (self.count + 1))


def _floats(span: str) -> np.ndarray:
    """The numbers on the lines of span, one a line."""
    if not _ascii_digits(span):
        raise ValueError("not ASCII digits")
    lines = span.split("\n")[:-1]
    return np.fromiter(map(float, lines), np.float64, len(lines))


def _json_strings(span: str) -> list[str]:
    """The JSON strings on the lines of span, one a line: strict JSON
    rejects a raw newline inside a string and an empty item, so with as
    many items as lines, each line holds one."""
    values = json.loads("[" + span[:-1].replace("\n", ",\n") + "]")
    if len(values) != span.count("\n") or not set(map(type, values)) <= {str}:
        raise ValueError("not one JSON string a line")
    return values


def _ascii_digits(text: str) -> bool:
    """Whether text is ASCII without "_": float() also reads non-ASCII
    digits and "_" between digits, which a model never holds."""
    return text.isascii() and "_" not in text


def _number_fault(k: int, line: str) -> str | None:
    try:
        _floats(line + "\n")
    except ValueError:
        return "weight entry is not a number: %r" % line
    return None


def _feature_fault(k: int, line: str) -> str | None:
    try:
        value = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        return "feature entry is not a JSON string"
    return None if isinstance(value, str) else "feature entry is not a string"


def _hex_fault(k: int, line: str) -> str | None:
    if _HEX_LINE.fullmatch(line):
        return None
    return "weight line is not 16 lowercase hex digits: %r" % line


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
    if version not in (FORMAT_LINE, FORMAT_2_LINE, FORMAT_1_LINE):
        raise ModelFormatError(
            "unsupported model format: expected %r, %r or %r, found %r"
            % (FORMAT_LINE, FORMAT_2_LINE, FORMAT_1_LINE, version)
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
    for key, expected in _TEMPLATE_LINES:
        value = reader.keyed(key)
        if value != expected:
            raise ModelFormatError(
                "line %d: %s must be %r, found %r" % (reader.count, key, expected, value)
            )
    min_count = reader.keyed_int("min_feature_count")
    template = TemplateConfig(set_id=set_id, min_feature_count=min_count)

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
    try:
        index = make_feature_index(features, template, alphabet, order)
    except FeatureError as exc:
        if exc.position is None:
            raise
        line = reader.count - n_features + 1 + exc.position
        raise ModelFormatError("line %d: %s" % (line, exc)) from None

    n_weights = index.n_parameters + n_trans
    _expect(reader.keyed_int("weights"), n_weights, "weights")
    first_weight_line = reader.count + 1
    if version == FORMAT_LINE:
        weights = reader.hex_floats(n_weights)
    elif version == FORMAT_2_LINE:
        weights = reader.block_floats(n_weights)
    else:
        weights = reader.floats(n_weights)
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        i = int(bad[0])
        line = first_weight_line + (8 * i // _BLOCK_LINE_BYTES if version == FORMAT_2_LINE else i)
        raise ModelFormatError(
            "line %d: weight entry is not finite: %r" % (line, float(weights[i]))
        )
    reader.end()

    return Model(order=order, alphabet=alphabet, template=template, index=index, weights=weights)


def load_model(source: str | os.PathLike | IO[str]) -> Model:
    """Read a model from a path or text file object, validating as it goes.
    The whole text is read first, then parsed. Text that is not UTF-8
    raises ModelFormatError too, naming for a path the line of the first
    bad byte; a file object decodes its own text, so its error names no
    line and reads as after line 0."""
    if hasattr(source, "read"):
        try:
            text = source.read()
        except UnicodeDecodeError as exc:
            raise ModelFormatError("not UTF-8 after line 0: %s" % exc) from None
        return _parse(_LineReader(text))
    try:
        with open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
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
    return _parse(_LineReader(text))
