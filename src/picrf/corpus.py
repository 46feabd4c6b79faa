"""CoNLL column I/O, IOB2 validation and repair, chunk extraction, and a
synthetic corpus generator for long-range entity dependency experiments.

Corpus files are whitespace-separated columns, one token per line, with a
blank line terminating each sentence. A final sentence that ends at EOF
without a trailing blank line is still accepted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from itertools import chain, repeat
from operator import attrgetter, is_not
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class CorpusError(Exception):
    """Base class for corpus-level failures."""


class ParseError(CorpusError):
    """Malformed corpus line; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class LabelError(CorpusError):
    """Malformed label string or inconsistent IOB2 label sequence."""


@dataclass(frozen=True, slots=True)
class Sentence:
    """Token texts, each non-empty and free of whitespace (from_strings and
    read_conll hold to that), with an optional parallel label sequence."""

    tokens: tuple[str, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.labels is not None and len(self.labels) != len(self.tokens):
            raise CorpusError(
                "sentence has %d tokens but %d labels" % (len(self.tokens), len(self.labels))
            )

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def texts(self) -> tuple[str, ...]:
        return self.tokens

    @classmethod
    def from_strings(cls, texts: Sequence[str], labels: Sequence[str] | None = None) -> "Sentence":
        """CorpusError names the first text that is empty or has whitespace."""
        texts = tuple(texts)
        # str.split() splits on exactly the characters str.isspace() accepts,
        # so the join splits back into the texts exactly when each is valid
        if " ".join(texts).split() != list(texts):
            bad = next(t for t in texts if t.split() != [t])
            raise CorpusError("token text must be non-empty and contain no whitespace: %r" % (bad,))
        return cls(texts, tuple(labels) if labels is not None else None)


_set_tokens = Sentence.tokens.__set__
_set_labels = Sentence.labels.__set__


def _parsed_sentence(tokens: tuple[str, ...], labels: tuple[str, ...] | None) -> Sentence:
    """Sentence(tokens, labels) for read_conll, made without __init__,
    which writes each field of the frozen dataclass through
    object.__setattr__ and then checks the lengths. The slot writes here
    are cheaper, and read_conll's tuples are parallel by construction, so
    the check has nothing to catch."""
    sentence = object.__new__(Sentence)
    _set_tokens(sentence, tokens)
    _set_labels(sentence, labels)
    return sentence


class Chunk(NamedTuple):
    """A labeled span; ``end`` is exclusive, so ``end - start`` is its length."""

    entity_type: str
    start: int
    end: int


def split_label(label: str) -> tuple[str, str | None]:
    """Split an IOB2 label into (tag, entity_type); "O" maps to ("O", None)."""
    if label == "O":
        return ("O", None)
    if len(label) > 2 and label[1] == "-" and label[0] in ("B", "I"):
        return (label[0], label[2:])
    raise LabelError("not an IOB2 label: %r" % (label,))


def validate_iob2(
    labels: Sequence[str],
    mode: str = "strict",
    entity_types: Iterable[str] | None = None,
) -> list[str]:
    """Check an IOB2 label sequence, returning a well-formed copy.

    In "strict" mode any I-t that does not continue a same-type chunk raises
    LabelError. In "repair" mode such labels are rewritten to B-t, where the
    continuation check uses the already-repaired previous label. If
    entity_types is given, labels mentioning other types raise LabelError.

    Each distinct label is split, and its type checked, once per call, at
    its first occurrence, so every error names the same position as a
    check of every label would.
    """
    if mode not in ("strict", "repair"):
        raise ValueError("mode must be 'strict' or 'repair', got %r" % (mode,))
    known = set(entity_types) if entity_types is not None else None
    # each label other than O seen so far: its type, and whether its tag is I
    kinds: dict[str, tuple[str, bool]] = {}
    out = list(labels)
    prev_type: str | None = None
    for i, label in enumerate(out):
        if label == "O":
            prev_type = None
            continue
        kind = kinds.get(label)
        if kind is None:
            tag, typ = split_label(label)
            if known is not None and typ not in known:
                raise LabelError("position %d: unknown entity type in label %r" % (i, label))
            kind = kinds[label] = (typ, tag == "I")
        typ, inside = kind
        if inside and typ != prev_type:
            if mode == "strict":
                raise LabelError("position %d: %s does not continue a %s chunk" % (i, label, typ))
            out[i] = "B-" + typ
        prev_type = typ
    return out


def extract_chunks(labels: Sequence[str]) -> set[Chunk]:
    """Return the set of (type, start, end) spans in a strict IOB2 sequence."""
    checked = validate_iob2(labels, mode="strict")
    chunks: set[Chunk] = set()
    open_type: str | None = None
    open_start = 0
    for i, label in enumerate(checked):
        tag, typ = split_label(label)
        if open_type is not None and (tag != "I"):
            chunks.add(Chunk(open_type, open_start, i))
            open_type = None
        if tag == "B":
            open_type = typ
            open_start = i
    if open_type is not None:
        chunks.add(Chunk(open_type, open_start, len(checked)))
    return chunks


def _has_columns(n_columns: int) -> str:
    return "(line has %d column%s)" % (n_columns, "" if n_columns == 1 else "s")


def _column(idx: int, what: str, n_columns: int, line_number: int) -> int:
    if not -n_columns <= idx < n_columns:
        raise ParseError(
            "%s column %d missing %s" % (what, idx, _has_columns(n_columns)), line_number
        )
    return idx % n_columns


def read_conll(
    stream: Iterable[str],
    token_column: int = 0,
    label_column: int | None = -1,
) -> list[Sentence]:
    """Parse CoNLL-style lines into sentences.

    label_column=None reads unlabeled text. Columns are whitespace-separated;
    negative indices count from the right, so the default takes the last
    column as the label. A line too short for the requested columns, or too
    short to hold the token and label in distinct columns, raises ParseError
    with its line number, as does a label_column equal to token_column.
    Texts come out of str.split(), so they need no further check; one str
    serves every occurrence of a text within the call.
    """
    sentences: list[Sentence] = []
    tokens: list[str] = []
    labels: list[str] = []
    shared: dict[str, str] = {}
    width = 0  # the column count the token and label indices are for
    for line_number, raw in enumerate(chain(stream, [""]), start=1):
        columns = raw.split()
        if not columns:
            if tokens:
                sentences.append(_parsed_sentence(tuple(tokens), tuple(labels) or None))
                tokens, labels = [], []
            continue
        if len(columns) != width:
            width = len(columns)
            ti = _column(token_column, "token", width, line_number)
            li = None if label_column is None else _column(label_column, "label", width, line_number)
            if ti == li:
                # distinct indices meet only on a line too short for both
                problem = (
                    "token and label columns coincide"
                    if token_column == label_column
                    else "label column missing"
                )
                raise ParseError("%s %s" % (problem, _has_columns(width)), line_number)
        tokens.append(shared.setdefault(columns[ti], columns[ti]))
        if li is not None:
            labels.append(columns[li])
    return sentences


def write_conll(
    sentences: Sequence[Sentence],
    predicted: Sequence[Sequence[str]] | None = None,
) -> str:
    """Render sentences as tab-separated CoNLL text.

    Columns are token, then gold label when present, then the parallel
    predicted label when given. Misaligned predictions raise CorpusError
    naming the sentence index. The empty corpus renders as the empty string.

    The token lines are made in one "\\t".join pass over the chained token,
    gold and predicted columns of each run of sentences that all have gold
    labels or all lack them (a corpus read from one file is one run). The
    blank line that ends each sentence is placed from the cumulative
    lengths, so an empty sentence is a lone blank line, and the text is
    joined once.
    """
    tokens = list(map(attrgetter("tokens"), sentences))
    gold = list(map(attrgetter("labels"), sentences))
    n_sentences = len(tokens)
    lengths = np.fromiter(map(len, tokens), np.int64, n_sentences)
    if predicted is not None:
        if len(predicted) != n_sentences:
            raise CorpusError(
                "predicted has %d sequences for %d sentences" % (len(predicted), n_sentences)
            )
        counts = np.fromiter(map(len, predicted), np.int64, n_sentences)
        misaligned = np.flatnonzero(counts != lengths)
        if misaligned.size:
            si = int(misaligned[0])
            raise CorpusError(
                "sentence %d: %d tokens but %d predicted labels" % (si, lengths[si], counts[si])
            )
    # the runs of sentences that all have gold labels or all lack them
    labeled = np.fromiter(map(is_not, gold, repeat(None)), bool, n_sentences)
    starts = np.flatnonzero(np.diff(labeled, prepend=~labeled[:1])).tolist()
    token_lines = []
    for start, stop in zip(starts, starts[1:] + [n_sentences]):
        columns = [chain.from_iterable(tokens[start:stop])]
        if labeled[start]:
            columns.append(chain.from_iterable(gold[start:stop]))
        if predicted is not None:
            columns.append(chain.from_iterable(predicted[start:stop]))
        token_lines.append(map("\t".join, zip(*columns)))
    n_tokens = int(lengths.sum())
    # a blank line ends each sentence, and a last empty line ends the text
    # with a newline
    lines = np.full(n_tokens + n_sentences + 1, "", dtype=object)
    is_token = np.ones(lines.size, dtype=bool)
    is_token[np.cumsum(lengths) + np.arange(n_sentences)] = False
    is_token[-1] = False
    lines[is_token] = np.fromiter(chain.from_iterable(token_lines), object, n_tokens)
    return "\n".join(lines.tolist())


def _type_name(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else "T%d" % i


def identity_rule(entity_types: Sequence[str]) -> dict[str, str]:
    return {t: t for t in entity_types}


def rotation_rule(entity_types: Sequence[str]) -> dict[str, str]:
    """Map each type to the next one cyclically (a swap when there are two)."""
    n = len(entity_types)
    return {t: entity_types[(i + 1) % n] for i, t in enumerate(entity_types)}


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for the long-range dependency corpus.

    Each sentence is one typed entity token, a filler gap, a second entity
    token drawn from a vocabulary shared by all types, and up to
    max_trailing_fillers trailing fillers. The second entity's type is
    dependency_rule[first type], so only the first entity (plus the carried
    label state) disambiguates it. Each gap length is drawn uniformly from
    gap_lengths (default 1..6).
    """

    entity_type_count: int
    sentences: int
    seed: int = 0
    gap_lengths: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    dependency_rule: Mapping[str, str] | None = None
    filler_vocab_size: int = 20
    first_entity_vocab_size: int = 5
    shared_vocab_size: int = 10
    max_trailing_fillers: int = 3

    @property
    def entity_types(self) -> tuple[str, ...]:
        return tuple(_type_name(i) for i in range(self.entity_type_count))

    def resolved_rule(self) -> dict[str, str]:
        if self.dependency_rule is None:
            return identity_rule(self.entity_types)
        return dict(self.dependency_rule)


def _check_int(name: str, value) -> None:
    # an int itself: random.Random takes no other integer type as a seed
    if type(value) is not int:
        raise CorpusError("%s must be an integer, got %r" % (name, value))


def _check_synth_config(config: SynthConfig) -> dict[str, str]:
    for setting in fields(config):
        if setting.type == "int":  # the annotation, a string under __future__ annotations
            _check_int(setting.name, getattr(config, setting.name))
    for gap in config.gap_lengths:
        _check_int("gap_lengths", gap)
    if config.entity_type_count < 2:
        raise CorpusError("synthetic corpus needs at least 2 entity types")
    if config.sentences < 1:
        raise CorpusError("synthetic corpus needs at least 1 sentence")
    if not config.gap_lengths or any(g < 1 for g in config.gap_lengths):
        raise CorpusError("gap lengths must be positive integers")
    if min(config.filler_vocab_size, config.first_entity_vocab_size, config.shared_vocab_size) < 1:
        raise CorpusError("vocabulary sizes must be positive")
    if config.max_trailing_fillers < 0:
        raise CorpusError("max_trailing_fillers must be non-negative")
    rule = config.resolved_rule()
    types = config.entity_types
    if sorted(rule) != sorted(types) or sorted(rule.values()) != sorted(types):
        raise CorpusError("dependency_rule must be a bijection over the entity types")
    return rule


def generate_synthetic(config: SynthConfig) -> list[Sentence]:
    """Generate the dependency corpus; a pure function of the config.

    Vocabularies are disjoint by construction: fillers w00.., per-type first
    entity tokens like av0.., and shared second entity tokens s00... The
    second entity token alone carries no type information, so any tagger
    working from a bounded observation window must recover its type from
    label state carried across the gap.
    """
    rule = _check_synth_config(config)
    rng = random.Random(config.seed)
    types = config.entity_types
    fillers = ["w%02d" % i for i in range(config.filler_vocab_size)]
    first_vocab = {
        t: ["%sv%d" % (t.lower(), j) for j in range(config.first_entity_vocab_size)]
        for t in types
    }
    shared = ["s%02d" % j for j in range(config.shared_vocab_size)]

    sentences: list[Sentence] = []
    for _ in range(config.sentences):
        first_type = types[rng.randrange(len(types))]
        second_type = rule[first_type]
        # choices, not choice: the two consume rng differently, and the
        # corpus digests pinned in tests/test_corpus.py come from choices
        gap = rng.choices(list(config.gap_lengths), k=1)[0]
        trailing = rng.randrange(config.max_trailing_fillers + 1)
        texts = [rng.choice(first_vocab[first_type])]
        texts += [rng.choice(fillers) for _ in range(gap)]
        texts.append(rng.choice(shared))
        texts += [rng.choice(fillers) for _ in range(trailing)]
        labels = ["B-" + first_type] + ["O"] * gap + ["B-" + second_type] + ["O"] * trailing
        sentences.append(Sentence.from_strings(texts, labels))
    return sentences
