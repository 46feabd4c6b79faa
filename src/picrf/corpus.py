"""CoNLL column I/O, IOB2 validation and repair, chunk extraction, and a
synthetic corpus generator for long-range entity dependency experiments.

Corpus files are whitespace-separated columns, one token per line, with a
blank line terminating each sentence. A final sentence that ends at EOF
without a trailing blank line is still accepted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence


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
class Token:
    """A single surface token. Text must be non-empty and whitespace-free."""

    text: str

    def __post_init__(self):
        # str.split() splits on exactly the characters str.isspace() accepts
        if not self.text or self.text.split() != [self.text]:
            raise CorpusError("token text must be non-empty and contain no whitespace: %r" % (self.text,))


@dataclass(frozen=True, slots=True)
class Sentence:
    """A token sequence with an optional parallel label sequence."""

    tokens: tuple[Token, ...]
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
        return tuple(t.text for t in self.tokens)

    @classmethod
    def from_strings(cls, texts: Sequence[str], labels: Sequence[str] | None = None) -> "Sentence":
        return cls(tuple(Token(t) for t in texts), tuple(labels) if labels is not None else None)


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
    """
    if mode not in ("strict", "repair"):
        raise ValueError("mode must be 'strict' or 'repair', got %r" % (mode,))
    known = set(entity_types) if entity_types is not None else None
    out: list[str] = []
    prev_type: str | None = None
    for i, label in enumerate(labels):
        tag, typ = split_label(label)
        if typ is not None and known is not None and typ not in known:
            raise LabelError("position %d: unknown entity type in label %r" % (i, label))
        if tag == "I" and typ != prev_type:
            if mode == "strict":
                raise LabelError("position %d: %s does not continue a %s chunk" % (i, label, typ))
            out.append("B-" + typ)
            prev_type = typ
        else:
            out.append(label)
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


def _column(columns: list[str], idx: int, what: str, line_number: int) -> str:
    try:
        return columns[idx]
    except IndexError:
        raise ParseError(
            "%s column %d missing (line has %d columns)" % (what, idx, len(columns)),
            line_number,
        ) from None


def read_conll(
    stream: Iterable[str],
    token_column: int = 0,
    label_column: int | None = -1,
) -> list[Sentence]:
    """Parse CoNLL-style lines into sentences.

    label_column=None reads unlabeled text. Columns are whitespace-separated;
    negative indices count from the right, so the default takes the last
    column as the label. A line too short for the requested columns, or one
    where token and label columns coincide, raises ParseError with its line
    number.
    """
    sentences: list[Sentence] = []
    texts: list[str] = []
    labels: list[str] = []

    def flush():
        if texts:
            sentences.append(
                Sentence.from_strings(texts, labels if label_column is not None else None)
            )
            texts.clear()
            labels.clear()

    for line_number, raw in enumerate(stream, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            flush()
            continue
        columns = line.split()
        token = _column(columns, token_column, "token", line_number)
        if label_column is not None:
            label = _column(columns, label_column, "label", line_number)
            ti = token_column if token_column >= 0 else len(columns) + token_column
            li = label_column if label_column >= 0 else len(columns) + label_column
            if ti == li:
                raise ParseError(
                    "token and label columns coincide (line has %d columns)" % len(columns),
                    line_number,
                )
            labels.append(label)
        texts.append(token)
    flush()
    return sentences


def write_conll(
    sentences: Sequence[Sentence],
    predicted: Sequence[Sequence[str]] | None = None,
) -> str:
    """Render sentences as tab-separated CoNLL text.

    Columns are token, then gold label when present, then the parallel
    predicted label when given. Misaligned predictions raise CorpusError
    naming the sentence index. The empty corpus renders as the empty string.
    """
    if predicted is not None and len(predicted) != len(sentences):
        raise CorpusError(
            "predicted has %d sequences for %d sentences" % (len(predicted), len(sentences))
        )
    lines: list[str] = []
    for si, sentence in enumerate(sentences):
        pred = predicted[si] if predicted is not None else None
        if pred is not None and len(pred) != len(sentence):
            raise CorpusError(
                "sentence %d: %d tokens but %d predicted labels"
                % (si, len(sentence), len(pred))
            )
        for i, token in enumerate(sentence.tokens):
            columns = [token.text]
            if sentence.labels is not None:
                columns.append(sentence.labels[i])
            if pred is not None:
                columns.append(pred[i])
            lines.append("\t".join(columns))
        lines.append("")
    return "".join(line + "\n" for line in lines)


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
    label state) disambiguates it. gap_lengths with optional gap_weights
    define the gap distribution (default uniform over 1..6).
    """

    entity_type_count: int
    sentences: int
    seed: int = 0
    gap_lengths: tuple[int, ...] = (1, 2, 3, 4, 5, 6)
    gap_weights: tuple[float, ...] | None = None
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


def _check_synth_config(config: SynthConfig) -> dict[str, str]:
    if config.entity_type_count < 2:
        raise CorpusError("synthetic corpus needs at least 2 entity types")
    if config.sentences < 1:
        raise CorpusError("synthetic corpus needs at least 1 sentence")
    if not config.gap_lengths or any(g < 1 for g in config.gap_lengths):
        raise CorpusError("gap lengths must be positive integers")
    if config.gap_weights is not None:
        if len(config.gap_weights) != len(config.gap_lengths):
            raise CorpusError("gap_weights length does not match gap_lengths")
        if any(w < 0 for w in config.gap_weights) or sum(config.gap_weights) <= 0:
            raise CorpusError("gap_weights must be non-negative and sum to a positive value")
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
    weights = list(config.gap_weights) if config.gap_weights is not None else None

    sentences: list[Sentence] = []
    for _ in range(config.sentences):
        first_type = types[rng.randrange(len(types))]
        second_type = rule[first_type]
        gap = rng.choices(list(config.gap_lengths), weights=weights, k=1)[0]
        trailing = rng.randrange(config.max_trailing_fillers + 1)
        texts = [rng.choice(first_vocab[first_type])]
        texts += [rng.choice(fillers) for _ in range(gap)]
        texts.append(rng.choice(shared))
        texts += [rng.choice(fillers) for _ in range(trailing)]
        labels = ["B-" + first_type] + ["O"] * gap + ["B-" + second_type] + ["O"] * trailing
        sentences.append(Sentence.from_strings(texts, labels))
    return sentences
