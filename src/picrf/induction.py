"""Expanded label alphabets and the carrier-state label transform.

A carrier label "t[O]" marks an outside token whose nearest preceding
entity in the same sentence has type t. Rewriting every outside run this
way lets a first-order chain model propagate entity identity across
arbitrarily long gaps: the transition into the next entity conditions on
the carrier type instead of on a single anonymous outside state. The
transform is deterministic, resets at sentence boundaries, and is exactly
undone by revert, so models trained on carrier labels still evaluate
against ordinary IOB2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

from .corpus import LabelError, Sentence, split_label, validate_iob2

CARRIER_SUFFIX = "[O]"
_RESERVED = "[]"


class AlphabetError(Exception):
    """Invalid entity type inventory or label outside the alphabet."""


@dataclass(frozen=True)
class LabelAlphabet:
    """Base IOB2 labels plus one carrier label per entity type.

    base_labels is [B-t1, I-t1, ..., B-tE, I-tE, O]; induced_labels is
    [t1[O], ..., tE[O]]; expanded_labels is their concatenation. Index
    positions are stable, so they double as state identifiers.
    """

    entity_types: tuple[str, ...]
    base_labels: tuple[str, ...]
    induced_labels: tuple[str, ...]
    expanded_labels: tuple[str, ...]
    base_index: Mapping[str, int]
    expanded_index: Mapping[str, int]

    @property
    def n_base(self) -> int:
        return len(self.base_labels)

    @property
    def n_expanded(self) -> int:
        return len(self.expanded_labels)

    def carrier_label(self, entity_type: str) -> str:
        if entity_type not in self.entity_types:
            raise AlphabetError("unknown entity type: %r" % (entity_type,))
        return entity_type + CARRIER_SUFFIX

    @staticmethod
    def carrier_type(label: str) -> str | None:
        """The entity type a carrier label stores, or None for other labels."""
        if label.endswith(CARRIER_SUFFIX) and len(label) > len(CARRIER_SUFFIX):
            return label[: -len(CARRIER_SUFFIX)]
        return None

    @property
    def outside_class(self) -> tuple[str, ...]:
        """Plain O together with every carrier label."""
        return ("O",) + self.induced_labels

    @property
    def outside_class_ids(self) -> tuple[int, ...]:
        return tuple(self.expanded_index[label] for label in self.outside_class)


def build_expanded_alphabet(entity_types: Sequence[str]) -> LabelAlphabet:
    """Build the expanded alphabet for a list of distinct entity type names.

    Type names must be non-empty, contain no whitespace and none of the
    reserved characters "[" or "]" (the carrier label syntax uses them).
    """
    types = tuple(entity_types)
    if not types:
        raise AlphabetError("at least one entity type is required")
    if len(set(types)) != len(types):
        raise AlphabetError("duplicate entity type names")
    for t in types:
        if not t or any(c.isspace() for c in t) or any(c in _RESERVED for c in t):
            raise AlphabetError("invalid entity type name: %r" % (t,))
    base: list[str] = []
    for t in types:
        base.append("B-" + t)
        base.append("I-" + t)
    base.append("O")
    induced = [t + CARRIER_SUFFIX for t in types]
    expanded = base + induced
    return LabelAlphabet(
        entity_types=types,
        base_labels=tuple(base),
        induced_labels=tuple(induced),
        expanded_labels=tuple(expanded),
        base_index={label: i for i, label in enumerate(base)},
        expanded_index={label: i for i, label in enumerate(expanded)},
    )


def corpus_entity_types(*corpora: Iterable[Sentence]) -> list[str]:
    """Sorted entity types named by the labels of one or more corpora.

    Reads B-t/I-t labels and carrier labels t[O]; any other label except
    O raises LabelError. Returns an empty list when no label names a type,
    so each caller can raise its own error for that case.
    """
    # distinct labels in first-occurrence order, so the first bad label fails
    labels = dict.fromkeys(label for corpus in corpora for s in corpus for label in s.labels or ())
    types = set()
    for label in labels:
        typ = LabelAlphabet.carrier_type(label)
        if typ is None:
            _, typ = split_label(label)
        if typ is not None:
            types.add(typ)
    return sorted(types)


def induce(labels: Sequence[str], alphabet: LabelAlphabet) -> list[str]:
    """Rewrite a strict IOB2 sequence over the expanded alphabet.

    A memory cell starts empty at the sentence boundary. Every B-t or I-t
    sets it to t and is copied through unchanged; every O emits the carrier
    label of the remembered type, or plain O while the memory is still
    empty. Input must be valid IOB2 over the alphabet's entity types.
    """
    checked = validate_iob2(labels, mode="strict", entity_types=alphabet.entity_types)
    memory: str | None = None
    out: list[str] = []
    for label in checked:
        tag, typ = split_label(label)
        if tag == "O":
            out.append(memory + CARRIER_SUFFIX if memory is not None else "O")
        else:
            memory = typ
            out.append(label)
    return out


def revert(labels: Sequence[str], alphabet: LabelAlphabet) -> list[str]:
    """Map carrier labels back to plain O, leaving base labels unchanged.

    Total on the expanded alphabet: revert(induce(y)) == y for every valid
    IOB2 sequence y, and revert is idempotent. Labels outside the expanded
    alphabet raise AlphabetError.
    """
    out: list[str] = []
    for i, label in enumerate(labels):
        if label not in alphabet.expanded_index:
            raise AlphabetError("position %d: label %r is not in the expanded alphabet" % (i, label))
        out.append("O" if alphabet.carrier_type(label) is not None else label)
    return out


class StateCountReport(NamedTuple):
    """How many states the transform adds for a given type inventory.

    new_states counts one carrier per entity type. with_plain_outside is the
    alternative count (N - 1) / 2 + 1 for N = 2E + 1 base labels, which also
    counts the retained plain outside state alongside the carriers.
    """

    entity_type_count: int
    new_states: int
    with_plain_outside: int


def count_new_states(entity_type_count: int) -> int:
    """Number of carrier states added for entity_type_count types."""
    if entity_type_count < 1:
        raise AlphabetError("entity_type_count must be at least 1")
    return entity_type_count


def state_count_report(entity_type_count: int) -> StateCountReport:
    n = count_new_states(entity_type_count)
    return StateCountReport(entity_type_count, n, n + 1)
