"""Observation feature extraction and the feature-to-slot index.

Feature strings are the stable contract between extraction, training and
persisted models:

    W[d]=<token>     surface token at window offset d, d in -1, 0, 1
    NW[d]=<norm>     normalized token at offset d (lowercase, digits to 0)
    PRE[L]=<prefix>  length-L prefix of the current token, L in 2, 3, 4
                     (set 2 only)
    SUF[L]=<suffix>  length-L suffix of the current token (set 2 only)
    BIAS             always active

The paper's two feature sets are the only templates: set 1 is the window
family, and set 2 adds the affix family. The window, the normalized words
and the affix lengths are constants, so a TemplateConfig picks only the set
and min_feature_count, and model_io refuses a model file whose template
lines say otherwise.

Window positions outside the sentence yield BOS/EOS sentinel tokens that
carry an unprintable prefix, so they cannot collide with real text.

Every template reads one token at one window offset (W and NW at offset d,
PRE and SUF at offset 0), or none (BIAS), so a token's features depend
only on the word types around it. extract_features spells them out per
position and stays the reference. feature_id_matrix, which decoding and
build_feature_index use, makes the strings once per distinct word type
and template slot instead, as in the attribute dictionary of CRFsuite
(Okazaki 2007) and the compiled pattern tables of Wapiti (Lavergne, Cappe
& Yvon 2010): it interns a corpus's tokens to type ids, builds one
(n_types + 2, K) table of feature ids for its K template slots (the two
extra rows are BOS and EOS), and gathers the (N, K) feature ids of all N
tokens with numpy shifts over the type-id array.

Each indexed feature owns a contiguous block of weight slots, one per
observation-conditioned state, laid out in feature-index order. Models
over the expanded alphabet append one extra coarse slot per feature that
is shared by the whole outside class (plain O and every carrier state), a
tying that counters data sparseness: evidence observed under any outside
state also updates the shared slot, while each outside state keeps its own
fine slot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Mapping, Sequence

import numpy as np

from .corpus import Sentence
from .crf_types import ModelOrder
from .induction import LabelAlphabet

BOS = "\x00<BOS>"
EOS = "\x00<EOS>"
BIAS_FEATURE = "BIAS"
# The window of W and NW features, relative token positions, and how far
# it reaches either side.
WINDOW_OFFSETS = (-1, 0, 1)
WINDOW_RADIUS = max(map(abs, WINDOW_OFFSETS))
# The lengths of the PRE and SUF features of set 2; an affix is emitted
# only for a token at least that long.
AFFIX_LENGTHS = (2, 3, 4)

_DIGITS = re.compile(r"\d")
# folds the ASCII digits, the only characters \d matches in ASCII text
_ASCII_DIGITS = str.maketrans("123456789", "000000000")


class FeatureError(Exception):
    """Invalid template configuration or unknown feature/state lookups."""


def normalize_token(text: str) -> str:
    """Lowercase the token and fold every decimal digit to '0'.

    ASCII text is folded with one str.translate; other text keeps the
    regex, which also folds non-ASCII decimal digits (Unicode category Nd).
    """
    if text.isascii():
        return text.lower().translate(_ASCII_DIGITS)
    return _DIGITS.sub("0", text.lower())


@dataclass(frozen=True)
class TemplateConfig:
    """Which observation features to extract: set_id 1 (the window family)
    or 2 (window and affixes), and the count below which an indexed
    feature is dropped."""

    set_id: int = 1
    min_feature_count: int = 0

    def __post_init__(self):
        if type(self.set_id) is not int or self.set_id not in (1, 2):
            raise FeatureError("set_id must be 1 or 2, got %r" % (self.set_id,))
        if type(self.min_feature_count) is not int or self.min_feature_count < 0:
            raise FeatureError(
                "min_feature_count must be a non-negative integer, got %r"
                % (self.min_feature_count,)
            )

    @property
    def feature_prefixes(self) -> frozenset[str]:
        """The prefix, up to and including its first '=', of every feature
        string this template can emit except BIAS ("W[-1]=", "PRE[3]=", ...)."""
        prefixes = {"%s[%d]=" % (f, d) for f in ("W", "NW") for d in WINDOW_OFFSETS}
        if self.set_id == 2:
            prefixes.update("%s[%d]=" % (f, n) for f in ("PRE", "SUF") for n in AFFIX_LENGTHS)
        return frozenset(prefixes)


def extract_features(sentence: Sentence, config: TemplateConfig) -> list[list[str]]:
    """Per-position active feature strings for a non-empty sentence.

    The returned lists are duplicate-free and deterministically ordered:
    window surface features, window normalized features, then prefixes,
    suffixes and BIAS.
    """
    if len(sentence) == 0:
        raise FeatureError("cannot extract features from an empty sentence")
    texts = sentence.tokens
    n = len(texts)
    norms = tuple(normalize_token(t) for t in texts)

    features: list[list[str]] = []
    for t in range(n):
        active: list[str] = []
        for d in WINDOW_OFFSETS:
            j = t + d
            tok = BOS if j < 0 else EOS if j >= n else texts[j]
            active.append("W[%d]=%s" % (d, tok))
        for d in WINDOW_OFFSETS:
            j = t + d
            tok = BOS if j < 0 else EOS if j >= n else norms[j]
            active.append("NW[%d]=%s" % (d, tok))
        if config.set_id == 2:
            word = texts[t]
            for length in AFFIX_LENGTHS:
                if len(word) >= length:
                    active.append("PRE[%d]=%s" % (length, word[:length]))
            for length in AFFIX_LENGTHS:
                if len(word) >= length:
                    active.append("SUF[%d]=%s" % (length, word[-length:]))
        active.append(BIAS_FEATURE)
        features.append(active)
    return features


def _slot_columns(
    types: Sequence[str], config: TemplateConfig
) -> tuple[list[int], list[list[str | None]]]:
    """The template slots of extract_features, in its order: each slot's
    window offset, and its feature string for every type followed by BOS
    and EOS, None where the slot emits nothing. Each string is the slot's
    prefix ("W[-1]=", "SUF[2]=", ...) concatenated with the word or affix."""
    words = [*types, BOS, EOS]
    norms = [*map(normalize_token, types), BOS, EOS]
    offsets: list[int] = []
    columns: list[list[str | None]] = []
    for family, column_words in (("W", words), ("NW", norms)):
        for d in WINDOW_OFFSETS:
            offsets.append(d)
            prefix = "%s[%d]=" % (family, d)
            columns.append([prefix + word for word in column_words])
    if config.set_id == 2:
        for n in AFFIX_LENGTHS:
            offsets.append(0)
            prefix = "PRE[%d]=" % n
            columns.append([prefix + w[:n] if len(w) >= n else None for w in types] + [None, None])
        for n in AFFIX_LENGTHS:
            offsets.append(0)
            prefix = "SUF[%d]=" % n
            columns.append([prefix + w[-n:] if len(w) >= n else None for w in types] + [None, None])
    offsets.append(0)
    columns.append([BIAS_FEATURE] * len(types) + [None, None])
    return offsets, columns


def feature_id_matrix(
    corpus: Sequence[Sentence],
    config: TemplateConfig,
    lookup: Callable[[str | None, int], int],
) -> np.ndarray:
    """Feature ids (N, K) of the N tokens of a corpus, sentence after
    sentence, one column per template slot.

    Row i holds, in extract_features order, the id of each feature string
    extract_features emits for token i, and -1 where the slot emits nothing
    (an affix longer than the token). lookup(feature, -1) gives a feature's
    id, or -1 for a feature to leave out, and must give -1 for None, which
    stands for a slot that emits nothing; a dict's get does all that. It
    runs once per distinct word type and slot. Empty sentences contribute
    no rows.
    """
    vocab: dict[str, int] = {}
    types = np.fromiter(
        (vocab.setdefault(text, len(vocab)) for sentence in corpus for text in sentence.tokens),
        np.int64,
    )
    offsets, columns = _slot_columns(list(vocab), config)
    # int32: the index type of the incidence matrices built from these ids
    table = np.array([list(map(lookup, column, repeat(-1))) for column in columns], dtype=np.int32)
    # each sentence's type ids padded with WINDOW_RADIUS BOS rows before
    # and as many EOS rows after, so that a window offset is a plain shift
    lengths = np.fromiter(map(len, corpus), np.int64, len(corpus))
    width = lengths + 2 * WINDOW_RADIUS
    padded = np.full(int(width.sum()), len(vocab) + 1)
    pad_starts = np.cumsum(width) - width
    padded[(pad_starts[:, None] + np.arange(WINDOW_RADIUS)).ravel()] = len(vocab)
    # the corpus's token i sits at padded[at[i]]
    at = np.repeat(pad_starts + WINDOW_RADIUS - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(types.size)
    padded[at] = types
    return table[np.arange(len(offsets)), padded[at[:, None] + np.array(offsets)]]


@dataclass(frozen=True)
class FeatureIndex:
    """Deterministic feature-to-slot layout for one model order.

    obs_labels is the observation-conditioned state inventory (base labels
    for first- and second-order models, the expanded alphabet for the
    pre-induced model). Feature i owns slots [i * block_size, (i + 1) *
    block_size): one fine slot per observation state plus, when has_coarse,
    a trailing slot shared by the outside class.
    """

    features: tuple[str, ...]
    obs_labels: tuple[str, ...]
    has_coarse: bool
    outside_obs_ids: tuple[int, ...]
    feature_ids: Mapping[str, int] = field(repr=False)
    obs_label_ids: Mapping[str, int] = field(repr=False)

    @property
    def n_fine(self) -> int:
        return len(self.obs_labels)

    @property
    def block_size(self) -> int:
        return self.n_fine + (1 if self.has_coarse else 0)

    @property
    def n_parameters(self) -> int:
        return len(self.features) * self.block_size

    def feature_id(self, feature: str) -> int | None:
        return self.feature_ids.get(feature)

    def block_start(self, feature_id: int) -> int:
        return feature_id * self.block_size

    def observation_slots(self, feature: str, state: str) -> list[int]:
        """Weight slots the (feature, state) pair activates.

        Outside-class states of a coarse-tied index activate their fine slot
        and the feature's shared coarse slot; every other state activates
        its fine slot only.
        """
        fid = self.feature_ids.get(feature)
        if fid is None:
            raise FeatureError("unknown feature: %r" % (feature,))
        sid = self.obs_label_ids.get(state)
        if sid is None:
            raise FeatureError("unknown observation state: %r" % (state,))
        start = self.block_start(fid)
        slots = [start + sid]
        if self.has_coarse and sid in self.outside_obs_ids:
            slots.append(start + self.n_fine)
        return slots

    def encode_positions(self, position_features: Sequence[Sequence[str]]) -> list[np.ndarray]:
        """Map per-position feature strings to arrays of block start offsets.

        Features absent from the index are dropped, which makes them
        contribute exactly zero score. feature_id_matrix gives the same
        features as feature ids, without building strings per token.
        """
        block = self.block_size
        ids = self.feature_ids
        encoded: list[np.ndarray] = []
        for active in position_features:
            starts = [fid * block for fid in map(ids.get, active) if fid is not None]
            encoded.append(np.asarray(starts, dtype=np.int64))
        return encoded


def make_feature_index(
    features: Sequence[str], alphabet: LabelAlphabet, order: ModelOrder
) -> FeatureIndex:
    """Assemble an index from an already-decided feature list in slot order."""
    kept = tuple(features)
    if not kept:
        raise FeatureError("feature list is empty")
    if len(set(kept)) != len(kept):
        raise FeatureError("duplicate feature strings in index")
    pre_induced = ModelOrder(order) == ModelOrder.PRE_INDUCED
    obs_labels = alphabet.expanded_labels if pre_induced else alphabet.base_labels
    return FeatureIndex(
        features=kept,
        obs_labels=tuple(obs_labels),
        has_coarse=pre_induced,
        outside_obs_ids=tuple(alphabet.outside_class_ids) if pre_induced else (),
        feature_ids={f: i for i, f in enumerate(kept)},
        obs_label_ids={label: i for i, label in enumerate(obs_labels)},
    )


def build_feature_index(
    corpus: Sequence[Sentence],
    config: TemplateConfig,
    alphabet: LabelAlphabet,
    order: ModelOrder,
) -> FeatureIndex:
    """Collect features over a corpus and assign the slot layout.

    Slot order is first-occurrence order over the corpus, which makes the
    layout a deterministic function of corpus order and template config.
    Features seen fewer than min_feature_count times are dropped. Feature
    strings are made once per word type and template slot (see
    feature_id_matrix); the index equals the one that counting the strings
    of extract_features over the corpus gives.
    """
    if any(len(sentence) == 0 for sentence in corpus):
        raise FeatureError("cannot extract features from an empty sentence")
    strings: dict[str, int] = {}

    def intern(feature: str | None, missing: int) -> int:
        return missing if feature is None else strings.setdefault(feature, len(strings))

    ids = feature_id_matrix(corpus, config, intern)
    # row-major, so the stream runs in the order extract_features emits it
    found, first, counts = np.unique(ids[ids >= 0], return_index=True, return_counts=True)
    keep = counts >= config.min_feature_count
    names = list(strings)
    kept = tuple(names[i] for i in found[keep][np.argsort(first[keep])])
    if not kept:
        raise FeatureError("no features survived the frequency cutoff")
    return make_feature_index(kept, alphabet, order)
