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
only on the word types around it. extract_features gives them per
position, a slot column at a time, and stays the reference. Decoding looks words up per template
slot instead, as in the attribute dictionary of CRFsuite (Okazaki 2007)
and the compiled pattern tables of Wapiti (Lavergne, Cappe & Yvon 2010):
a FeatureIndex keeps, for each slot, a table from the word after a
feature's first "=" to the feature's id. feature_id_matrix interns a
corpus's tokens to type ids and looks each slot's word of every type up
in that slot's table, so it makes no feature string per type and slot.
It then gathers the (N, K) feature ids of all N tokens with numpy shifts
over the type-id array. build_feature_index reads the same per-slot
words, but it must name the features it finds, so it interns each slot's
prefix concatenated with each word.

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
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

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
# The template slots other than BIAS, in extract_features order: a slot
# (family, n) emits the features "family[n]=<word>", where n is the window
# offset of W and NW and the length of PRE and SUF.
WINDOW_SLOTS = tuple((family, d) for family in ("W", "NW") for d in WINDOW_OFFSETS)
AFFIX_SLOTS = tuple((family, n) for family in ("PRE", "SUF") for n in AFFIX_LENGTHS)

# What extract_features adds to a sentence's words: the sentinel padding
# of the window, the concatenation of each window slot's prefix onto a
# word, and each affix slot's prefix, cut and length, in slot order
_BOS_PAD, _EOS_PAD = (BOS,) * WINDOW_RADIUS, (EOS,) * WINDOW_RADIUS
_W_PREFIXES = tuple(("W[%d]=" % d).__add__ for d in WINDOW_OFFSETS)
_NW_PREFIXES = tuple(("NW[%d]=" % d).__add__ for d in WINDOW_OFFSETS)
_AFFIX_CUTS = tuple(
    ("%s[%d]=" % (family, n), slice(n) if family == "PRE" else slice(-n, None), n)
    for family, n in AFFIX_SLOTS
)

# the slots whose words are normalized tokens
_NW_NAMES = frozenset("NW[%d]" % d for d in WINDOW_OFFSETS)

_DIGITS = re.compile(r"\d")
# folds the ASCII digits, the only characters \d matches in ASCII text
_ASCII_DIGITS = str.maketrans("123456789", "000000000")


class FeatureError(Exception):
    """Invalid template configuration or unknown feature/state lookups.
    position is the index, in the feature list at fault, of the feature
    the error names, or None."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


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
    def slots(self) -> tuple[tuple[str, int], ...]:
        """The template's slots other than BIAS, in extract_features order."""
        return WINDOW_SLOTS + (AFFIX_SLOTS if self.set_id == 2 else ())

    @property
    def feature_prefixes(self) -> frozenset[str]:
        """The prefix, up to and including its first '=', of every feature
        string this template can emit except BIAS ("W[-1]=", "PRE[3]=", ...)."""
        return frozenset("%s[%d]=" % slot for slot in self.slots)


def extract_features(sentence: Sentence, config: TemplateConfig) -> list[list[str]]:
    """Per-position active feature strings for a non-empty sentence.

    The returned lists are duplicate-free and deterministically ordered:
    window surface features, window normalized features, then prefixes,
    suffixes and BIAS. This is the reference that feature_id_matrix and
    build_feature_index must agree with.

    The strings are built a slot column at a time: the tokens and their
    normalized forms are padded with BOS and EOS once, each window slot's
    prefix is concatenated onto its shifted column, and the columns are
    zipped into per-position lists; set 2 then adds each token's affixes.
    """
    if len(sentence) == 0:
        raise FeatureError("cannot extract features from an empty sentence")
    texts = sentence.tokens
    n = len(texts)
    columns = []
    for adds, words in ((_W_PREFIXES, texts), (_NW_PREFIXES, _normalized(list(texts)))):
        padded = (*_BOS_PAD, *words, *_EOS_PAD)
        for add, d in zip(adds, WINDOW_OFFSETS):
            columns.append(map(add, padded[WINDOW_RADIUS + d : WINDOW_RADIUS + d + n]))
    if config.set_id == 1:
        return list(map(list, zip(*columns, repeat(BIAS_FEATURE, n))))
    features = list(map(list, zip(*columns)))
    for active, word in zip(features, texts):
        size = len(word)
        active += [prefix + word[cut] for prefix, cut, length in _AFFIX_CUTS if size >= length]
        active.append(BIAS_FEATURE)
    return features


def _normalized(words: list[str]) -> list[str]:
    """normalize_token of each word. ASCII words are folded all at once, by
    one lower and translate of their text joined with newlines; the split
    back checks that no word held one."""
    joined = "\n".join(words)
    if joined.isascii():
        norms = joined.lower().translate(_ASCII_DIGITS).split("\n")
        if len(norms) == len(words):
            return norms
    return list(map(normalize_token, words))


def _slot_id_matrix(
    corpus: Sequence[Sentence],
    slots: Sequence[tuple[str, int]],
    slot_ids: Callable[[tuple[str, int], Iterable[str]], Iterator[int]],
    bias_id: int,
) -> np.ndarray:
    """Feature ids (N, K) of the N tokens of a corpus, sentence after
    sentence: one column per slot, in the order of slots, then one of
    bias_id.

    slot_ids(slot, words) gives the id of the slot's feature of each word,
    or -1 for none. It is called once per slot, with the word that slot
    reads of each distinct word type of the corpus: the type itself (W),
    its normalized form (NW), or its first or last n characters (PRE[n],
    SUF[n]). The words of a window slot go on with BOS and EOS. A type
    shorter than n gets -1 in the affix slots of length n, whatever
    slot_ids gives it. Empty sentences contribute no rows.
    """
    vocab: dict[str, int] = {}
    types = np.fromiter(
        (vocab.setdefault(text, len(vocab)) for sentence in corpus for text in sentence.tokens),
        np.int64,
    )
    words = list(vocab)
    n_types = len(words)
    norms = _normalized(words)
    # the sentinel rows count as length 0, so no affix slot emits there
    word_lengths = np.fromiter(chain(map(len, words), (0, 0)), np.int64, n_types + 2)
    # int32: the index type of the incidence matrices built from these ids
    table = np.full((len(slots) + 1, n_types + 2), -1, np.int32)
    for k, slot in enumerate(slots):
        family, n = slot
        if slot in AFFIX_SLOTS:
            cut = slice(n) if family == "PRE" else slice(-n, None)
            table[k, :n_types] = np.fromiter(
                slot_ids(slot, map(itemgetter(cut), words)), np.int32, n_types
            )
            table[k, word_lengths < n] = -1
        else:
            column = chain(words if family == "W" else norms, (BOS, EOS))
            table[k] = np.fromiter(slot_ids(slot, column), np.int32, n_types + 2)
    table[-1, :n_types] = bias_id
    offsets = [0 if slot in AFFIX_SLOTS else slot[1] for slot in slots] + [0]
    # each sentence's type ids padded with WINDOW_RADIUS BOS rows before
    # and as many EOS rows after, so that a window offset is a plain shift
    lengths = np.fromiter(map(len, corpus), np.int64, len(corpus))
    width = lengths + 2 * WINDOW_RADIUS
    padded = np.full(int(width.sum()), n_types + 1)
    pad_starts = np.cumsum(width) - width
    padded[(pad_starts[:, None] + np.arange(WINDOW_RADIUS)).ravel()] = n_types
    # the corpus's token i sits at padded[at[i]]
    at = np.repeat(pad_starts + WINDOW_RADIUS - (np.cumsum(lengths) - lengths), lengths)
    at += np.arange(types.size)
    padded[at] = types
    return table[np.arange(len(offsets)), padded[at[:, None] + np.array(offsets)]]


def feature_id_matrix(corpus: Sequence[Sentence], index: FeatureIndex) -> np.ndarray:
    """Feature ids (N, K) of the N tokens of a corpus under an index,
    sentence after sentence, one column per template slot of the index.

    Row i holds, in extract_features order, the id of each feature
    extract_features emits for token i, and -1 where the slot emits nothing
    (an affix longer than the token) or the index lacks the feature. Each
    slot's word of each distinct word type is looked up in that slot's
    table (FeatureIndex.slot_tables), so no feature string is made. Empty
    sentences contribute no rows.
    """
    tables = index.slot_tables

    def slot_ids(slot: tuple[str, int], words: Iterable[str]) -> Iterator[int]:
        return map(tables["%s[%d]" % slot].get, words, repeat(-1))

    bias_id = tables[BIAS_FEATURE].get("", -1)
    return _slot_id_matrix(corpus, index.template_slots, slot_ids, bias_id)


@dataclass(frozen=True)
class FeatureIndex:
    """Deterministic feature-to-slot layout for one model order.

    template_slots are the template's slots other than BIAS, in
    extract_features order. obs_labels is the observation-conditioned state
    inventory (base labels for first- and second-order models, the
    expanded alphabet for the pre-induced model). Feature i owns slots
    [i * block_size, (i + 1) * block_size): one fine slot per observation
    state plus, when has_coarse, a trailing slot shared by the outside
    class.
    """

    features: tuple[str, ...]
    template_slots: tuple[tuple[str, int], ...]
    obs_labels: tuple[str, ...]
    has_coarse: bool
    outside_obs_ids: tuple[int, ...]
    obs_label_ids: Mapping[str, int] = field(repr=False)

    @cached_property
    def feature_ids(self) -> dict[str, int]:
        """Each feature's id by its string. Built on first use: training and
        the lookups by string below use it, decoding does not."""
        return dict(zip(self.features, count()))

    @cached_property
    def slot_tables(self) -> dict[str, dict[str, int]]:
        """Each feature's id by its word, in one table per slot. A feature's
        slot is its text before the first "=" ("W[-1]", "PRE[3]", ...) and
        its word the text after; BIAS is the one feature of slot "BIAS",
        with the empty word. There is a table for every slot and BIAS.
        Built on first use; make_feature_index builds it to check the
        features."""
        return _slot_tables(self.features, self.template_slots)

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


def _slot_tables(
    features: Sequence[str], slots: Sequence[tuple[str, int]]
) -> dict[str, dict[str, int]]:
    """FeatureIndex.slot_tables of features over slots, made in one pass.

    Raises FeatureError, with its position, for the first feature that a
    template with these slots cannot emit: one whose text before the first
    "=" names none of its slots, whose word is empty, whose affix is not n
    characters long, or whose NW word, BOS and EOS aside, is not
    normalized. If there is none, a feature listed twice raises a
    FeatureError without a position.
    """
    # the length of each slot's words: n for an affix slot, 0 for any
    lengths = {"%s[%d]" % slot: slot[1] if slot in AFFIX_SLOTS else 0 for slot in slots}
    tables: dict[str, dict[str, int]] = {name: {} for name in lengths}
    tables[BIAS_FEATURE] = {}
    try:
        for i, (name, _, word) in enumerate(map(str.partition, features, repeat("="))):
            tables[name][word] = i
    except KeyError:
        pass
    else:
        # a duplicate leaves the tables short of features, "BIAS=..." puts
        # a feature other than BIAS in its table, and an empty word or a
        # missing "=" shows as the word ""
        if (
            sum(map(len, tables.values())) == len(features)
            and all(features[i] == BIAS_FEATURE for i in tables[BIAS_FEATURE].values())
            and not any("" in tables[name] for name in lengths)
            and all(set(map(len, tables[name])) <= {n} for name, n in lengths.items() if n)
            and all(
                _normalized(words) == words
                for words in (
                    [word for word in tables[name] if word not in (BOS, EOS)]
                    for name in lengths
                    if name in _NW_NAMES
                )
            )
        ):
            return tables
    for i, feature in enumerate(features):
        name, eq, word = feature.partition("=")
        emits = eq and word and lengths.get(name) in (0, len(word))
        if name in _NW_NAMES and word not in (BOS, EOS):
            emits = emits and normalize_token(word) == word
        if feature != BIAS_FEATURE and not emits:
            raise FeatureError("the template cannot emit feature %r" % (feature,), i)
    raise FeatureError("duplicate feature strings in index")


def _feature_index(
    features: tuple[str, ...], config: TemplateConfig, alphabet: LabelAlphabet, order: ModelOrder
) -> FeatureIndex:
    """make_feature_index without its checks of the features."""
    pre_induced = ModelOrder(order) == ModelOrder.PRE_INDUCED
    obs_labels = alphabet.expanded_labels if pre_induced else alphabet.base_labels
    return FeatureIndex(
        features=features,
        template_slots=config.slots,
        obs_labels=tuple(obs_labels),
        has_coarse=pre_induced,
        outside_obs_ids=tuple(alphabet.outside_class_ids) if pre_induced else (),
        obs_label_ids={label: i for i, label in enumerate(obs_labels)},
    )


def make_feature_index(
    features: Sequence[str], config: TemplateConfig, alphabet: LabelAlphabet, order: ModelOrder
) -> FeatureIndex:
    """Assemble an index from an already-decided feature list in slot order.

    Raises FeatureError for an empty list, a feature the template cannot
    emit (naming its position) or a feature listed twice.
    """
    kept = tuple(features)
    if not kept:
        raise FeatureError("feature list is empty")
    index = _feature_index(kept, config, alphabet, order)
    index.slot_tables  # builds the tables, which checks the features
    return index


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
    strings are made once per word type and template slot, from the same
    per-slot words feature_id_matrix looks up; the index equals the one
    that counting the strings of extract_features over the corpus gives.
    An empty sentence, or an empty token, whose features no model file
    could load, raises FeatureError.
    """
    for number, tokens in enumerate(sentence.tokens for sentence in corpus):
        if not tokens:
            raise FeatureError("cannot extract features from an empty sentence")
        if "" in tokens:
            raise FeatureError(
                "sentence %d: empty token at position %d" % (number, tokens.index(""))
            )
    # each string's id is the count drawn when it was first seen, so ids
    # are distinct but not dense
    strings: dict[str, int] = {}
    draws = count()

    def intern(slot: tuple[str, int], words: Iterable[str]) -> Iterator[int]:
        return map(strings.setdefault, map(("%s[%d]=" % slot).__add__, words), draws)

    bias = strings.setdefault(BIAS_FEATURE, next(draws))
    ids = _slot_id_matrix(corpus, config.slots, intern, bias)
    # row-major, so the stream runs in the order extract_features emits it
    found, first, counts = np.unique(ids[ids >= 0], return_index=True, return_counts=True)
    keep = counts >= config.min_feature_count
    names = dict(zip(strings.values(), strings))
    kept = tuple(map(names.__getitem__, found[keep][np.argsort(first[keep])].tolist()))
    if not kept:
        raise FeatureError("no features survived the frequency cutoff")
    # the features come from the template, each once, so need no check
    return _feature_index(kept, config, alphabet, order)
