"""Independent reference implementations used to check the fast paths.

Everything here enumerates explicitly: partition functions and best paths
by scoring every state sequence, carrier expectations by scanning label
sequences, index feature lists by counting every extracted feature string,
a training batch's compile position by position, CoNLL parses row by row
and renderings sentence by sentence, model files weight by weight or line
by line, feature strings position by position and window slot by window
slot, and IOB2 checks and the carrier transform label by label.
Deliberately slow and simple. The module also generates the random inputs
several test files share.
"""

from __future__ import annotations

import base64
import itertools
import random
import re
import struct
from collections import deque

import numpy as np
from hypothesis import strategies as st

from picrf import crf
from picrf.corpus import CorpusError, LabelError, Sentence, split_label
from picrf.crf import CompiledBatch, CompiledSentence, Lattice, encode_gold_states
from picrf.features import (
    AFFIX_LENGTHS,
    BIAS_FEATURE,
    BOS,
    EOS,
    WINDOW_OFFSETS,
    FeatureError,
    FeatureIndex,
    TemplateConfig,
    extract_features,
)
from picrf.induction import CARRIER_SUFFIX, LabelAlphabet


def all_paths(n_positions: int, n_states: int) -> np.ndarray:
    """Every state sequence as an (S**T, T) integer array."""
    paths = list(itertools.product(range(n_states), repeat=n_positions))
    return np.array(paths, dtype=np.int64).reshape(len(paths), n_positions)


def path_scores(lattice: Lattice, paths: np.ndarray) -> np.ndarray:
    """Log score of every path under the lattice potentials."""
    n_positions = lattice.n_positions
    scores = lattice.start[paths[:, 0]] + lattice.obs[0, paths[:, 0]]
    for t in range(1, n_positions):
        scores = scores + lattice.trans[paths[:, t - 1], paths[:, t]]
        scores = scores + lattice.obs[t, paths[:, t]]
    return scores


def brute_log_z(lattice: Lattice) -> float:
    paths = all_paths(lattice.n_positions, lattice.n_states)
    scores = path_scores(lattice, paths)
    finite = scores[np.isfinite(scores)]
    if finite.size == 0:
        return float("-inf")
    m = finite.max()
    return float(m + np.log(np.exp(finite - m).sum()))


def brute_viterbi(lattice: Lattice) -> tuple[list[int], float, bool]:
    """Best path, its score, and whether the maximum is unique (1e-9)."""
    paths = all_paths(lattice.n_positions, lattice.n_states)
    scores = path_scores(lattice, paths)
    best = int(np.argmax(scores))
    unique = int(np.sum(scores >= scores[best] - 1e-9)) == 1
    return list(paths[best]), float(scores[best]), unique


def counted_features(corpus: list[Sentence], config: TemplateConfig) -> tuple[str, ...]:
    """The feature list an index over the corpus keeps: every string
    extract_features emits, counted, in first-occurrence order, without
    those seen fewer than config.min_feature_count times."""
    counts: dict[str, int] = {}
    for sentence in corpus:
        for active in extract_features(sentence, config):
            for feature in active:
                counts[feature] = counts.get(feature, 0) + 1
    return tuple(f for f, c in counts.items() if c >= config.min_feature_count)


def normalized(text: str) -> str:
    """normalize_token by its definition: lowercase, then every character
    the regex \\d matches (a Unicode decimal digit) to '0'."""
    return re.sub(r"\d", "0", text.lower())


def extract_features_loop(sentence: Sentence, config: TemplateConfig) -> list[list[str]]:
    """extract_features position by position and slot by slot, with every
    string %-formatted and each token normalized by the regex."""
    if len(sentence) == 0:
        raise FeatureError("cannot extract features from an empty sentence")
    texts = sentence.tokens
    n = len(texts)
    norms = tuple(normalized(t) for t in texts)

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


def encode_positions_loop(index: FeatureIndex, position_features) -> list[np.ndarray]:
    """The per-position arrays of FeatureIndex.encode_positions, made one
    position at a time: the block starts of the position's features that
    the index knows, as an int64 array."""
    block = index.block_size
    ids = index.feature_ids
    return [
        np.asarray([ids[f] * block for f in active if f in ids], dtype=np.int64)
        for active in position_features
    ]


def pack_batch_loop(batch, index: FeatureIndex, space) -> CompiledBatch:
    """crf.pack_batch over sentences whose feature_starts are per-position
    arrays of block starts: their concatenation, divided by the block size,
    is the incidence matrix's column array."""
    lengths = np.array([len(cs.feature_starts) for cs in batch])
    widths, order = crf._packed_layout(lengths)
    positions = [starts for cs in batch for starts in cs.feature_starts]
    incidence = crf._incidence(
        np.concatenate(positions) // index.block_size,
        np.cumsum([len(p) for p in positions]),
        index,
    )[order]
    gold = np.concatenate([cs.gold for cs in batch])
    prev = np.roll(gold, 1)
    prev[np.cumsum(lengths) - lengths] = space.n_states
    slots = space.move_slot[prev, gold]
    packed = CompiledBatch(batch)
    packed.index, packed.space, packed.widths, packed.incidence = index, space, widths, incidence
    gold_mass = np.zeros((index.n_fine, gold.size))
    gold_mass[space.obs_state_of[gold[order]], np.arange(gold.size)] = 1.0
    packed.observed = np.concatenate(
        [
            crf._scatter_observations(incidence, gold_mass, index),
            np.bincount(slots, minlength=space.n_transition_params).astype(float),
        ]
    )
    return packed


def compile_corpus_loop(corpus, template: TemplateConfig, index: FeatureIndex, space) -> CompiledBatch:
    """training.compile_corpus sentence by sentence and position by
    position: labels repaired by validate_iob2_loop, features extracted by
    extract_features_loop and encoded by encode_positions_loop, and the
    batch packed by pack_batch_loop."""
    compiled = []
    for sentence in corpus:
        repaired = validate_iob2_loop(
            sentence.labels, mode="repair", entity_types=space.alphabet.entity_types
        )
        starts = encode_positions_loop(index, extract_features_loop(sentence, template))
        compiled.append(CompiledSentence(starts, encode_gold_states(repaired, space)))
    return pack_batch_loop(compiled, index, space)


def validate_iob2_loop(labels, mode="strict", entity_types=None) -> list[str]:
    """validate_iob2 with every label split and checked where it stands."""
    if mode not in ("strict", "repair"):
        raise ValueError("mode must be 'strict' or 'repair', got %r" % (mode,))
    known = set(entity_types) if entity_types is not None else None
    out: list[str] = []
    prev_type = None
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


def induce_loop(labels, alphabet: LabelAlphabet) -> list[str]:
    """induce with a memory cell, splitting every checked label again."""
    checked = validate_iob2_loop(labels, mode="strict", entity_types=alphabet.entity_types)
    memory = None
    out: list[str] = []
    for label in checked:
        tag, typ = split_label(label)
        if tag == "O":
            out.append(memory + CARRIER_SUFFIX if memory is not None else "O")
        else:
            memory = typ
            out.append(label)
    return out


# Labels for the IOB2 properties: mostly ones over the types A and B, some
# of a third type C, and now and then junk that split_label refuses.
label_lists = st.lists(
    st.one_of(
        st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B"]),
        st.sampled_from(["B-C", "I-C"]) | st.sampled_from(["X", "B-", "I-", "O-A", "b-A", "BxA", ""]),
    ),
    max_size=12,
)


def outcome(function, *args):
    """What a call gives: ("value", its result), or (the exception's type
    name, its message)."""
    try:
        return "value", function(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


# Whitespace that str.split() splits on but a file read does not end a
# line at.
_SPACES = "\t \x1c\x85\u2003"
_CELL = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace()),
    min_size=1,
    max_size=3,
)


@st.composite
def conll_texts(draw) -> tuple[str, list[list[str]]]:
    """CoNLL text and the cells of each of its rows: rows of 0-4 cells
    separated and surrounded by assorted whitespace, whitespace-only rows,
    and \\n or \\r\\n line ends, the last one possibly missing."""
    rows = draw(st.lists(st.lists(_CELL, max_size=4), max_size=10))
    lines = []
    for cells in rows:
        gap = draw(st.text(_SPACES, min_size=1, max_size=2))
        edge = draw(st.text(_SPACES, max_size=2))
        lines.append(edge + gap.join(cells) + edge + draw(st.sampled_from(["\n", "\r\n"])))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines), rows


def conll_reference(
    rows: list[list[str]], token_column: int, label_column: int | None
) -> tuple[list[tuple[tuple[str, ...], tuple[str, ...] | None]] | None, int | None]:
    """read_conll by its definition, on rows of cells: each sentence's
    texts and labels, or None and the line number of the first row that
    lacks the token or the label column or has them coincide."""
    sentences = []
    texts, labels = [], []
    for number, cells in enumerate(rows, start=1):
        if cells:
            n = len(cells)
            if not -n <= token_column < n:
                return None, number
            texts.append(cells[token_column])
            if label_column is not None:
                if not -n <= label_column < n or label_column % n == token_column % n:
                    return None, number
                labels.append(cells[label_column])
        if texts and (not cells or number == len(rows)):
            sentences.append((tuple(texts), tuple(labels) if label_column is not None else None))
            texts, labels = [], []
    return sentences, None


def write_conll_loop(sentences, predicted=None) -> str:
    """write_conll sentence by sentence: each sentence's columns zipped
    into its token lines, then its blank line."""
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
        columns = [sentence.tokens]
        if sentence.labels is not None:
            columns.append(sentence.labels)
        if pred is not None:
            columns.append(pred)
        lines.extend(map("\t".join, zip(*columns)))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


def random_lattice(
    n_positions: int, n_states: int, rng: np.random.Generator
) -> Lattice:
    return Lattice(
        obs=rng.normal(size=(n_positions, n_states)),
        trans=rng.normal(size=(n_states, n_states)),
        start=rng.normal(size=n_states),
    )


def random_iob2(rng: random.Random, types: list[str], length: int) -> list[str]:
    """A uniformly random valid IOB2 sequence over the given types."""
    labels: list[str] = []
    prev: str | None = None
    for _ in range(length):
        options = ["O"] + ["B-" + t for t in types]
        if prev is not None:
            options.append("I-" + prev)
        label = rng.choice(options)
        labels.append(label)
        prev = label[2:] if label != "O" else None
    return labels


def expected_induced(labels: list[str]) -> list[str]:
    """Carrier transform computed by rescanning the prefix at every position."""
    out: list[str] = []
    for i, label in enumerate(labels):
        if label != "O":
            out.append(label)
            continue
        memory = None
        for j in range(i - 1, -1, -1):
            if labels[j] != "O":
                memory = labels[j][2:]
                break
        out.append(memory + "[O]" if memory is not None else "O")
    return out


def random_word(rng: random.Random, alphabet: str = "abcdefgh0123XY-", lo: int = 1, hi: int = 7) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


def random_corpus(
    rng: random.Random, types: list[str], n_sentences: int, min_len: int = 1, max_len: int = 8
) -> list[Sentence]:
    sentences = []
    for _ in range(n_sentences):
        n = rng.randint(min_len, max_len)
        texts = [random_word(rng) for _ in range(n)]
        labels = random_iob2(rng, types, n)
        sentences.append(Sentence.from_strings(texts, labels))
    return sentences


def write_new(path, data: bytes) -> None:
    """Write data to path as a new file: unlink the path, then write it.

    Truncating and rewriting a file that was just written can wait for the
    earlier write to reach the disk: ext4 flushes a file that is truncated
    and rewritten (its auto_da_alloc heuristic), and on one disk that cost
    50 ms a rewrite, against 0.7 ms after an unlink. A test that writes one
    path once per example writes it through here.
    """
    path.unlink(missing_ok=True)
    path.write_bytes(data)


def _version(lines: list[str]) -> int:
    return int(lines[0].rsplit(" ", 1)[1])


def _n_weight_lines(n_weights: int, version: int) -> int:
    return -(-8 * n_weights // 57) if version == 2 else n_weights


def weight_block(lines: list[str]) -> tuple[int, np.ndarray]:
    """The index of the first weight line of a saved model and its weights,
    read line by line in the format of its first line: one "%.17g" number
    a line (format 1), a base64 block of 57 bytes a line (format 2), or
    the 16 hex digits of one little-endian float64 a line (format 3)."""
    version = _version(lines)
    i = next(k for k, line in enumerate(lines) if line.startswith("weights: "))
    block = lines[i + 1 : i + 1 + _n_weight_lines(int(lines[i].split()[1]), version)]
    if version == 1:
        return i + 1, np.array([float(line) for line in block])
    if version == 2:
        data = b"".join(base64.b64decode(line) for line in block)
    else:
        data = b"".join(bytes.fromhex(line) for line in block)
    return i + 1, np.frombuffer(data, "<f8")


def _rewritten(lines: list[str], version: int, write) -> list[str]:
    """A saved model's lines with the format line of version and the
    weight block replaced by the lines write(weights) returns."""
    first, weights = weight_block(lines)
    rest = lines[first + _n_weight_lines(weights.size, _version(lines)) :]
    return ["picrf model format %d" % version] + lines[1:first] + write(weights) + rest


def format_1_lines(lines: list[str]) -> list[str]:
    """A saved model's lines as format 1 wrote them: the weight block
    replaced by one "%.17g" line per weight."""
    return _rewritten(lines, 1, lambda weights: ["%.17g" % w for w in weights.tolist()])


def format_2_lines(lines: list[str]) -> list[str]:
    """A saved model's lines as format 2 wrote them: the weight block
    replaced by base64.encodebytes of the weights' little-endian float64
    bytes, 57 bytes a line."""

    def write(weights):
        return base64.encodebytes(weights.astype("<f8").tobytes()).decode("ascii").splitlines()

    return _rewritten(lines, 2, write)


def format_3_lines(lines: list[str]) -> list[str]:
    """A saved model's lines as format 3 writes them: one line per weight,
    the 16 lowercase hex digits of its little-endian float64 bytes."""
    return _rewritten(lines, 3, lambda weights: [struct.pack("<d", w).hex() for w in weights])


def deque_direction(g: np.ndarray, pairs: deque) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over pairs, a deque of (s, y,
    1 / s·y) oldest first, with a fresh vector for every product; -g
    without pairs."""
    d = -g
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d -= alphas[-1] * y
    if pairs:
        _, y, rho = pairs[-1]
        d *= 1.0 / (rho * (y @ y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d += (alpha - rho * (y @ d)) * s
    return d
