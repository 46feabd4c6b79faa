"""Independent reference implementations used to check the fast paths.

Everything here enumerates explicitly: partition functions and best paths
by scoring every state sequence, carrier expectations by scanning label
sequences, index feature lists by counting every extracted feature string,
CoNLL parses row by row. Deliberately slow and simple. The module also
generates the random inputs several test files share.
"""

from __future__ import annotations

import itertools
import random
import re

import numpy as np
from hypothesis import strategies as st

from picrf.corpus import Sentence
from picrf.crf import Lattice
from picrf.features import TemplateConfig, extract_features


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
