"""Linear-chain CRF core: state spaces, lattices, dynamic programs and the
batch log-likelihood objective.

All three model orders run the same first-order machinery over different
state sets: base labels, the expanded carrier alphabet, or label pairs for
the second-order chain. One move block (A, B, C) describes every order's
moves and their transition slots (StateSpace states the contract); the
slot table move_slot, the observation state of each lattice state and the
size of the transition region all derive from it. A lattice holds
additive log-potentials

    psi(t, s_prev, s) = transition(s_prev, s) + obs(t, s)

with a distinguished start context at t = 0; structurally forbidden moves
carry -inf and drop out of every sum. Weight vectors are laid out as the
feature index's observation slots followed by one contiguous transition
region.

Observation scores are one sparse product: a token x feature incidence
matrix X (one row per token, a 1 for each of its indexed features) times
the observation weights viewed as one (n_features, block) row per feature,
giving every token's scores at once; the gradient's observation region is
the transpose, X^T (observed - expected), as in Wapiti (Lavergne, Cappe &
Yvon 2010). The forward/backward pass is the scaled recursion of Rabiner
(1989) in the probability domain: it exponentiates obs minus its max at
each position and trans minus its finite max, divides the forward vector
at each position by its sum and the backward vector by the same sum, and
recovers log Z as the sum of the logs of those normalizers plus the
shifts. Range contract: the result is exact to rounding, or the pass
raises CrfError naming the finite spread of the potentials. Every lattice
whose potentials are finite and spread less than a few hundred nats is
exact without further checks (trained models span far less); wider or
partly forbidden lattices are checked entry by entry after the pass (see
_check_range).

Training runs one pass over the whole batch. compile_sentence encodes a
sentence's feature strings in one pass of lookups, to one array of
feature ids and the string count of each position (EncodedPositions);
pack_batch joins the ids of the whole batch and builds its incidence
matrix in one call, so no array is made per token. It lays the batch out
once (CompiledBatch), longest sentence first and position-major
(_packed_layout): row block t holds position t of the widths[t] sentences
longer than t, a prefix of those of block t - 1. _forward_backward keeps
every table state-major, (S, N) over the N token rows: a step is one
(S, S) @ (S, widths[t]) product, its edge counts one alphas @ tails^T
product, and a position's shift and normalizer reduce over the leading
state axis. forward_backward is its B = 1 view, the single-lattice API
the brute-force oracles use.

Decoding uses the same layout: build_lattice gathers a batch's (N, K)
feature id matrix in _packed_layout's row order into one (N, S) lattice,
and viterbi runs one max-product step per position over the prefix rows,
state-major like training. A step is a max over the leading axis of delta
(A, B, 1) + moves (A, B, C), the potentials of the move block, so the
pairs' step evaluates only the n^3 allowed moves of the (n^2 + n)^2. No
backpointers are kept: each sentence backtracks from its best final state
with an argmax over the A predecessors of its own state.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .corpus import split_label
from .crf_types import ModelOrder
from .features import EncodedPositions, FeatureIndex, known_ids
from .induction import LabelAlphabet, induce

NEG_INF = float("-inf")

# Sentinel first component of the boundary pair states in the second-order
# chain. Not a valid IOB2 label, so it cannot collide with real labels.
START_SYMBOL = "<start>"

# Most entries of the (A, B, C, cols) move scores of one chunk of a Viterbi
# step: 512 KB, so that they stay in a core's L2 cache while the max over
# A reads them (the pair block of 5 types has 1,452 entries per column).
_VITERBI_BUDGET = 1 << 16

# The scaled recursion trusts a forward or backward entry, before
# normalization, down to _FLOOR: a product term that underflows below the
# float64 normal range (2.2e-308) then changes it by under 1e-18.
_FLOOR = 2.0**-960
# Potential spread, in nats, below which no entry can fall under _FLOOR
# (e**-660 > 2**-960); see _check_range.
_SAFE_SPAN = 660.0


class CrfError(Exception):
    """Invalid lattice, state set, or weight layout."""


class _Scratch(threading.local):
    """One thread's scratch arena: four flat buffers that
    log_likelihood_and_gradient and _forward_backward write instead of
    fresh arrays. Buffers 0-2 are each viewed as one (S, N) table of a
    call: region 0 holds obs, then pot, then tails; region 1 the alphas;
    region 2 the betas, then the node marginals. Buffer 3 is viewed as the
    (N, block) observation sums, then the scratch of _scatter_observations.
    Each buffer grows to the largest table a call has asked of it and
    serves every later call of any batch and order, whose writes then land
    on pages already mapped. A freshly allocated table of this size is
    mapped anew on each call whenever the allocator has handed the last
    one back to the kernel, which depends on what else the process has
    allocated and freed; those page faults cost up to a third of the call.
    No public function returns a view of them."""

    def __init__(self):
        self.buffers: tuple[np.ndarray, ...] = ()

    def regions(self, n_states: int, n_rows: int, block: int) -> tuple[np.ndarray, ...]:
        shapes = ((n_states, n_rows),) * 3 + ((n_rows, block),)
        sizes = [a * b for a, b in shapes]
        held = [b.size for b in self.buffers] or [0] * len(shapes)
        if any(h < s for h, s in zip(held, sizes)):
            # free the old buffers before allocating the new ones; no
            # buffer shrinks, so calls of different shapes do not take
            # turns reallocating them
            self.buffers = ()
            self.buffers = tuple(np.empty(max(h, s)) for h, s in zip(held, sizes))
        return tuple(b[: a * c].reshape(a, c) for b, (a, c) in zip(self.buffers, shapes))


_SCRATCH = _Scratch()


def release_scratch() -> None:
    """Free the calling thread's scratch arena; the next objective call
    allocates it again. Training calls this when it returns, so that a
    long-lived process keeps no kernel scratch after training."""
    _SCRATCH.buffers = ()


class InfeasibleLatticeError(CrfError):
    """Every path through the lattice is blocked by -inf potentials."""


@dataclass(frozen=True)
class StateSpace:
    """Lattice states and weight-slot maps of one model order.

    move_block (A, B, C) is the one description of the moves: state a * B
    + b moves to state b * C + c through transition slot C + (a * B + b) *
    C + c, the start's C slots 0 .. C - 1 lead into the last C states, and
    no other move is allowed. It is (S, 1, S) for first and pre-induced;
    for the second-order pairs over n labels it is (n + 1, n, n): state a *
    n + b is the pair (previous label a, current label b), with a = n the
    sentence start, and no move leads into a start pair. State s is scored
    by the feature slots of observation state s % C (for pairs, the current
    label). output_labels is what each state emits into a decoded sequence.
    """

    order: ModelOrder
    alphabet: LabelAlphabet
    state_names: tuple[str, ...]
    output_labels: tuple[str, ...]
    move_block: tuple[int, int, int]

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def n_transition_params(self) -> int:
        """Size of the transition region: one slot per allowed move."""
        n_from, n_ctx, n_to = self.move_block
        return n_to + n_from * n_ctx * n_to

    @property
    def effective_states(self) -> int:
        """State count for model descriptions; excludes the start pairs."""
        return self.move_block[1] * self.move_block[2]

    @property
    def observes_itself(self) -> bool:
        """Whether each state is its own observation state (not so for pairs)."""
        return self.move_block[2] == self.n_states

    @cached_property
    def obs_state_of(self) -> np.ndarray:
        """(S,) observation state of each lattice state."""
        return np.arange(self.n_states) % self.move_block[2]

    @cached_property
    def move_slot(self) -> np.ndarray:
        """(S + 1, S) transition slot of each move r -> s of the move block,
        -1 where forbidden; row S is the sentence start."""
        _, n_ctx, n_to = self.move_block
        n, into = self.n_states, np.arange(n_to)
        slots = np.full((n + 1, n), -1, dtype=np.int64)
        # source a * B + b moves to b * C + c through slot C + source * C + c
        source = np.arange(n)[:, None]
        slots[source, source % n_ctx * n_to + into] = n_to + source * n_to + into
        slots[-1, n - n_to :] = into
        return slots

    @cached_property
    def constraint_masks(self) -> np.ndarray:
        """preinduced_constraint_masks of the alphabet, built once per state space."""
        return preinduced_constraint_masks(self.alphabet)


def state_space(order: ModelOrder, alphabet: LabelAlphabet) -> StateSpace:
    """Construct the state space for a model order over an alphabet."""
    order = ModelOrder(order)
    if order != ModelOrder.SECOND:
        labels = (
            alphabet.base_labels if order == ModelOrder.FIRST else alphabet.expanded_labels
        )
        n = len(labels)
        return StateSpace(order, alphabet, tuple(labels), tuple(labels), (n, 1, n))
    labels = alphabet.base_labels
    n = len(labels)
    contexts = (*labels, START_SYMBOL)
    pairs = [(a, b) for a in contexts for b in labels]
    return StateSpace(
        order,
        alphabet,
        tuple("%s|%s" % pair for pair in pairs),
        tuple(b for _, b in pairs),
        (n + 1, n, n),
    )


def total_parameters(index: FeatureIndex, space: StateSpace) -> int:
    return index.n_parameters + space.n_transition_params


def _label_kind(label: str, alphabet: LabelAlphabet) -> tuple[str, str | None]:
    carrier = alphabet.carrier_type(label)
    if carrier is not None:
        return ("C", carrier)
    return split_label(label)


def preinduced_constraint_masks(alphabet: LabelAlphabet) -> np.ndarray:
    """Decode-time validity mask (S + 1, S) of the moves of the expanded
    alphabet, laid out as StateSpace.move_slot (row S is the start).

    Forbids moves no induced training sequence can contain: a carrier
    before any entity or after one of a different type, plain O after the
    first entity, and any I-t that does not continue a same-type entity.
    Every path through the constrained lattice reverts to valid IOB2.
    """
    kinds = [_label_kind(label, alphabet) for label in alphabet.expanded_labels]
    allowed = np.zeros((len(kinds) + 1, len(kinds)), dtype=bool)
    # the start allows exactly the moves plain O allows
    for i, (src_tag, src_type) in enumerate(kinds + [("O", None)]):
        for j, (dst_tag, dst_type) in enumerate(kinds):
            if dst_tag == "B":
                ok = True
            elif dst_tag == "I":
                ok = src_tag in ("B", "I") and src_type == dst_type
            elif dst_tag == "O":
                ok = src_tag == "O"
            else:  # carrier: only after a same-type entity or itself
                ok = src_tag in ("B", "I", "C") and src_type == dst_type
            allowed[i, j] = ok
    return allowed


@dataclass
class Lattice:
    """Log-potentials of one sentence, obs (T, S), or of a packed batch,
    obs (N, S) over its N token rows in the row order of _packed_layout;
    trans (S, S) and start (S,) are shared by the batch. psi and
    n_positions read obs as one sentence. move_block is the (A, B, C)
    shape of StateSpace.move_block when only the moves it names can be
    allowed, and None when any move can be (the block (S, 1, S)). Shapes
    that do not fit together raise CrfError when the lattice is built."""

    obs: np.ndarray
    trans: np.ndarray
    start: np.ndarray
    move_block: tuple[int, int, int] | None = None

    def __post_init__(self):
        shapes = np.shape(self.obs), np.shape(self.trans), np.shape(self.start)
        n_pos, n = shapes[0] if len(shapes[0]) == 2 else (0, 0)
        n_from, n_ctx, n_to = self.move_block or (n, 1, n)
        fits = min(n_from, n_ctx, n_to) >= 1 and n_from * n_ctx == n and n_ctx * n_to <= n
        if n_pos < 1 or shapes[1:] != ((n, n), (n,)) or not fits:
            raise CrfError(
                "lattice shapes obs %s, trans %s, start %s and move block %s do not "
                "fit: need obs (T, S) with T >= 1 and S >= 1, trans (S, S), start (S,) "
                "and a move block (A, B, C) with A * B = S and B * C <= S"
                % (*shapes, self.move_block)
            )

    @property
    def n_positions(self) -> int:
        return self.obs.shape[0]

    @property
    def n_states(self) -> int:
        return self.obs.shape[-1]

    def psi(self, t: int, s_prev: int | None, s: int) -> float:
        """Additive log-potential; s_prev is ignored at the start position."""
        context = self.start[s] if t == 0 else self.trans[s_prev, s]
        return float(context + self.obs[t, s])

    def moves(self) -> np.ndarray:
        """The (A, B, C) block of trans that Viterbi runs on (_block)."""
        return _block(self.trans, self.move_block or (self.n_states, 1, self.n_states))


def _block(table: np.ndarray, move_block: tuple[int, int, int]) -> np.ndarray:
    """The (A, B, C) moves of an (S, S) table over the states of a move
    block: entry [a, b, c] is table[a * B + b, b * C + c]."""
    n_from, n_ctx, n_to = move_block
    sources = np.arange(n_from * n_ctx).reshape(n_from, n_ctx, 1)
    return table[sources, np.arange(n_ctx * n_to).reshape(1, n_ctx, n_to)]


def _move_potentials(weights: np.ndarray, index: FeatureIndex, space: StateSpace) -> np.ndarray:
    """(S + 1, S) log-potentials of the moves of space.move_slot, -inf where
    forbidden: the transition (S, S) rows, then the start row."""
    allowed = space.move_slot >= 0
    moves = np.full(space.move_slot.shape, NEG_INF)
    moves[allowed] = weights[index.n_parameters :][space.move_slot[allowed]]
    return moves


def _incidence(cols: np.ndarray, ends: np.ndarray, index: FeatureIndex) -> sparse.csr_matrix:
    """Token x feature incidence matrix: row i holds a 1 for each feature
    id of cols[ends[i - 1]:ends[i]] (cols[:ends[0]] for row 0). A row with
    no feature is all zero."""
    # int32 is the index type scipy would convert to anyway; passing it
    # saves that copy
    indptr = np.zeros(len(ends) + 1, dtype=np.int32)
    indptr[1:] = ends
    return sparse.csr_matrix(
        (np.ones(len(cols)), cols.astype(np.int32, copy=False), indptr),
        shape=(len(ends), len(index.features)),
        copy=False,
    )


def _observation_sums(
    incidence: sparse.csr_matrix, weights: np.ndarray, index: FeatureIndex, out=None
) -> np.ndarray:
    """(N, block) sums of the weight blocks of the features of the N token
    rows of an incidence matrix, the coarse slot added into the outside
    class: column j < n_fine is the score of observation state j. Written
    to out, a C-contiguous (N, block) array, when it is given."""
    n_rows, n_features = incidence.shape
    if out is None:
        sums = np.zeros((n_rows, index.block_size))
    else:
        sums = out
        sums.fill(0.0)
    # the kernel scipy runs for incidence @ table, which returns a fresh
    # array: it adds into sums in place
    table = weights[: index.n_parameters].reshape(n_features, index.block_size)
    _sparsetools.csr_matvecs(
        n_rows, n_features, index.block_size,
        incidence.indptr, incidence.indices, incidence.data, table.ravel(), sums.ravel(),
    )
    for j in index.outside_obs_ids if index.has_coarse else ():
        sums[:, j] += sums[:, index.n_fine]
    return sums


def _scatter_observations(
    incidence: sparse.csr_matrix, mass: np.ndarray, index: FeatureIndex, out=None
) -> np.ndarray:
    """Observation-slot totals of a mass (n_fine, N) over observation states
    at the N token rows, with out (N, block) as scratch: the transpose of
    _observation_sums. Returns the observation region (n_parameters,)."""
    out = np.empty((mass.shape[1], index.block_size)) if out is None else out
    np.copyto(out[:, : index.n_fine], mass.T)
    if index.has_coarse:
        # the rows added in place, in the order np.sum(axis=0) adds them
        first, *rest = index.outside_obs_ids
        coarse = out[:, index.n_fine]
        np.copyto(coarse, mass[first])
        for j in rest:
            coarse += mass[j]
    return (incidence.T @ out).ravel()


def build_lattice(
    feature_ids: np.ndarray,
    lengths: Sequence[int],
    weights: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
    constrained: bool = False,
) -> tuple[Lattice, np.ndarray, np.ndarray]:
    """Assemble the packed log-potential lattice of a batch of sentences.

    feature_ids (N, K) holds the index feature ids of the batch's N tokens,
    sentence after sentence with the given lengths, and -1 where a column
    has none, as features.feature_id_matrix gives them (features unknown to
    the index are left out there and score zero). Returns the Lattice whose
    obs (N, S) holds the tokens in the packed layout's row order, with the
    layout's block widths and row order (see _packed_layout), so that
    viterbi(lattice, widths) decodes every sentence. constrained=True
    applies the pre-induced decode-time validity mask to the moves.
    """
    weights = np.asarray(weights, dtype=np.float64)
    expected = total_parameters(index, space)
    if weights.shape != (expected,):
        raise CrfError(
            "weight vector has %s entries, expected %d" % (weights.shape, expected)
        )
    if constrained and space.order != ModelOrder.PRE_INDUCED:
        raise CrfError("decode-time constraints only apply to the pre-induced model")
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths < 1):
        raise CrfError("lattice needs at least one position")
    if feature_ids.ndim != 2 or feature_ids.shape[0] != lengths.sum():
        raise CrfError(
            "feature id rows %s do not match %d tokens" % (feature_ids.shape, lengths.sum())
        )

    widths, order = _packed_layout(lengths)
    rows = feature_ids[order]
    present = rows >= 0
    incidence = _incidence(rows[present], present.sum(axis=1).cumsum(), index)
    # a slice where each state is its own observation state: no extra copy
    columns = slice(index.n_fine) if space.observes_itself else space.obs_state_of
    obs = _observation_sums(incidence, weights, index)[:, columns]
    moves = _move_potentials(weights, index, space)
    if constrained:
        moves = np.where(space.constraint_masks, moves, NEG_INF)
    lattice = Lattice(obs, moves[:-1], moves[-1], space.move_block)
    return lattice, widths, order


@dataclass
class ForwardBackwardResult:
    """The log partition and the marginals of one lattice.

    node_marginals[t, s] is p(y_t = s | x); edge_marginals[t, sp, s] is
    p(y_t = sp, y_{t+1} = s | x), so its first axis has length T - 1.
    log_z_backward recomputes the partition from the beta side and must
    agree with log_z to tight tolerance.
    """

    log_z: float
    log_z_backward: float
    node_marginals: np.ndarray
    edge_marginals: np.ndarray


def _check_scores(total: float) -> None:
    """Reject a sum of log Z, potential maxima or best-path scores that is
    NaN or +inf (broken potentials) or -inf (a lattice with no feasible
    path)."""
    if math.isnan(total) or total == math.inf:
        raise CrfError("lattice has NaN or +inf potentials")
    if total == NEG_INF:
        raise InfeasibleLatticeError("every path through the lattice is blocked")


class _Scaled(NamedTuple):
    """Scaled forward/backward tables of a packed batch, one column per
    token row. alphas[:, r] sums to 1, scale[r] is the sum it was divided
    by, and betas are divided by the same normalizers, so alphas * betas
    are the node marginals. tails[:, r] is pot[:, r] * betas[:, r] /
    scale[r]; edges sums alphas[:, p, None] * tails[None, :, r] over each
    row p and its next row r. log_scale[r] is log scale[r] plus the shifts
    taken out at r."""

    alphas: np.ndarray
    betas: np.ndarray
    tails: np.ndarray
    trans_pot: np.ndarray
    edges: np.ndarray
    scale: np.ndarray
    log_scale: np.ndarray


def _steps(widths: np.ndarray) -> list[tuple[slice, slice]]:
    """The (previous, current) column slices of each step t >= 1 of a packed
    layout: the first widths[t] rows of block t - 1, and block t."""
    starts = (np.cumsum(widths) - widths).tolist()
    pairs = zip(starts, starts[1:], widths[1:].tolist())
    return [(slice(a, a + w), slice(b, b + w)) for a, b, w in pairs]


def _forward_backward(
    obs: np.ndarray, widths: np.ndarray, start: np.ndarray, trans: np.ndarray
) -> _Scaled:
    """Scaled forward/backward over a packed batch of lattices sharing the
    start (S,) and transition (S, S) potentials.

    obs (S, N) holds the observation log-potentials of the batch's N tokens
    in the row blocks of _packed_layout with the given widths; it is
    overwritten when the potentials need no range check. The alphas and
    betas are regions 1 and 2 of the thread's _Scratch arena, so the result
    lives until the thread's next call. Raises CrfError on
    NaN or +inf potentials, InfeasibleLatticeError when a lattice has no
    path, and CrfError when the result would not be exact (_check_range).
    """
    n_batch, steps = widths[0], _steps(widths)
    obs_shift = obs.max(axis=0)
    start_shift = float(start.max())
    trans_shift = float(trans.max()) if steps else 0.0
    _check_scores(float(obs_shift.sum()) + start_shift + trans_shift)
    # spreads in nats; below _SAFE_SPAN the pass is exact without a check
    d_obs = float((obs_shift - obs.min(axis=0)).max())
    d_start = start_shift - float(start.min())
    d_trans = trans_shift - float(trans.min()) if steps else 0.0
    checked = max(d_obs + max(d_start, d_trans), 2.0 * d_trans) > _SAFE_SPAN
    pot = np.subtract(obs, obs_shift, out=None if checked else obs)
    np.exp(pot, out=pot)
    trans_pot = np.exp(trans - trans_shift) if steps else np.zeros_like(trans)

    _, alphas, betas, _ = _SCRATCH.regions(*pot.shape, 0)
    scale = np.empty(pot.shape[1])
    np.multiply(pot[:, :n_batch], np.exp(start - start_shift)[:, None], out=alphas[:, :n_batch])
    # a normalizer of 0 (no path, or underflow) and backward entries that
    # overflow are classified by _check_range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for prev, rows in [(None, slice(0, n_batch))] + steps:
            if prev is not None:
                np.matmul(trans_pot.T, alphas[:, prev], out=alphas[:, rows])
                alphas[:, rows] *= pot[:, rows]
            np.sum(alphas[:, rows], axis=0, out=scale[rows])
            alphas[:, rows] /= scale[rows]
        tails = np.divide(pot, scale, out=pot)
        # a sentence's last position has nothing after it: beta 1
        betas.fill(1.0)
        edges = np.zeros_like(trans_pot)
        for prev, rows in reversed(steps):
            tails[:, rows] *= betas[:, rows]
            np.matmul(trans_pot, tails[:, rows], out=betas[:, prev])
            edges += alphas[:, prev] @ tails[:, rows].T
        log_scale = np.log(scale) + obs_shift
    log_scale[:n_batch] += start_shift
    log_scale[n_batch:] += trans_shift
    run = _Scaled(alphas, betas, tails, trans_pot, edges, scale, log_scale)
    if checked:
        _check_range(run, obs, widths, start, trans)
    return run


def _check_range(
    run: _Scaled, obs: np.ndarray, widths: np.ndarray, start: np.ndarray, trans: np.ndarray
) -> None:
    """Raise unless the scaled pass over a packed batch is exact to rounding.

    The pass is exact when every forward and backward entry, before
    normalization, is either zero by the lattice's structure (a -inf
    potential) or at least _FLOOR, because a product term lost to
    underflow then changes the entry it feeds by under 1e-18 of it. When
    every potential is finite and the finite spreads (max minus min, in
    nats) of trans (d_trans), start (d_start) and any one position of obs
    (d_obs) satisfy max(d_obs + max(d_start, d_trans), 2 d_trans) <=
    _SAFE_SPAN, every entry is at least exp(-_SAFE_SPAN) > _FLOOR and
    _forward_backward skips this check of the tables.
    """
    alphas, betas, scale = run.alphas, run.betas, run.scale
    n_batch, steps = widths[0], _steps(widths)
    # row n_batch + i follows row previous[i] in its sentence
    previous = np.arange(n_batch, scale.size) - np.repeat(widths[:-1], widths[1:])
    obs_ok, start_ok, trans_ok = obs > NEG_INF, start > NEG_INF, trans > NEG_INF
    with np.errstate(invalid="ignore", over="ignore"):
        low_alpha = np.min(alphas, axis=0, where=alphas > 0, initial=np.inf)
        low_beta = np.min(betas, axis=0, where=betas > 0, initial=np.inf)
        in_range = bool(
            np.isfinite(run.log_scale).all()
            and (low_alpha * scale).min() >= _FLOOR
            and (low_beta[previous] * scale[n_batch:]).min(initial=np.inf) >= _FLOOR
            and betas.max() < np.inf
        )
    # zeros every pass must produce: no way in from the start or the
    # previous position, or a -inf observation; no way out before the end
    structural = np.count_nonzero(~(obs_ok[:, :n_batch] & start_ok[:, None]))
    structural += np.count_nonzero(~(obs_ok[:, n_batch:] & trans_ok.any(axis=0)[:, None]))
    dead_ends = previous.size * int((~trans_ok.any(axis=1)).sum())
    if (
        in_range
        and np.count_nonzero(alphas == 0) == structural
        and np.count_nonzero(betas == 0) == dead_ends
    ):
        return

    reach = obs_ok.copy()
    reach[:, :n_batch] &= start_ok[:, None]
    for prev, rows in steps:
        reach[:, rows] &= trans_ok.T @ reach[:, prev]
    # a sentence with no path has a position that nothing reaches
    if not reach.any(axis=0).all():
        raise InfeasibleLatticeError("every path through the lattice is blocked")
    onward = np.ones(obs.shape, dtype=bool)
    for prev, rows in reversed(steps):
        onward[:, prev] = trans_ok @ (obs_ok[:, rows] & onward[:, rows])
    if in_range and np.array_equal(alphas > 0, reach) and np.array_equal(betas > 0, onward):
        return
    raise CrfError(
        "lattice potentials out of range for exact scaled inference: a forward "
        "or backward entry left [2**-960, inf) (finite spread: trans %.4g nats, "
        "start %.4g, widest position of obs %.4g; always exact while "
        "max(obs + max(start, trans), 2 * trans) <= %g)"
        % (
            _finite_spread(trans) if steps else 0.0,
            _finite_spread(start),
            float(_finite_spread(obs, axis=0).max()),
            _SAFE_SPAN,
        )
    )


def _finite_spread(x: np.ndarray, axis=None):
    """Max minus min over the finite entries of x (0 where there are none)."""
    finite = np.isfinite(x)
    top = np.max(x, axis=axis, where=finite, initial=NEG_INF)
    bottom = np.min(x, axis=axis, where=finite, initial=np.inf)
    return np.where(finite.any(axis=axis), top - bottom, 0.0)


def forward_backward(lattice: Lattice) -> ForwardBackwardResult:
    """Exact marginal inference over one lattice (the kernel with B = 1)."""
    widths = np.ones(lattice.n_positions, dtype=np.int64)
    run = _forward_backward(lattice.obs.T.copy(), widths, lattice.start, lattice.trans)
    alphas, betas, log_scale = run.alphas.T, run.betas.T, run.log_scale
    log_z = float(log_scale.sum())
    node = alphas * betas
    edge = alphas[:-1, :, None] * run.trans_pot * run.tails.T[1:, None, :]
    log_z_backward = log_z + math.log(node[0].sum())
    return ForwardBackwardResult(log_z, log_z_backward, node, edge)


def _viterbi(
    obs: np.ndarray, widths: np.ndarray, start: np.ndarray, moves: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best paths and their log scores of a packed batch of lattices sharing
    start (S,) potentials and the move block moves (A, B, C) of
    Lattice.moves: state a * B + b moves to state b * C + c at potential
    moves[a, b, c], and no other move is allowed. Ties break toward the
    lower state index.

    obs (N, S) holds the observation log-potentials of the batch's N tokens
    in the row blocks of _packed_layout with the given widths. Returns the
    best state at every row (N,) and every sentence's best score (B,) in
    rank order, the order of block 0.

    The forward pass keeps one (S, N) table delta, the best score of a
    path into each state at each row, and stores no backpointers: a step
    maxes the (A, B, C, cols) block delta[a * B + b] + moves[a, b, c] over
    its leading axis, in chunks of cols columns within _VITERBI_BUDGET
    entries. Each sentence then backtracks from its best final state,
    taking at each step back the argmax over the A predecessors of its own
    state only: a step back reads those predecessors' scores as a view of
    delta, delta[:, prev] for the (S, 1, S) block of first and pre-induced
    models, and gathers them with one [:, ctx, columns] index of delta
    viewed as (A, B, N) for the pair states of second order. A NaN or
    +inf anywhere reaches some sentence's best score through the max,
    which raises before the backtrack.
    """
    n_from, n_ctx, n_to = moves.shape
    n_into, n_batch = n_ctx * n_to, widths[0]
    steps = _steps(widths)
    delta = obs.T.copy()
    cols = max(1, _VITERBI_BUDGET // moves.size)
    block = np.empty(moves.shape + (min(cols, n_batch),))
    top = np.empty(block.shape[1:])
    # -inf + inf makes the NaN that _check_scores reports
    with np.errstate(invalid="ignore"):
        delta[:, :n_batch] += start[:, None]
        for prev, rows in steps:
            for lo in range(0, prev.stop - prev.start, cols):
                p, r = prev.start + lo, rows.start + lo
                w = min(cols, prev.stop - p)
                part = np.add(
                    delta[:, p : p + w].reshape(n_from, n_ctx, 1, w),
                    moves[..., None],
                    out=block[..., :w],
                )
                np.max(part, axis=0, out=top[..., :w])
                into = delta[:n_into, r : r + w].reshape(n_ctx, n_to, w)
                into += top[..., :w]
            if n_into < delta.shape[0]:
                # no move leads into the states from n_into on: -inf, or
                # NaN where their observation potential is NaN or +inf
                delta[n_into:, rows] += NEG_INF

    # sentence k (in rank order) ends in block lengths[k] - 1
    lengths = np.searchsorted(-widths, -np.arange(n_batch), side="left")
    last = (np.cumsum(widths) - widths)[lengths - 1] + np.arange(n_batch)
    states = np.empty(obs.shape[0], dtype=np.intp)
    states[last] = delta[:, last].argmax(axis=0)
    # argmax picks NaN over any number, so a NaN anywhere reaches best
    best = delta[states[last], last]
    _check_scores(float(best.sum()))
    # state s < n_into steps back to a * n_ctx + s // n_to, scored
    # delta[a * n_ctx + s // n_to, row] + arrivals[s, a], as (rows, A)
    arrivals = moves.reshape(n_from, n_into).T.copy()
    by_context = delta.reshape(n_from, n_ctx, -1)
    for prev, rows in reversed(steps):
        into = states[rows]
        scores = arrivals[into]
        if n_ctx == 1:
            scores += delta[:, prev].T
            states[prev] = scores.argmax(axis=1)
        else:
            ctx = into // n_to
            scores += by_context[:, ctx, np.arange(prev.start, prev.stop)].T
            states[prev] = scores.argmax(axis=1) * n_ctx + ctx
    return states, best


def _checked_widths(widths, n_rows: int) -> np.ndarray:
    """widths as int64 when they lay out n_rows packed rows: a 1-D integer
    array of entries of at least 1 that never increase and sum to n_rows.
    Otherwise CrfError names them and the row count."""
    array = np.asarray(widths)
    if array.ndim == 1 and array.size and array.dtype.kind in "iu":
        array = array.astype(np.int64, copy=False)
        if array[-1] >= 1 and np.all(array[:-1] >= array[1:]) and array.sum() == n_rows:
            return array
    raise CrfError(
        "block widths %s do not lay out %d lattice rows: need a non-increasing 1-D "
        "integer array of entries of at least 1 summing to the row count"
        % (array.tolist(), n_rows)
    )


def viterbi(
    lattice: Lattice, widths: np.ndarray | None = None
) -> tuple[list[int], float] | tuple[np.ndarray, np.ndarray]:
    """Highest-scoring state sequences and their log scores.

    Without widths the lattice is one sentence, obs (T, S), and its path
    comes back as a list with its score (the packed kernel with widths =
    1). With the block widths of a packed lattice, as build_lattice gives
    them, the best state at each of its N rows comes back as an (N,) array
    in the lattice's row order, and the sentences' scores as a (B,) array
    in rank order. Ties break toward the lower state index at every argmax,
    making the decode deterministic. Raises CrfError on NaN or +inf
    potentials, on widths that do not lay out the lattice's rows (a 1-D
    integer array of entries of at least 1 that never increase and sum to
    its row count), and InfeasibleLatticeError when a sentence has no path.
    """
    if widths is not None:
        widths = _checked_widths(widths, lattice.n_positions)
        return _viterbi(lattice.obs, widths, lattice.start, lattice.moves())
    widths = np.ones(lattice.n_positions, dtype=np.int64)
    states, scores = _viterbi(lattice.obs, widths, lattice.start, lattice.moves())
    return states.tolist(), float(scores[0])


class CompiledSentence(NamedTuple):
    """A sentence's encoded features plus its gold lattice-state path.

    feature_starts is FeatureIndex.encode_positions of its feature
    strings: the feature id of every string in one int64 array, the
    string count of each position, and, as a sequence, one int64 array of
    feature block starts per position.
    """

    feature_starts: EncodedPositions
    gold: np.ndarray | None


def encode_gold_states(
    labels: Sequence[str], space: StateSpace
) -> np.ndarray:
    """Map a base IOB2 label sequence to gold lattice-state indices.

    For the pre-induced order the sequence is run through the carrier
    transform first; for the second order it becomes the pair-state path
    prev * n + cur of state_space, with prev = n (the start) at t = 0.
    """
    alphabet = space.alphabet
    try:
        if space.order == ModelOrder.PRE_INDUCED:
            ids = [alphabet.expanded_index[l] for l in induce(labels, alphabet)]
        else:
            ids = [alphabet.base_index[l] for l in labels]
    except KeyError as exc:
        raise CrfError("gold label outside the state set: %s" % (exc,)) from None
    states = np.array(ids, dtype=np.int64)
    if space.order == ModelOrder.SECOND:
        n = len(alphabet.base_labels)
        states += np.concatenate(([n], states[:-1])) * n
    return states


def compile_sentence(
    position_features: Sequence[Sequence[str]],
    gold_labels: Sequence[str] | None,
    index: FeatureIndex,
    space: StateSpace,
) -> CompiledSentence:
    """Encode one sentence's features (and gold path, if given) for training:
    feature_starts is index.encode_positions(position_features)."""
    if gold_labels is not None and len(gold_labels) != len(position_features):
        raise CrfError("gold label count does not match position count")
    starts = index.encode_positions(position_features)
    gold = encode_gold_states(gold_labels, space) if gold_labels is not None else None
    return CompiledSentence(starts, gold)


class CompiledBatch(tuple):
    """A training batch packed once for one feature index and state space.

    A tuple of its CompiledSentence items in their original order, plus
    widths, the block widths of the batch's packed layout (see
    _packed_layout); incidence, the token x feature incidence matrix of the
    whole batch with its rows in that layout; and observed, the batch's
    feature counts at the gold paths over the whole weight vector. None
    depends on the weights, so the objective reuses them on every call.
    """

    index: FeatureIndex
    space: StateSpace
    widths: np.ndarray
    incidence: sparse.csr_matrix
    observed: np.ndarray


def pack_batch(
    batch: Sequence[CompiledSentence], index: FeatureIndex, space: StateSpace
) -> CompiledBatch:
    """Lay out, index and count a training batch for log_likelihood_and_gradient.

    The known feature ids of the whole batch are joined into one array
    (known_ids), and one _incidence call makes the incidence matrix of
    them, so no array is made per token.
    """
    if not batch:
        raise CrfError("batch must contain at least one sentence")
    encoded = [cs.feature_starts for cs in batch]
    lengths = np.fromiter(map(len, encoded), np.int64, len(batch))
    if any(cs.gold is None or len(cs.gold) != n for cs, n in zip(batch, lengths.tolist())):
        raise CrfError("every training sentence needs a gold path of its length")
    if not lengths.all():
        raise CrfError("training sentences must be non-empty")
    widths, order = _packed_layout(lengths)
    ids, ends = known_ids(encoded)
    incidence = _incidence(ids, ends, index)[order]
    # the transition slot of every gold move: a sentence's first position
    # moves from the start row
    gold = np.concatenate([cs.gold for cs in batch])
    prev = np.roll(gold, 1)
    prev[np.cumsum(lengths) - lengths] = space.n_states
    slots = space.move_slot[prev, gold]
    if np.any(slots < 0):
        raise CrfError("gold path uses a structurally forbidden transition")
    packed = CompiledBatch(batch)
    packed.index, packed.space, packed.widths, packed.incidence = index, space, widths, incidence
    gold_mass = np.zeros((index.n_fine, gold.size))
    gold_mass[space.obs_state_of[gold[order]], np.arange(gold.size)] = 1.0
    packed.observed = np.concatenate(
        [
            _scatter_observations(incidence, gold_mass, index),
            np.bincount(slots, minlength=space.n_transition_params).astype(float),
        ]
    )
    return packed


def _packed_layout(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block widths and row order of the packed layout of sentences of the
    given lengths: ranked longest first (a stable sort), row block t holds
    position t of the widths[t] sentences longer than t, in rank order.
    order[r] is the index, in sentence-after-sentence order, of the token
    at row r."""
    ranked = np.argsort(-lengths, kind="stable")
    widths = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
    step = np.repeat(np.arange(widths.size), widths)
    rank = np.arange(step.size) - np.repeat(np.cumsum(widths) - widths, widths)
    return widths, (np.cumsum(lengths) - lengths)[ranked[rank]] + step


def log_likelihood_and_gradient(
    batch: Sequence[CompiledSentence],
    weights: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
    l2_variance: float = float("inf"),
) -> tuple[float, np.ndarray]:
    """Penalized conditional log-likelihood of a batch and its gradient.

    Returns the maximized objective sum(score(gold) - log Z) - |w|^2 / (2
    * l2_variance) and its gradient (observed minus expected feature
    counts, minus w / l2_variance). l2_variance=inf drops the penalty.
    A CompiledBatch packed for this index and space is used as it is; any
    other sequence of compiled sentences is packed first.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n_params = total_parameters(index, space)
    if weights.shape != (n_params,):
        raise CrfError(
            "weight vector has %s entries, expected %d" % (weights.shape, n_params)
        )
    if not (l2_variance > 0):
        raise CrfError("l2_variance must be positive (use inf to disable)")
    if not (isinstance(batch, CompiledBatch) and batch.index is index and batch.space is space):
        batch = pack_batch(batch, index, space)

    moves = _move_potentials(weights, index, space)
    n_rows, n_to = batch.incidence.shape[0], space.move_block[2]
    obs, _, _, sums = _SCRATCH.regions(space.n_states, n_rows, index.block_size)
    _observation_sums(batch.incidence, weights, index, out=sums)
    # obs_state_of is s % n_to, so each run of n_to rows of obs is the
    # transpose of the first n_to columns; copyto writes it stride by
    # stride, where np.take would first copy sums.T whole
    np.copyto(obs.reshape(-1, n_to, n_rows), sums[:, :n_to].T)
    run = _forward_backward(obs, batch.widths, moves[-1], moves[:-1])
    node = np.multiply(run.alphas, run.betas, out=run.betas)
    start_mass = node[-n_to:, : batch.widths[0]].sum(axis=1)
    if not space.observes_itself:
        # state s is scored by observation state s % n_to
        node = node.reshape(-1, n_to, node.shape[1]).sum(axis=0)
    expected_obs = _scatter_observations(batch.incidence, node, index, out=sums)
    expected_trans = np.concatenate(
        [start_mass, _block(run.trans_pot * run.edges, space.move_block).ravel()]
    )

    objective = float(weights @ batch.observed) - float(run.log_scale.sum())
    # observed - expected - weights / l2_variance, region by region, with
    # no whole-vector temporary
    n_obs, grad = index.n_parameters, np.empty(n_params)
    np.subtract(batch.observed[:n_obs], expected_obs, out=grad[:n_obs])
    np.subtract(batch.observed[n_obs:], expected_trans, out=grad[n_obs:])
    if np.isfinite(l2_variance):
        objective -= float(weights @ weights) / (2.0 * l2_variance)
        # the expected counts are spent: they take weights / l2_variance
        grad[:n_obs] -= np.divide(weights[:n_obs], l2_variance, out=expected_obs)
        grad[n_obs:] -= np.divide(weights[n_obs:], l2_variance, out=expected_trans)
    return objective, grad
