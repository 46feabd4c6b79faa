"""Linear-chain CRF core: state spaces, lattices, dynamic programs and the
batch log-likelihood objective.

All three model orders run the same first-order machinery over different
state sets: base labels, the expanded carrier alphabet, or label pairs for
the second-order chain. A lattice holds additive log-potentials

    psi(t, s_prev, s) = transition(s_prev, s) + obs(t, s)

with a distinguished start context at t = 0; structurally forbidden moves
carry -inf and drop out of every sum. Weight vectors are laid out as the
feature index's observation slots followed by one contiguous transition
region.

One batched kernel does the inference. Observation scores are one sparse
product: a token x feature incidence matrix X (one row per token, a 1 for
each of its indexed features) times the observation weights viewed as one
(n_features, block) row per feature, giving every token's scores at once;
the gradient's observation region is the transpose, X^T (observed -
expected), as in Wapiti (Lavergne, Cappe & Yvon 2010). The rows of B
same-length sentences, stored time-major, reshape to a (T, B, S) block, and
one forward/backward pass over that block gives log Z and the node and
edge marginals. The pass is the
scaled recursion of Rabiner (1989) in the probability domain: it
exponentiates obs minus its max at each position and trans minus its
finite max, divides the forward vector at each position by its sum and
the backward vector by the same sum, and recovers log Z as the sum of the
logs of those normalizers plus the shifts. Range contract: the result is
exact to rounding, or the pass raises CrfError naming the finite spread
of the potentials. Every lattice whose potentials are finite and spread
less than a few hundred nats is exact without further checks (trained
models span far less); wider or partly forbidden lattices are checked
entry by entry after the pass (see _check_range).

The training objective packs its batch once into one incidence matrix
whose rows come in length-grouped chunks (CompiledBatch), gathers and
scatters through it once per call and runs the kernel chunk by chunk;
forward_backward is its B = 1 view, the single-lattice API the
brute-force oracles use. Decoding runs the same batched path: build_lattice
lays a batch of sentences out in the same length-grouped chunks, gathers
their observation scores through one incidence matrix (in slices of at
most _GATHER_TOKENS token rows) and builds the transition tables once, and
viterbi runs over each chunk's (T, B, S) block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .corpus import split_label
from .crf_types import ModelOrder
from .features import FeatureIndex
from .induction import LabelAlphabet, induce

NEG_INF = float("-inf")

# Sentinel first component of the boundary pair states in the second-order
# chain. Not a valid IOB2 label, so it cannot collide with real labels.
START_SYMBOL = "<start>"

# Target entry count of one chunk's (T, B, S) forward/backward tables;
# keeps temporaries small while amortizing interpreter overhead over wide
# numpy ops.
_CHUNK_BUDGET = 4_000_000
_MAX_CHUNK = 256
# Most token rows one observation gather of a decode covers; bounds the
# incidence matrix and the (N, block) product built at once for any input.
_GATHER_TOKENS = 8192
# Most entries of the (B, S, S) step scores one Viterbi pass holds; keeps
# them in cache (the second-order chain has S in the hundreds).
_VITERBI_BUDGET = 1 << 18

# The scaled recursion trusts a forward or backward entry, before
# normalization, down to _FLOOR: a product term that underflows below the
# float64 normal range (2.2e-308) then changes it by under 1e-18.
_FLOOR = 2.0**-960
# Potential spread, in nats, below which no entry can fall under _FLOOR
# (e**-660 > 2**-960); see _check_range.
_SAFE_SPAN = 660.0


class CrfError(Exception):
    """Invalid lattice, state set, or weight layout."""


class InfeasibleLatticeError(CrfError):
    """Every path through the lattice is blocked by -inf potentials."""


class PairExpansion(NamedTuple):
    """Second-order chain realized as a first-order chain over label pairs.

    states lists the L*L ordinary pairs (a, b) followed by L start pairs
    (START_SYMBOL, b) that exist only at position 0. consistency[i, j] is
    True when state j can follow state i, which requires the second
    component of i to equal the first component of j; among ordinary pairs
    that leaves L**3 allowed transitions, and each start pair fans out to L.
    """

    labels: tuple[str, ...]
    pair_states: tuple[tuple[str, str], ...]
    start_pairs: tuple[tuple[str, str], ...]
    states: tuple[tuple[str, str], ...]
    consistency: np.ndarray

    def project(self, path: Sequence[int]) -> list[str]:
        """Map a pair-state path to its label sequence (second components)."""
        return [self.states[s][1] for s in path]


def expand_second_order(labels: Sequence[str]) -> PairExpansion:
    """Build the pair-state machinery for a base label inventory."""
    labs = tuple(labels)
    if not labs:
        raise CrfError("cannot expand an empty label set")
    n = len(labs)
    pairs = tuple((a, b) for a in labs for b in labs)
    starts = tuple((START_SYMBOL, b) for b in labs)
    states = pairs + starts
    total = len(states)
    consistency = np.zeros((total, total), dtype=bool)
    for i, (_, b) in enumerate(states):
        bi = labs.index(b)
        # allowed successors of (a, b) are exactly the pairs (b, c)
        consistency[i, bi * n : (bi + 1) * n] = True
    return PairExpansion(labs, pairs, starts, states, consistency)


@dataclass(frozen=True)
class StateSpace:
    """Lattice state inventory and weight-slot maps for one model order.

    obs_state_of maps each lattice state to the observation-conditioned
    state whose feature slots score it (for pairs, the current label).
    start_slot and trans_slot give offsets into the transition region of
    the weight vector, with -1 marking structurally forbidden moves.
    output_labels is what each state emits into a decoded sequence.
    """

    order: ModelOrder
    alphabet: LabelAlphabet
    state_names: tuple[str, ...]
    output_labels: tuple[str, ...]
    obs_state_of: np.ndarray
    start_slot: np.ndarray
    trans_slot: np.ndarray
    n_transition_params: int
    n_pair_states: int

    @property
    def n_states(self) -> int:
        return len(self.state_names)

    @property
    def effective_states(self) -> int:
        """State count for model descriptions; excludes boundary pair copies."""
        return self.n_pair_states if self.order == ModelOrder.SECOND else self.n_states

    @cached_property
    def constraint_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """preinduced_constraint_masks of the alphabet, built once per state space."""
        return preinduced_constraint_masks(self.alphabet)


def state_space(order: ModelOrder, alphabet: LabelAlphabet) -> StateSpace:
    """Construct the state space for a model order over an alphabet."""
    order = ModelOrder(order)
    if order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED):
        labels = (
            alphabet.base_labels if order == ModelOrder.FIRST else alphabet.expanded_labels
        )
        n = len(labels)
        return StateSpace(
            order=order,
            alphabet=alphabet,
            state_names=tuple(labels),
            output_labels=tuple(labels),
            obs_state_of=np.arange(n, dtype=np.int64),
            start_slot=np.arange(n, dtype=np.int64),
            trans_slot=n + np.arange(n * n, dtype=np.int64).reshape(n, n),
            n_transition_params=n + n * n,
            n_pair_states=0,
        )

    expansion = expand_second_order(alphabet.base_labels)
    labs = expansion.labels
    n = len(labs)
    total = n * n + n
    obs_state_of = np.empty(total, dtype=np.int64)
    obs_state_of[: n * n] = np.tile(np.arange(n), n)
    obs_state_of[n * n :] = np.arange(n)

    start_slot = np.full(total, -1, dtype=np.int64)
    start_slot[n * n :] = np.arange(n)

    # triple (prev, cur, nxt) owns slot n + ((prev * n + cur) * n + nxt),
    # with prev = n standing for the sentence start
    trans_slot = np.full((total, total), -1, dtype=np.int64)
    for a in range(n + 1):
        src_base = a * n if a < n else n * n
        for b in range(n):
            src = src_base + b
            trans_slot[src, b * n : b * n + n] = n + (a * n + b) * n + np.arange(n)

    return StateSpace(
        order=order,
        alphabet=alphabet,
        state_names=tuple("%s|%s" % pair for pair in expansion.states),
        output_labels=tuple(pair[1] for pair in expansion.states),
        obs_state_of=obs_state_of,
        start_slot=start_slot,
        trans_slot=trans_slot,
        n_transition_params=n + (n + 1) * n * n,
        n_pair_states=n * n,
    )


def total_parameters(index: FeatureIndex, space: StateSpace) -> int:
    return index.n_parameters + space.n_transition_params


def _label_kind(label: str, alphabet: LabelAlphabet) -> tuple[str, str | None]:
    carrier = alphabet.carrier_type(label)
    if carrier is not None:
        return ("C", carrier)
    return split_label(label)


def preinduced_constraint_masks(alphabet: LabelAlphabet) -> tuple[np.ndarray, np.ndarray]:
    """Decode-time validity masks for the expanded alphabet.

    Forbids moves no induced training sequence can contain: a carrier
    before any entity or after one of a different type, plain O after the
    first entity, and any I-t that does not continue a same-type entity.
    Every path through the constrained lattice reverts to valid IOB2.
    """
    labels = alphabet.expanded_labels
    kinds = [_label_kind(label, alphabet) for label in labels]
    n = len(labels)
    start_allowed = np.array([tag in ("B", "O") for tag, _ in kinds], dtype=bool)
    trans_allowed = np.zeros((n, n), dtype=bool)
    for i, (src_tag, src_type) in enumerate(kinds):
        for j, (dst_tag, dst_type) in enumerate(kinds):
            if dst_tag == "B":
                ok = True
            elif dst_tag == "I":
                ok = src_tag in ("B", "I") and src_type == dst_type
            elif dst_tag == "O":
                ok = src_tag == "O"
            else:  # carrier: only after a same-type entity or itself
                ok = src_tag in ("B", "I", "C") and src_type == dst_type
            trans_allowed[i, j] = ok
    return start_allowed, trans_allowed


@dataclass
class Lattice:
    """Log-potentials of one sentence, obs (T, S), or of a block of B
    same-length sentences, obs (T, B, S); trans (S, S) and start (S,) are
    shared by the block."""

    obs: np.ndarray
    trans: np.ndarray
    start: np.ndarray

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


def _transition_tables(
    weights: np.ndarray, index: FeatureIndex, space: StateSpace
) -> tuple[np.ndarray, np.ndarray]:
    """Start (S,) and transition (S, S) log-potentials, -inf where forbidden."""
    w_trans = weights[index.n_parameters :]
    trans = np.full(space.trans_slot.shape, NEG_INF)
    allowed = space.trans_slot >= 0
    trans[allowed] = w_trans[space.trans_slot[allowed]]
    start = np.full(space.n_states, NEG_INF)
    s_ok = space.start_slot >= 0
    start[s_ok] = w_trans[space.start_slot[s_ok]]
    return start, trans


def _transition_counts(
    start_mass: np.ndarray, edge_mass: np.ndarray, space: StateSpace
) -> np.ndarray:
    """Scatter start (S,) and transition (S, S) masses onto the transition
    region of the weight vector: the transpose of _transition_tables."""
    counts = np.zeros(space.n_transition_params)
    s_ok = space.start_slot >= 0
    counts[space.start_slot[s_ok]] = start_mass[s_ok]
    allowed = space.trans_slot >= 0
    counts[space.trans_slot[allowed]] = edge_mass[allowed]
    return counts


def _incidence(rows: Sequence[np.ndarray], index: FeatureIndex) -> sparse.csr_matrix:
    """Token x feature incidence matrix: row i counts the indexed features
    whose block starts rows[i] holds. A row with no feature is all zero."""
    # int32 is the index type scipy would convert to anyway; passing it
    # saves that copy
    indptr = np.array([0, *accumulate(map(len, rows))], dtype=np.int32)
    cols = (np.concatenate(rows) // index.block_size).astype(np.int32)
    return sparse.csr_matrix(
        (np.ones(cols.size), cols, indptr), shape=(len(rows), len(index.features)), copy=False
    )


def _gather_observations(
    incidence: sparse.csr_matrix, weights: np.ndarray, index: FeatureIndex, space: StateSpace
) -> np.ndarray:
    """Lattice observation scores (N, S) of the N token rows of an incidence
    matrix: its product with the weights viewed as one block per feature."""
    sums = incidence @ weights[: index.n_parameters].reshape(-1, index.block_size)
    if index.has_coarse:
        sums[:, list(index.outside_obs_ids)] += sums[:, index.n_fine, None]
    return sums[:, space.obs_state_of]


def _scatter_observations(
    incidence: sparse.csr_matrix, mass: np.ndarray, index: FeatureIndex
) -> np.ndarray:
    """Observation-slot totals of a mass (N, n_fine) over observation states
    at the N token rows: the transpose of _gather_observations. Returns the
    observation region (n_parameters,)."""
    if index.has_coarse:
        coarse = mass[:, list(index.outside_obs_ids)].sum(axis=1)
        mass = np.concatenate([mass, coarse[:, None]], axis=1)
    return (incidence.T @ mass).ravel()


def build_lattice(
    sentences: Sequence[Sequence[np.ndarray]],
    weights: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
    constrained: bool = False,
) -> list[tuple[list[int], Lattice]]:
    """Assemble the log-potential lattices of a batch of sentences.

    sentences holds each sentence's feature block starts per position, as
    FeatureIndex.encode_positions gives them (features unknown to the index
    are dropped there and score zero). The sentences are laid out in the
    length-grouped chunks of _chunk_jobs; each chunk comes back as the
    indices of its B sentences in the batch and one Lattice whose obs is
    their (T, B, S) block. The blocks share one start and one transition
    table; constrained=True applies the pre-induced decode-time validity
    masks to them.
    """
    weights = np.asarray(weights, dtype=np.float64)
    expected = total_parameters(index, space)
    if weights.shape != (expected,):
        raise CrfError(
            "weight vector has %s entries, expected %d" % (weights.shape, expected)
        )
    if constrained and space.order != ModelOrder.PRE_INDUCED:
        raise CrfError("decode-time constraints only apply to the pre-induced model")
    if any(len(positions) == 0 for positions in sentences):
        raise CrfError("lattice needs at least one position")

    n_states = space.n_states
    jobs, rows = _chunk_layout(sentences, n_states)
    obs = np.empty((len(rows), n_states))
    for lo in range(0, len(rows), _GATHER_TOKENS):
        part = slice(lo, lo + _GATHER_TOKENS)
        obs[part] = _gather_observations(_incidence(rows[part], index), weights, index, space)
    start, trans = _transition_tables(weights, index, space)
    if constrained:
        start_ok, trans_ok = space.constraint_masks
        start = np.where(start_ok, start, NEG_INF)
        trans = np.where(trans_ok, trans, NEG_INF)
    blocks = []
    row = 0
    for job in jobs:
        n_pos, size = len(sentences[job[0]]), len(job)
        block = obs[row : row + n_pos * size].reshape(n_pos, size, n_states)
        row += n_pos * size
        blocks.append((job, Lattice(obs=block, trans=trans, start=start)))
    return blocks


@dataclass
class ForwardBackwardResult:
    """Log-domain DP tables and the marginals derived from them.

    node_marginals[t, s] is p(y_t = s | x); edge_marginals[t, sp, s] is
    p(y_t = sp, y_{t+1} = s | x), so its first axis has length T - 1.
    log_z_backward recomputes the partition from the beta side and must
    agree with log_z to tight tolerance.
    """

    log_alpha: np.ndarray
    log_beta: np.ndarray
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
    """Scaled forward/backward tables of a (T, B, S) block of lattices.

    alphas[t] sums to 1 over states, scale[t] (T, B, 1) is the sum it was
    divided by, and betas are divided by the same normalizers, so
    alphas * betas are the node marginals. tails[t] is pot[t + 1] *
    betas[t + 1] / scale[t + 1], so the edge marginals at t are
    alphas[t][:, :, None] * trans_pot * tails[t][:, None, :]. log_scale[t]
    is log scale[t] plus the shifts taken out at t; over t it sums to log Z.
    """

    alphas: np.ndarray
    betas: np.ndarray
    tails: np.ndarray
    trans_pot: np.ndarray
    scale: np.ndarray
    log_scale: np.ndarray

    @property
    def log_z(self) -> np.ndarray:
        return self.log_scale.sum(axis=0)


def _forward_backward(obs: np.ndarray, start: np.ndarray, trans: np.ndarray) -> _Scaled:
    """Scaled forward/backward over a (T, B, S) block of same-length lattices.

    The lattices share the start (S,) and transition (S, S) potentials.
    Raises CrfError on NaN or +inf potentials, InfeasibleLatticeError when
    a lattice has no path, and CrfError when the result would not be exact
    (see _check_range).
    """
    n_pos = obs.shape[0]
    obs_shift = obs.max(axis=2, keepdims=True)
    start_shift = float(start.max())
    trans_shift = float(trans.max()) if n_pos > 1 else 0.0
    _check_scores(float(obs_shift.sum()) + start_shift + trans_shift)
    pot = np.exp(obs - obs_shift)
    trans_pot = np.exp(trans - trans_shift) if n_pos > 1 else np.zeros_like(trans)

    alphas = np.empty_like(pot)
    scale = np.empty(pot.shape[:2] + (1,))
    np.multiply(pot[0], np.exp(start - start_shift), out=alphas[0])
    # a normalizer of 0 (no path, or underflow) and backward entries that
    # overflow are classified by _check_range
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for t in range(n_pos):
            if t:
                np.einsum("bs,st->bt", alphas[t - 1], trans_pot, out=alphas[t])
                alphas[t] *= pot[t]
            np.sum(alphas[t], axis=1, keepdims=True, out=scale[t])
            alphas[t] /= scale[t]
        tails = pot[1:] / scale[1:]
        betas = np.empty_like(pot)
        betas[-1] = 1.0
        for t in range(n_pos - 2, -1, -1):
            tails[t] *= betas[t + 1]
            np.einsum("st,bt->bs", trans_pot, tails[t], out=betas[t])
        log_scale = np.log(scale[..., 0]) + obs_shift[..., 0]
    log_scale[0] += start_shift
    log_scale[1:] += trans_shift
    run = _Scaled(alphas, betas, tails, trans_pot, scale, log_scale)
    _check_range(run, obs, obs_shift, start, start_shift, trans, trans_shift)
    return run


def _check_range(
    run: _Scaled,
    obs: np.ndarray,
    obs_shift: np.ndarray,
    start: np.ndarray,
    start_shift: float,
    trans: np.ndarray,
    trans_shift: float,
) -> None:
    """Raise unless the scaled pass is exact to rounding.

    The pass is exact when every forward and backward entry, before
    normalization, is either zero by the lattice's structure (a -inf
    potential) or at least _FLOOR, because a product term lost to
    underflow then changes the entry it feeds by under 1e-18 of it. When
    every potential is finite and the finite spreads (max minus min, in
    nats) of trans (d_trans), start (d_start) and any one position of obs
    (d_obs) satisfy max(d_obs + max(d_start, d_trans), 2 d_trans) <=
    _SAFE_SPAN, every entry is at least exp(-_SAFE_SPAN) > _FLOOR and
    nothing needs checking. Otherwise the tables are checked directly.
    """
    n_pos = obs.shape[0]
    d_obs = float((obs_shift[..., 0] - obs.min(axis=2)).max())
    d_start = start_shift - float(start.min())
    d_trans = trans_shift - float(trans.min()) if n_pos > 1 else 0.0
    if max(d_obs + max(d_start, d_trans), 2.0 * d_trans) <= _SAFE_SPAN:
        return

    alphas, betas, scale = run.alphas, run.betas, run.scale
    obs_ok, start_ok, trans_ok = obs > NEG_INF, start > NEG_INF, trans > NEG_INF
    with np.errstate(invalid="ignore", over="ignore"):
        low_alpha = np.min(alphas, axis=2, where=alphas > 0, initial=np.inf, keepdims=True)
        low_beta = np.min(betas, axis=2, where=betas > 0, initial=np.inf, keepdims=True)
        in_range = bool(
            np.isfinite(run.log_z).all()
            and (low_alpha * scale).min() >= _FLOOR
            and (low_beta[:-1] * scale[1:]).min(initial=np.inf) >= _FLOOR
            and betas.max() < np.inf
        )
    # zeros every pass must produce: no way in from the start or the
    # previous position, or a -inf observation; no way out before the end
    enter = np.empty((n_pos, 1, start.size), dtype=bool)
    enter[0] = start_ok
    enter[1:] = trans_ok.any(axis=0)
    dead_ends = (n_pos - 1) * obs.shape[1] * int((~trans_ok.any(axis=1)).sum())
    if (
        in_range
        and np.count_nonzero(alphas == 0) == np.count_nonzero(~(obs_ok & enter))
        and np.count_nonzero(betas == 0) == dead_ends
    ):
        return

    reach = np.empty(obs.shape, dtype=bool)
    reach[0] = obs_ok[0] & start_ok
    for t in range(1, n_pos):
        reach[t] = obs_ok[t] & (reach[t - 1] @ trans_ok)
    if not reach[-1].any(axis=1).all():
        raise InfeasibleLatticeError("every path through the lattice is blocked")
    onward = np.ones(obs.shape, dtype=bool)
    for t in range(n_pos - 2, -1, -1):
        onward[t] = (obs_ok[t + 1] & onward[t + 1]) @ trans_ok.T
    if in_range and np.array_equal(alphas > 0, reach) and np.array_equal(betas > 0, onward):
        return
    raise CrfError(
        "lattice potentials out of range for exact scaled inference: a forward "
        "or backward entry left [2**-960, inf) (finite spread: trans %.4g nats, "
        "start %.4g, widest position of obs %.4g; always exact while "
        "max(obs + max(start, trans), 2 * trans) <= %g)"
        % (
            _finite_spread(trans) if n_pos > 1 else 0.0,
            _finite_spread(start),
            float(_finite_spread(obs, axis=2).max()),
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
    run = _forward_backward(lattice.obs[:, None], lattice.start, lattice.trans)
    alphas, betas, log_scale = run.alphas[:, 0], run.betas[:, 0], run.log_scale[:, 0]
    log_z = float(log_scale.sum())
    # alpha_t carries the normalizers up to t, beta_t (same normalizers)
    # the ones after t
    prefix = np.cumsum(log_scale)[:, None]
    with np.errstate(divide="ignore"):
        log_alpha = np.log(alphas) + prefix
        log_beta = np.log(betas) + (log_z - prefix)
    node = alphas * betas
    edge = alphas[:-1, :, None] * run.trans_pot * run.tails[:, 0, None, :]
    log_z_backward = log_z + math.log(node[0].sum())
    return ForwardBackwardResult(log_alpha, log_beta, log_z, log_z_backward, node, edge)


def _viterbi(
    obs: np.ndarray, start: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best paths (B, T) and their log scores (B,) of a (T, B, S) block of
    same-length lattices sharing start (S,) and transition (S, S)
    potentials. Ties break toward the lower state index.

    The block runs in slices of sentences whose (B, S, S) step scores stay
    within _VITERBI_BUDGET entries.
    """
    n_pos, n_batch, n_states = obs.shape
    paths = np.empty((n_pos, n_batch), dtype=np.int64)
    best = np.empty(n_batch)
    step = max(1, _VITERBI_BUDGET // (n_states * n_states))
    # scores[b, s, r] = delta[b, r] + trans[r, s]: previous states r last,
    # so that argmax and the gather read contiguous rows
    into = trans.T
    for lo in range(0, n_batch, step):
        part = slice(lo, lo + step)
        sentences = np.arange(min(step, n_batch - lo))
        backpointers = np.empty((n_pos, sentences.size, n_states), dtype=np.int64)
        scores = np.empty((sentences.size, n_states, n_states))
        delta = start + obs[0, part]
        for t in range(1, n_pos):
            np.add(delta[:, None, :], into, out=scores)
            backpointers[t] = scores.argmax(axis=2)
            delta = np.take_along_axis(scores, backpointers[t][..., None], axis=2)[..., 0]
            delta += obs[t, part]
        # argmax picks NaN over any number, so a NaN anywhere reaches best
        paths[-1, part] = delta.argmax(axis=1)
        best[part] = delta[sentences, paths[-1, part]]
        for t in range(n_pos - 1, 0, -1):
            paths[t - 1, part] = backpointers[t, sentences, paths[t, part]]
    _check_scores(float(best.sum()))
    return paths.T, best


def viterbi(lattice: Lattice) -> tuple[list[int], float] | tuple[np.ndarray, np.ndarray]:
    """Highest-scoring state sequences and their log scores.

    A one-sentence lattice (obs (T, S)) gives its path as a list and its
    score; a (T, B, S) block gives a (B, T) array of paths and a (B,) array
    of scores. Ties break toward the lower state index at every argmax,
    making the decode deterministic. Raises CrfError on NaN or +inf
    potentials and InfeasibleLatticeError when a sentence has no path.
    """
    if lattice.obs.ndim == 3:
        return _viterbi(lattice.obs, lattice.start, lattice.trans)
    paths, scores = _viterbi(lattice.obs[:, None], lattice.start, lattice.trans)
    return paths[0].tolist(), float(scores[0])


class CompiledSentence(NamedTuple):
    """Feature block starts per position plus the gold lattice-state path."""

    feature_starts: tuple[np.ndarray, ...]
    gold: np.ndarray | None


def encode_gold_states(
    labels: Sequence[str], space: StateSpace
) -> np.ndarray:
    """Map a base IOB2 label sequence to gold lattice-state indices.

    For the pre-induced order the sequence is run through the carrier
    transform first; for the second order it becomes the pair-state path
    whose first state is the boundary pair (START_SYMBOL, y_0).
    """
    alphabet = space.alphabet
    try:
        if space.order == ModelOrder.FIRST:
            return np.array([alphabet.base_index[l] for l in labels], dtype=np.int64)
        if space.order == ModelOrder.PRE_INDUCED:
            induced = induce(labels, alphabet)
            return np.array([alphabet.expanded_index[l] for l in induced], dtype=np.int64)
    except KeyError as exc:
        raise CrfError("gold label outside the state set: %s" % (exc,)) from None

    base = alphabet.base_index
    n = len(alphabet.base_labels)
    try:
        ids = [base[l] for l in labels]
    except KeyError as exc:
        raise CrfError("gold label outside the state set: %s" % (exc,)) from None
    states = np.empty(len(ids), dtype=np.int64)
    for t, cur in enumerate(ids):
        states[t] = n * n + cur if t == 0 else ids[t - 1] * n + cur
    return states


def compile_sentence(
    position_features: Sequence[Sequence[str]],
    gold_labels: Sequence[str] | None,
    index: FeatureIndex,
    space: StateSpace,
) -> CompiledSentence:
    """Encode one sentence's features (and gold path, if given) for training."""
    if gold_labels is not None and len(gold_labels) != len(position_features):
        raise CrfError("gold label count does not match position count")
    starts = tuple(index.encode_positions(position_features))
    gold = encode_gold_states(gold_labels, space) if gold_labels is not None else None
    return CompiledSentence(starts, gold)


class CompiledBatch(tuple):
    """A training batch packed once for one feature index and state space.

    A tuple of its CompiledSentence items in their original order, plus
    incidence, the token x feature incidence matrix of the whole batch;
    chunks, the (T, B) shape of each length-grouped chunk of _chunk_jobs,
    whose T * B token rows follow the previous chunk's in incidence,
    time-major (row t * B + b is position t of the chunk's sentence b); and
    observed, the batch's feature counts at the gold paths over the whole
    weight vector. None depends on the weights, so the objective reuses
    them on every call.
    """

    index: FeatureIndex
    space: StateSpace
    incidence: sparse.csr_matrix
    chunks: tuple[tuple[int, int], ...]
    observed: np.ndarray


def pack_batch(
    batch: Sequence[CompiledSentence], index: FeatureIndex, space: StateSpace
) -> CompiledBatch:
    """Group, index and count a training batch for log_likelihood_and_gradient."""
    if not batch:
        raise CrfError("batch must contain at least one sentence")
    if any(cs.gold is None for cs in batch):
        raise CrfError("every training sentence needs a gold path")
    if any(len(cs.feature_starts) == 0 for cs in batch):
        raise CrfError("training sentences must be non-empty")
    n_states = space.n_states
    start_mass = np.zeros(n_states)
    edge_mass = np.zeros((n_states, n_states))
    golds = []
    chunks = []
    jobs, rows = _chunk_layout([cs.feature_starts for cs in batch], n_states)
    for job in jobs:
        gold = np.stack([batch[i].gold for i in job], axis=1)
        golds.append(gold.ravel())
        start_mass += np.bincount(gold[0], minlength=n_states)
        edge_mass += np.bincount(
            (gold[:-1] * n_states + gold[1:]).ravel(), minlength=n_states * n_states
        ).reshape(n_states, n_states)
        chunks.append(gold.shape)
    if np.any(start_mass[space.start_slot < 0]) or np.any(edge_mass[space.trans_slot < 0]):
        raise CrfError("gold path uses a structurally forbidden transition")
    packed = CompiledBatch(batch)
    packed.index, packed.space, packed.chunks = index, space, tuple(chunks)
    packed.incidence = _incidence(rows, index)
    gold_mass = np.eye(index.n_fine)[space.obs_state_of[np.concatenate(golds)]]
    packed.observed = np.concatenate(
        [
            _scatter_observations(packed.incidence, gold_mass, index),
            _transition_counts(start_mass, edge_mass, space),
        ]
    )
    return packed


def _chunk_jobs(lengths: Sequence[int], n_states: int) -> list[list[int]]:
    """Group sentences, given by their lengths, by length, then split groups
    into chunks whose (T, B, S) forward/backward tables stay within
    _CHUNK_BUDGET entries. Returns each chunk's sentence indices.

    Chunk boundaries depend only on the batch contents, so the reduction
    order (and therefore every floating-point result) is reproducible.
    """
    groups: dict[int, list[int]] = {}
    for i, n_pos in enumerate(lengths):
        groups.setdefault(n_pos, []).append(i)
    jobs: list[list[int]] = []
    for n_pos in sorted(groups):
        members = groups[n_pos]
        size = max(1, min(_MAX_CHUNK, _CHUNK_BUDGET // (n_pos * n_states)))
        for i in range(0, len(members), size):
            jobs.append(members[i : i + size])
    return jobs


def _chunk_layout(
    sentences: Sequence[Sequence[np.ndarray]], n_states: int
) -> tuple[list[list[int]], list[np.ndarray]]:
    """The chunks of _chunk_jobs over sentences' feature block starts, and
    their token rows: chunk after chunk, time-major inside each (row t * B
    + b of a chunk is position t of its sentence b)."""
    jobs = _chunk_jobs([len(positions) for positions in sentences], n_states)
    rows = [
        sentences[i][t] for job in jobs for t in range(len(sentences[job[0]])) for i in job
    ]
    return jobs, rows


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

    start, trans = _transition_tables(weights, index, space)
    projection = None
    if not np.array_equal(space.obs_state_of, np.arange(index.n_fine)):
        projection = np.eye(index.n_fine)[space.obs_state_of]
    n_states = space.n_states
    obs = _gather_observations(batch.incidence, weights, index, space)
    mass = np.empty((obs.shape[0], index.n_fine))
    log_z = 0.0
    start_mass = np.zeros(n_states)
    edge_mass = np.zeros((n_states, n_states))
    row = 0
    for n_pos, size in batch.chunks:
        rows = slice(row, row + n_pos * size)
        row = rows.stop
        run = _forward_backward(obs[rows].reshape(n_pos, size, n_states), start, trans)
        log_z += float(run.log_z.sum())
        node = (run.alphas * run.betas).reshape(-1, n_states)
        start_mass += node[:size].sum(axis=0)
        edge_mass += run.trans_pot * (
            run.alphas[:-1].reshape(-1, n_states).T @ run.tails.reshape(-1, n_states)
        )
        mass[rows] = node if projection is None else node @ projection
    expected_obs = _scatter_observations(batch.incidence, mass, index)

    objective = float(weights @ batch.observed) - log_z
    grad = batch.observed - np.concatenate(
        [expected_obs, _transition_counts(start_mass, edge_mass, space)]
    )
    if np.isfinite(l2_variance):
        objective -= float(weights @ weights) / (2.0 * l2_variance)
        grad -= weights / l2_variance
    return objective, grad
