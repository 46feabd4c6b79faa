"""Linear-chain CRF core: state spaces, lattices, dynamic programs and the
batch log-likelihood objective.

All three model orders run the same first-order machinery over different
state sets: base labels, the expanded carrier alphabet, or label pairs for
the second-order chain. A lattice holds additive log-potentials

    psi(t, s_prev, s) = transition(s_prev, s) + obs(t, s)

with a distinguished start context at t = 0. Probability computations stay
in log space with max-shifted log-sum-exp, so long sentences cannot
underflow; structurally forbidden moves carry -inf and drop out of every
sum. Weight vectors are laid out as the feature index's observation slots
followed by one contiguous transition region.

One batched kernel does the inference: a padded observation gather turns
the feature block starts of B same-length sentences into a (B, T, S)
block of observation scores, and one forward/backward pass over that block
gives alphas, betas, log Z and node marginals. The training objective runs
it over length-grouped chunks of the corpus; build_lattice and
forward_backward are its B = 1 view, the single-lattice API that Viterbi
decoding and the brute-force oracles use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import logsumexp

from .corpus import split_label
from .crf_types import ModelOrder
from .features import FeatureIndex
from .induction import LabelAlphabet, induce

NEG_INF = float("-inf")

# Sentinel first component of the boundary pair states in the second-order
# chain. Not a valid IOB2 label, so it cannot collide with real labels.
START_SYMBOL = "<start>"

# Target element count for one batched gather; keeps temporaries small
# while amortizing interpreter overhead over wide numpy ops.
_CHUNK_BUDGET = 4_000_000
_MAX_CHUNK = 256


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
    """Log-potentials of one sentence: obs is (T, S), trans (S, S), start (S,)."""

    obs: np.ndarray
    trans: np.ndarray
    start: np.ndarray

    @property
    def n_positions(self) -> int:
        return self.obs.shape[0]

    @property
    def n_states(self) -> int:
        return self.obs.shape[1]

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


def _gather_observations(
    sentences: Sequence[Sequence[np.ndarray]],
    weights: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observation scores of B same-length sentences in one padded gather.

    sentences holds each sentence's feature block starts per position.
    Returns the padded starts and their 0/1 mask, both (B, T, A) for A the
    most active features at any position, and the lattice observation
    scores (B, T, S).
    """
    n_pos = len(sentences[0])
    n_fine = index.n_fine
    max_active = max((st.size for sent in sentences for st in sent), default=0)
    starts = np.zeros((len(sentences), n_pos, max(max_active, 1)), dtype=np.int64)
    mask = np.zeros(starts.shape)
    for b, sent in enumerate(sentences):
        for t, st in enumerate(sent):
            starts[b, t, : st.size] = st
            mask[b, t, : st.size] = 1.0

    # scores per observation-conditioned state, then per lattice state
    gathered = weights[starts[..., None] + np.arange(index.block_size)] * mask[..., None]
    sums = gathered.sum(axis=2)
    obs_fine = sums[..., :n_fine]
    if index.has_coarse:
        obs_fine = obs_fine.copy()
        obs_fine[..., list(index.outside_obs_ids)] += sums[..., n_fine][..., None]
    return starts, mask, obs_fine[..., space.obs_state_of]


def build_lattice(
    position_features: Sequence[Sequence[str]],
    weights: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
    constrained: bool = False,
) -> Lattice:
    """Assemble the log-potential lattice for one sentence.

    position_features holds the active feature strings per position;
    features unknown to the index are dropped and contribute zero score.
    constrained=True applies the pre-induced decode-time validity masks.
    """
    if len(position_features) == 0:
        raise CrfError("lattice needs at least one position")
    weights = np.asarray(weights, dtype=np.float64)
    expected = total_parameters(index, space)
    if weights.shape != (expected,):
        raise CrfError(
            "weight vector has %s entries, expected %d" % (weights.shape, expected)
        )
    if constrained and space.order != ModelOrder.PRE_INDUCED:
        raise CrfError("decode-time constraints only apply to the pre-induced model")

    encoded = index.encode_positions(position_features)
    _, _, obs = _gather_observations([encoded], weights, index, space)
    start, trans = _transition_tables(weights, index, space)
    if constrained:
        start_ok, trans_ok = space.constraint_masks
        start = np.where(start_ok, start, NEG_INF)
        trans = np.where(trans_ok, trans, NEG_INF)
    return Lattice(obs=obs[0], trans=trans, start=start)


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
    """Reject a sum of log Z or best-path scores that is NaN or +inf
    (broken potentials) or -inf (a lattice with no feasible path)."""
    if math.isnan(total) or total == math.inf:
        raise CrfError("lattice has NaN or +inf potentials")
    if total == NEG_INF:
        raise InfeasibleLatticeError("every path through the lattice is blocked")


def _forward_backward(
    obs: np.ndarray, start: np.ndarray, trans: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward/backward over a (B, T, S) block of same-length lattices.

    The lattices share the start (S,) and transition (S, S) potentials.
    Returns log alphas and log betas (B, T, S), log Z (B,) and the node
    marginals (B, T, S).
    """
    n_sent, n_pos, n_states = obs.shape
    alphas = np.empty((n_sent, n_pos, n_states))
    alphas[:, 0] = start[None, :] + obs[:, 0]
    for t in range(1, n_pos):
        alphas[:, t] = obs[:, t] + logsumexp(
            alphas[:, t - 1][:, :, None] + trans[None, :, :], axis=1
        )
    log_z = logsumexp(alphas[:, -1], axis=1)
    _check_scores(float(log_z.sum()))

    betas = np.empty((n_sent, n_pos, n_states))
    betas[:, -1] = 0.0
    for t in range(n_pos - 2, -1, -1):
        tail = obs[:, t + 1] + betas[:, t + 1]
        betas[:, t] = logsumexp(trans[None, :, :] + tail[:, None, :], axis=2)

    node = np.exp(alphas + betas - log_z[:, None, None])
    return alphas, betas, log_z, node


def _edge_marginals(
    obs: np.ndarray,
    trans: np.ndarray,
    alphas: np.ndarray,
    betas: np.ndarray,
    log_z: np.ndarray,
    t: int,
) -> np.ndarray:
    """p(y_t = sp, y_{t+1} = s | x) for every lattice of a block: (B, S, S)."""
    tail = obs[:, t + 1] + betas[:, t + 1]
    return np.exp(
        alphas[:, t][:, :, None] + trans[None, :, :] + tail[:, None, :] - log_z[:, None, None]
    )


def forward_backward(lattice: Lattice) -> ForwardBackwardResult:
    """Exact marginal inference over one lattice (the kernel with B = 1)."""
    obs, trans = lattice.obs[None], lattice.trans
    alphas, betas, log_z, node = _forward_backward(obs, lattice.start, trans)
    edge = np.empty((lattice.n_positions - 1, lattice.n_states, lattice.n_states))
    for t in range(lattice.n_positions - 1):
        edge[t] = _edge_marginals(obs, trans, alphas, betas, log_z, t)[0]
    # log Z from the beta side, logsumexp(alpha_0 + beta_0), shifted by log_z
    log_z_backward = float(log_z[0] + np.log(node[0, 0].sum()))
    return ForwardBackwardResult(
        alphas[0], betas[0], float(log_z[0]), log_z_backward, node[0], edge
    )


def viterbi(lattice: Lattice) -> tuple[list[int], float]:
    """Highest-scoring state sequence and its log score.

    Ties break toward the lower state index at every argmax, making the
    decode deterministic.
    """
    obs, trans, start = lattice.obs, lattice.trans, lattice.start
    n_pos, n_states = obs.shape
    backpointer = np.zeros((n_pos, n_states), dtype=np.int64)
    delta = start + obs[0]
    for t in range(1, n_pos):
        scores = delta[:, None] + trans
        backpointer[t] = np.argmax(scores, axis=0)
        delta = obs[t] + scores[backpointer[t], np.arange(n_states)]
    # argmax picks NaN over any number, so a NaN anywhere reaches best
    last = int(np.argmax(delta))
    best = float(delta[last])
    _check_scores(best)
    path = [last]
    for t in range(n_pos - 1, 0, -1):
        path.append(int(backpointer[t, path[-1]]))
    path.reverse()
    return path, best


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


def _chunk_terms(
    chunk: Sequence[CompiledSentence],
    weights: np.ndarray,
    start_vec: np.ndarray,
    trans: np.ndarray,
    index: FeatureIndex,
    space: StateSpace,
) -> tuple[float, np.ndarray]:
    """Log-likelihood and gradient over same-length sentences, batched."""
    n_pos = len(chunk[0].feature_starts)
    n_fine = index.n_fine
    n_obs_params = index.n_parameters
    n_params = n_obs_params + space.n_transition_params

    starts, mask, obs_lat = _gather_observations(
        [cs.feature_starts for cs in chunk], weights, index, space
    )
    gold = np.stack([cs.gold for cs in chunk])
    alphas, betas, log_z, node = _forward_backward(obs_lat, start_vec, trans)

    w_trans = weights[n_obs_params:]
    gold_score = w_trans[space.start_slot[gold[:, 0]]].astype(np.float64)
    if n_pos > 1:
        pair_slots = space.trans_slot[gold[:, :-1], gold[:, 1:]]
        if np.any(pair_slots < 0):
            raise CrfError("gold path uses a structurally forbidden transition")
        gold_score += w_trans[pair_slots].sum(axis=1)
    gold_score += np.take_along_axis(obs_lat, gold[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    ll = float((gold_score - log_z).sum())

    grad = np.zeros(n_params)

    # node marginals, projected onto observation-conditioned states
    node_obs = node @ np.eye(n_fine)[space.obs_state_of]

    # observation slots: observed minus expected, scattered by bincount
    gold_obs = space.obs_state_of[gold]
    fine_idx = starts + gold_obs[:, :, None]
    grad[:n_obs_params] += np.bincount(
        fine_idx.ravel(), weights=mask.ravel(), minlength=n_obs_params
    )
    exp_idx = starts[..., None] + np.arange(n_fine)
    exp_val = node_obs[:, :, None, :] * mask[..., None]
    grad[:n_obs_params] -= np.bincount(
        exp_idx.ravel(), weights=exp_val.ravel(), minlength=n_obs_params
    )
    if index.has_coarse:
        out_ids = list(index.outside_obs_ids)
        out_lookup = np.zeros(n_fine, dtype=bool)
        out_lookup[out_ids] = True
        coarse_idx = starts + n_fine
        observed_c = mask * out_lookup[gold_obs][:, :, None]
        expected_c = node_obs[..., out_ids].sum(axis=-1)[:, :, None] * mask
        grad[:n_obs_params] += np.bincount(
            coarse_idx.ravel(), weights=observed_c.ravel(), minlength=n_obs_params
        )
        grad[:n_obs_params] -= np.bincount(
            coarse_idx.ravel(), weights=expected_c.ravel(), minlength=n_obs_params
        )

    # transition region: start slots then transition slots
    g_trans = np.zeros(space.n_transition_params)
    start_ok = space.start_slot >= 0
    g_trans += np.bincount(
        space.start_slot[gold[:, 0]], minlength=space.n_transition_params
    ).astype(np.float64)
    g_trans -= np.bincount(
        space.start_slot[start_ok],
        weights=node[:, 0, :].sum(axis=0)[start_ok],
        minlength=space.n_transition_params,
    )
    if n_pos > 1:
        g_trans += np.bincount(
            pair_slots.ravel(), minlength=space.n_transition_params
        ).astype(np.float64)
        allowed = space.trans_slot >= 0
        edge_acc = np.zeros_like(trans)
        for t in range(n_pos - 1):
            edge_acc += _edge_marginals(obs_lat, trans, alphas, betas, log_z, t).sum(axis=0)
        g_trans -= np.bincount(
            space.trans_slot[allowed],
            weights=edge_acc[allowed],
            minlength=space.n_transition_params,
        )
    grad[n_obs_params:] += g_trans
    return ll, grad


def _chunk_jobs(batch: Sequence[CompiledSentence], block: int) -> list[list[CompiledSentence]]:
    """Group sentences by length, then split groups into bounded chunks.

    Chunk boundaries depend only on the batch contents, so the reduction
    order (and therefore every floating-point result) is reproducible.
    """
    groups: dict[int, list[CompiledSentence]] = {}
    for cs in batch:
        groups.setdefault(len(cs.feature_starts), []).append(cs)
    jobs: list[list[CompiledSentence]] = []
    for n_pos in sorted(groups):
        members = groups[n_pos]
        max_active = max(
            (s.size for cs in members for s in cs.feature_starts), default=1
        )
        per_sentence = max(n_pos * max(max_active, 1) * block, 1)
        size = max(1, min(_MAX_CHUNK, _CHUNK_BUDGET // per_sentence))
        for i in range(0, len(members), size):
            jobs.append(members[i : i + size])
    return jobs


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
    """
    if not batch:
        raise CrfError("batch must contain at least one sentence")
    if any(cs.gold is None for cs in batch):
        raise CrfError("every training sentence needs a gold path")
    if any(len(cs.feature_starts) == 0 for cs in batch):
        raise CrfError("training sentences must be non-empty")
    weights = np.asarray(weights, dtype=np.float64)
    n_params = total_parameters(index, space)
    if weights.shape != (n_params,):
        raise CrfError(
            "weight vector has %s entries, expected %d" % (weights.shape, n_params)
        )
    if not (l2_variance > 0):
        raise CrfError("l2_variance must be positive (use inf to disable)")

    start_vec, trans = _transition_tables(weights, index, space)
    objective = 0.0
    grad = np.zeros(n_params)
    for job in _chunk_jobs(batch, index.block_size):
        ll, g = _chunk_terms(job, weights, start_vec, trans, index, space)
        objective += ll
        grad += g

    if np.isfinite(l2_variance):
        objective -= float(weights @ weights) / (2.0 * l2_variance)
        grad -= weights / l2_variance
    return objective, grad
