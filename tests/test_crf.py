import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    all_paths,
    brute_log_z,
    brute_viterbi,
    path_scores,
    random_corpus,
    random_lattice,
)
from picrf import crf
from picrf.corpus import Sentence, validate_iob2
from picrf.crf import (
    CompiledBatch,
    CrfError,
    InfeasibleLatticeError,
    Lattice,
    build_lattice,
    compile_sentence,
    encode_gold_states,
    expand_second_order,
    _MAX_CHUNK,
    _chunk_jobs,
    forward_backward,
    log_likelihood_and_gradient,
    pack_batch,
    preinduced_constraint_masks,
    state_space,
    total_parameters,
    viterbi,
)
from picrf.crf_types import ModelOrder
from picrf.features import BIAS_FEATURE, TemplateConfig, build_feature_index, extract_features
from picrf.induction import build_expanded_alphabet, revert

NEG_INF = float("-inf")


def _lattice(feats, weights, index, space, constrained=False):
    """One sentence's lattice, obs (T, S): the block build_lattice makes of
    a one-sentence batch, viewed with B = 1. feats are the sentence's
    feature strings per position, encoded by the reference encode_positions
    and padded with -1 into build_lattice's feature id matrix."""
    encoded = index.encode_positions(feats)
    ids = np.full((len(encoded), max(map(len, encoded), default=0)), -1)
    for t, starts in enumerate(encoded):
        ids[t, : starts.size] = starts // index.block_size
    [(members, block)] = build_lattice(ids, [len(feats)], weights, index, space, constrained)
    assert members == [0] and block.obs.shape[1] == 1
    return Lattice(block.obs[:, 0], block.trans, block.start)


class TestStateSpace:
    @pytest.mark.parametrize("n_types", [1, 2, 3, 4, 5])
    def test_state_counts(self, n_types):
        alpha = build_expanded_alphabet([chr(ord("A") + i) for i in range(n_types)])
        base = 2 * n_types + 1
        first = state_space(ModelOrder.FIRST, alpha)
        pre = state_space(ModelOrder.PRE_INDUCED, alpha)
        second = state_space(ModelOrder.SECOND, alpha)
        assert first.n_states == base == first.effective_states
        assert pre.n_states == 3 * n_types + 1 == pre.effective_states
        assert second.n_pair_states == base * base == second.effective_states
        assert second.n_states == base * base + base

    def test_transition_slots_disjoint(self):
        alpha = build_expanded_alphabet(["A"])
        for order in ModelOrder:
            space = state_space(order, alpha)
            slots = space.trans_slot[space.trans_slot >= 0]
            assert len(set(slots.tolist())) == slots.size
            assert slots.max() < space.n_transition_params

    def test_second_order_start_states_only_at_origin(self):
        alpha = build_expanded_alphabet(["A"])
        space = state_space(ModelOrder.SECOND, alpha)
        n = len(alpha.base_labels)
        assert (space.start_slot[: n * n] == -1).all()
        assert (space.start_slot[n * n :] >= 0).all()
        # nothing transitions into a start pair
        assert (space.trans_slot[:, n * n :] == -1).all()

    def test_output_labels(self):
        alpha = build_expanded_alphabet(["A"])
        second = state_space(ModelOrder.SECOND, alpha)
        n = len(alpha.base_labels)
        for i, (a, b) in enumerate((a, b) for a in alpha.base_labels for b in alpha.base_labels):
            assert second.output_labels[i] == b


class TestExpandSecondOrder:
    def test_counts_for_three_labels(self):
        exp = expand_second_order(["X", "Y", "Z"])
        assert len(exp.pair_states) == 9
        assert len(exp.start_pairs) == 3
        n_pairs = len(exp.pair_states)
        pair_block = exp.consistency[:n_pairs, :n_pairs]
        assert int(pair_block.sum()) == 27

    def test_consistency_requires_matching_middle(self):
        exp = expand_second_order(["X", "Y"])
        states = exp.states
        for i, (_, b) in enumerate(states):
            for j, (c, d) in enumerate(states):
                expected = (b == c) and (c != "<start>")
                assert bool(exp.consistency[i, j]) == expected

    def test_projection_length(self):
        exp = expand_second_order(["X", "Y"])
        path = [4, 0, 1]
        assert len(exp.project(path)) == 3

    def test_empty_rejected(self):
        with pytest.raises(CrfError):
            expand_second_order([])


class TestForwardBackward:
    def test_two_state_single_position_uniform(self):
        lattice = Lattice(obs=np.zeros((1, 2)), trans=np.zeros((2, 2)), start=np.zeros(2))
        result = forward_backward(lattice)
        assert result.log_z == pytest.approx(math.log(2), abs=1e-12)
        assert result.node_marginals[0] == pytest.approx([0.5, 0.5])
        assert result.edge_marginals.shape == (0, 2, 2)

    def test_zero_potentials_give_t_log_s(self):
        for n_pos, n_states in [(1, 2), (3, 4), (5, 3)]:
            lattice = Lattice(
                obs=np.zeros((n_pos, n_states)),
                trans=np.zeros((n_states, n_states)),
                start=np.zeros(n_states),
            )
            result = forward_backward(lattice)
            assert result.log_z == pytest.approx(n_pos * math.log(n_states), abs=1e-10)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for n_pos in range(1, 5):
            for n_states in range(2, 5):
                for _ in range(5):
                    lattice = random_lattice(n_pos, n_states, rng)
                    result = forward_backward(lattice)
                    assert result.log_z == pytest.approx(brute_log_z(lattice), abs=1e-9)
                    assert result.log_z_backward == pytest.approx(result.log_z, abs=1e-9)

    def test_marginals_normalize(self):
        lattice = random_lattice(6, 4, np.random.default_rng(3))
        result = forward_backward(lattice)
        assert np.allclose(result.node_marginals.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(result.edge_marginals.sum(axis=(1, 2)), 1.0, atol=1e-9)

    def test_edge_marginals_consistent_with_nodes(self):
        lattice = random_lattice(5, 3, np.random.default_rng(4))
        result = forward_backward(lattice)
        assert np.allclose(
            result.edge_marginals.sum(axis=2), result.node_marginals[:-1], atol=1e-9
        )
        assert np.allclose(
            result.edge_marginals.sum(axis=1), result.node_marginals[1:], atol=1e-9
        )

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        lattice = random_lattice(4, 3, rng)
        base = forward_backward(lattice)
        path_before, _ = viterbi(lattice)
        shifted = Lattice(lattice.obs.copy(), lattice.trans, lattice.start)
        shifted.obs[2] += 7.25
        after = forward_backward(shifted)
        assert after.log_z == pytest.approx(base.log_z + 7.25, abs=1e-9)
        assert np.allclose(after.node_marginals, base.node_marginals, atol=1e-9)
        assert np.allclose(after.edge_marginals, base.edge_marginals, atol=1e-9)
        assert viterbi(shifted)[0] == path_before

    def test_blocked_lattice_raises(self):
        lattice = Lattice(
            obs=np.zeros((2, 2)),
            trans=np.full((2, 2), NEG_INF),
            start=np.zeros(2),
        )
        with pytest.raises(InfeasibleLatticeError):
            forward_backward(lattice)
        with pytest.raises(InfeasibleLatticeError):
            viterbi(lattice)

    @pytest.mark.parametrize("where", ["obs", "trans", "start"])
    def test_nan_lattice_raises(self, where):
        lattice = random_lattice(3, 3, np.random.default_rng(6))
        getattr(lattice, where)[-1] = np.nan
        with pytest.raises(CrfError, match="NaN"):
            forward_backward(lattice)
        with pytest.raises(CrfError, match="NaN"):
            viterbi(lattice)


class TestExactOrLoud:
    """The scaled kernel returns the exact log Z or raises CrfError."""

    @pytest.mark.parametrize("sigma", [1.0, 50.0, 200.0, 400.0, 800.0])
    def test_random_lattices_match_brute_force_or_raise(self, sigma):
        rng = np.random.default_rng(int(sigma))
        raised = 0
        for _ in range(200):
            base = random_lattice(int(rng.integers(1, 6)), int(rng.integers(1, 5)), rng)
            lattice = Lattice(base.obs * sigma, base.trans * sigma, base.start * sigma)
            expected = brute_log_z(lattice)
            try:
                result = forward_backward(lattice)
            except CrfError as exc:
                assert type(exc) is CrfError and sigma > 50, "sigma %g: %r" % (sigma, exc)
                assert "finite spread" in str(exc)
                raised += 1
                continue
            assert result.log_z == pytest.approx(expected, rel=1e-9, abs=1e-12)
            assert result.log_z_backward == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert raised < 200

    def test_path_forced_through_far_transition(self):
        lattice = Lattice(
            obs=np.zeros((2, 2)),
            trans=np.array([[NEG_INF, -800.0], [NEG_INF, NEG_INF]]),
            start=np.array([0.0, NEG_INF]),
        )
        assert brute_log_z(lattice) == -800.0
        try:
            result = forward_backward(lattice)
        except CrfError as exc:
            assert type(exc) is CrfError
            return
        assert result.log_z == pytest.approx(-800.0, rel=1e-12)
        assert np.array_equal(result.node_marginals, [[1.0, 0.0], [0.0, 1.0]])

    def test_decoupled_chains_raise_instead_of_dropping_one(self):
        # two chains with no transition between them and equal total
        # scores: chain 1 falls 1000 nats behind, then catches up
        n_pos = 200
        obs = np.zeros((n_pos, 2))
        obs[: n_pos // 2, 1] = -10.0
        obs[n_pos // 2 :, 1] = 10.0
        trans = np.array([[0.0, NEG_INF], [NEG_INF, 0.0]])
        lattice = Lattice(obs=obs, trans=trans, start=np.zeros(2))
        try:
            result = forward_backward(lattice)
        except CrfError as exc:
            assert type(exc) is CrfError and "finite spread" in str(exc)
            return
        assert result.log_z == pytest.approx(math.log(2.0), rel=1e-9)


class TestViterbi:
    def test_all_zero_ties_break_to_lowest_index(self):
        lattice = Lattice(obs=np.zeros((4, 3)), trans=np.zeros((3, 3)), start=np.zeros(3))
        path, score = viterbi(lattice)
        assert path == [0, 0, 0, 0]
        assert score == 0.0

    def test_matches_exhaustive(self):
        rng = np.random.default_rng(21)
        for n_pos in range(1, 5):
            for n_states in range(2, 5):
                for _ in range(5):
                    lattice = random_lattice(n_pos, n_states, rng)
                    path, score = viterbi(lattice)
                    b_path, b_score, unique = brute_viterbi(lattice)
                    assert score == pytest.approx(b_score, abs=1e-9)
                    if unique:
                        assert path == b_path

    def test_forbidden_transition_respected(self):
        trans = np.zeros((2, 2))
        trans[0, 1] = NEG_INF
        obs = np.array([[1.0, 0.0], [0.0, 10.0]])
        lattice = Lattice(obs=obs, trans=trans, start=np.zeros(2))
        path, _ = viterbi(lattice)
        assert path == [1, 1]


ALPHA2 = build_expanded_alphabet(["A", "B"])


class TestEncodeGold:
    def test_first_order(self):
        space = state_space(ModelOrder.FIRST, ALPHA2)
        got = encode_gold_states(["B-A", "O", "B-B"], space)
        assert got.tolist() == [0, 4, 2]

    def test_pre_induced_applies_transform(self):
        space = state_space(ModelOrder.PRE_INDUCED, ALPHA2)
        got = encode_gold_states(["B-A", "O", "B-B"], space)
        # B-A, A[O], B-B in the expanded alphabet
        assert got.tolist() == [0, 5, 2]

    def test_second_order_pairs(self):
        space = state_space(ModelOrder.SECOND, ALPHA2)
        n = len(ALPHA2.base_labels)
        got = encode_gold_states(["B-A", "O", "B-B"], space)
        assert got.tolist() == [n * n + 0, 0 * n + 4, 4 * n + 2]

    def test_unknown_label_raises(self):
        space = state_space(ModelOrder.FIRST, ALPHA2)
        with pytest.raises(CrfError):
            encode_gold_states(["B-Z"], space)


def _training_setup(order, corpus, template=None, alphabet=None):
    template = template or TemplateConfig(set_id=1)
    alphabet = alphabet or ALPHA2
    space = state_space(order, alphabet)
    index = build_feature_index(corpus, template, alphabet, order)
    compiled = [
        compile_sentence(extract_features(s, template), list(s.labels), index, space)
        for s in corpus
    ]
    return space, index, compiled


class TestObjective:
    def test_zero_weights_closed_form(self):
        corpus = [Sentence.from_strings(["a", "b", "c"], ["B-A", "O", "O"])]
        space, index, compiled = _training_setup(ModelOrder.FIRST, corpus)
        weights = np.zeros(total_parameters(index, space))
        value, grad = log_likelihood_and_gradient(compiled, weights, index, space)
        n_states = space.n_states
        assert value == pytest.approx(-3 * math.log(n_states), abs=1e-10)

    def test_bias_gradient_single_position(self):
        corpus = [Sentence.from_strings(["a"], ["B-A"])]
        space, index, compiled = _training_setup(ModelOrder.FIRST, corpus)
        weights = np.zeros(total_parameters(index, space))
        _, grad = log_likelihood_and_gradient(compiled, weights, index, space)
        n_states = space.n_states
        fid = index.feature_ids[BIAS_FEATURE]
        gold_slot = index.block_start(fid) + 0  # B-A is state 0
        assert grad[gold_slot] == pytest.approx(1.0 - 1.0 / n_states, abs=1e-12)
        other_slot = index.block_start(fid) + 4  # O
        assert grad[other_slot] == pytest.approx(-1.0 / n_states, abs=1e-12)

    def test_penalty_disabled_at_infinite_variance(self):
        corpus = random_corpus(random.Random(0), ["A", "B"], 4)
        space, index, compiled = _training_setup(ModelOrder.FIRST, corpus)
        rng = np.random.default_rng(0)
        weights = rng.normal(size=total_parameters(index, space))
        v_inf, g_inf = log_likelihood_and_gradient(
            compiled, weights, index, space, l2_variance=float("inf")
        )
        v_pen, g_pen = log_likelihood_and_gradient(
            compiled, weights, index, space, l2_variance=2.0
        )
        assert v_pen == pytest.approx(v_inf - float(weights @ weights) / 4.0, rel=1e-12)
        assert np.allclose(g_pen, g_inf - weights / 2.0, atol=1e-12)

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_batch_log_z_matches_per_sentence(self, order):
        corpus = random_corpus(random.Random(3), ["A", "B"], 12)
        template = TemplateConfig(set_id=2)
        space, index, compiled = _training_setup(order, corpus, template)
        rng = np.random.default_rng(7)
        weights = rng.normal(scale=0.3, size=total_parameters(index, space))
        value, _ = log_likelihood_and_gradient(compiled, weights, index, space)

        total = 0.0
        w_trans = weights[index.n_parameters :]
        for sentence, cs in zip(corpus, compiled):
            feats = extract_features(sentence, template)
            lattice = _lattice(feats, weights, index, space)
            result = forward_backward(lattice)
            gold = cs.gold
            gold_score = w_trans[space.start_slot[gold[0]]]
            for t in range(1, len(gold)):
                gold_score += w_trans[space.trans_slot[gold[t - 1], gold[t]]]
            gold_score += lattice.obs[np.arange(len(gold)), gold].sum()
            total += gold_score - result.log_z
        assert value == pytest.approx(total, rel=1e-10)

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_gradient_matches_finite_differences(self, order):
        corpus = random_corpus(random.Random(9), ["A", "B"], 5)
        space, index, compiled = _training_setup(order, corpus, TemplateConfig(set_id=2))
        n = total_parameters(index, space)
        rng = np.random.default_rng(2)
        weights = rng.normal(scale=0.1, size=n)
        _, grad = log_likelihood_and_gradient(compiled, weights, index, space, l2_variance=5.0)
        h = 1e-5
        for slot in rng.choice(n, size=15, replace=False):
            plus, minus = weights.copy(), weights.copy()
            plus[slot] += h
            minus[slot] -= h
            vp, _ = log_likelihood_and_gradient(compiled, plus, index, space, l2_variance=5.0)
            vm, _ = log_likelihood_and_gradient(compiled, minus, index, space, l2_variance=5.0)
            fd = (vp - vm) / (2 * h)
            assert abs(fd - grad[slot]) / max(1.0, abs(grad[slot])) < 1e-6

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_chunked_batch_matches_single_sentences(self, order):
        rng = random.Random(5)
        corpus = random_corpus(rng, ["A", "B"], _MAX_CHUNK + 20, min_len=4, max_len=4)
        corpus += random_corpus(rng, ["A", "B"], 30)
        space, index, compiled = _training_setup(order, corpus)
        n_lengths = len({len(cs.feature_starts) for cs in compiled})
        lengths = [len(cs.feature_starts) for cs in compiled]
        assert len(_chunk_jobs(lengths, space.n_states)) > n_lengths
        weights = np.random.default_rng(1).normal(
            scale=0.3, size=total_parameters(index, space)
        )
        value, grad = log_likelihood_and_gradient(compiled, weights, index, space)

        parts = [log_likelihood_and_gradient([cs], weights, index, space) for cs in compiled]
        assert value == pytest.approx(sum(v for v, _ in parts), rel=1e-10)
        expected = np.sum([g for _, g in parts], axis=0)
        assert np.allclose(grad, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())

        again_value, again_grad = log_likelihood_and_gradient(compiled, weights, index, space)
        assert again_value == value
        assert np.array_equal(again_grad, grad)

    def test_compiled_batch_is_its_sentences(self):
        corpus = random_corpus(random.Random(8), ["A", "B"], 6)
        space, index, compiled = _training_setup(ModelOrder.PRE_INDUCED, corpus)
        packed = pack_batch(compiled, index, space)
        assert isinstance(packed, CompiledBatch) and isinstance(packed, tuple)
        assert list(packed) == compiled
        assert packed.observed.shape == (total_parameters(index, space),)

    def test_empty_batch_rejected(self):
        space, index, _ = _training_setup(
            ModelOrder.FIRST, [Sentence.from_strings(["a"], ["O"])]
        )
        with pytest.raises(CrfError):
            log_likelihood_and_gradient([], np.zeros(total_parameters(index, space)), index, space)

    def test_missing_gold_rejected(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        cs = compile_sentence([["BIAS"]], None, index, space)
        with pytest.raises(CrfError):
            log_likelihood_and_gradient([cs], np.zeros(total_parameters(index, space)), index, space)

    def test_weight_length_mismatch(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, compiled = _training_setup(ModelOrder.FIRST, corpus)
        with pytest.raises(CrfError):
            log_likelihood_and_gradient(compiled, np.zeros(3), index, space)


class TestBuildLattice:
    def test_weight_length_checked(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        with pytest.raises(CrfError):
            _lattice([["BIAS"]], np.zeros(1), index, space)

    def test_empty_sentence_rejected(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        with pytest.raises(CrfError):
            _lattice([], np.zeros(total_parameters(index, space)), index, space)

    def test_unknown_features_contribute_zero(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        rng = np.random.default_rng(0)
        weights = rng.normal(size=total_parameters(index, space))
        known = [["BIAS", "W[0]=a"]]
        with_unknown = [["BIAS", "W[0]=a", "W[0]=never-seen"]]
        a = _lattice(known, weights, index, space)
        b = _lattice(with_unknown, weights, index, space)
        assert np.array_equal(a.obs, b.obs)

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_observation_scores_follow_the_slot_layout(self, order):
        """obs[t, s] is the sum of weights[slot] over observation_slots of
        every indexed feature at t and the state that scores s; a position
        with no indexed feature scores zero everywhere."""
        template = TemplateConfig(set_id=2)
        corpus = random_corpus(random.Random(4), ["A", "B"], 8, min_len=3, max_len=6)
        space, index, _ = _training_setup(order, corpus, template)
        weights = np.random.default_rng(4).normal(size=total_parameters(index, space))
        feats = extract_features(corpus[0], template) + [["W[0]=never-seen"]]
        lattice = _lattice(feats, weights, index, space)
        for t, active in enumerate(feats):
            for s in range(space.n_states):
                obs_label = index.obs_labels[space.obs_state_of[s]]
                expected = sum(
                    weights[slot]
                    for feature in active
                    if index.feature_id(feature) is not None
                    for slot in index.observation_slots(feature, obs_label)
                )
                assert lattice.obs[t, s] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert not lattice.obs[-1].any()

    def test_psi_accessor(self):
        corpus = [Sentence.from_strings(["a", "b"], ["O", "O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        rng = np.random.default_rng(2)
        weights = rng.normal(size=total_parameters(index, space))
        feats = extract_features(corpus[0], TemplateConfig(set_id=1))
        lattice = _lattice(feats, weights, index, space)
        assert lattice.psi(0, None, 1) == pytest.approx(lattice.start[1] + lattice.obs[0, 1])
        assert lattice.psi(1, 0, 2) == pytest.approx(lattice.trans[0, 2] + lattice.obs[1, 2])

    def test_constrained_requires_pre_induced(self):
        corpus = [Sentence.from_strings(["a"], ["O"])]
        space, index, _ = _training_setup(ModelOrder.FIRST, corpus)
        with pytest.raises(CrfError):
            _lattice(
                [["BIAS"]],
                np.zeros(total_parameters(index, space)),
                index,
                space,
                constrained=True,
            )


class TestSecondOrderEmbedding:
    def test_first_order_weights_reproduce_first_order_decode(self):
        rng = random.Random(17)
        corpus = random_corpus(rng, ["A", "B"], 30, min_len=1, max_len=7)
        template = TemplateConfig(set_id=1)
        first_space, first_index, _ = _training_setup(ModelOrder.FIRST, corpus, template)
        second_space, second_index, _ = _training_setup(ModelOrder.SECOND, corpus, template)
        assert first_index.features == second_index.features

        gen = np.random.default_rng(23)
        w_first = gen.normal(size=total_parameters(first_index, first_space))

        n = first_space.n_states
        w_second = np.zeros(total_parameters(second_index, second_space))
        w_second[: second_index.n_parameters] = w_first[: first_index.n_parameters]
        trans_first = w_first[first_index.n_parameters :]
        trans_second = w_second[second_index.n_parameters :]
        trans_second[:n] = trans_first[:n]  # start weights
        for prev in range(n + 1):
            for cur in range(n):
                for nxt in range(n):
                    trans_second[n + (prev * n + cur) * n + nxt] = trans_first[
                        n + cur * n + nxt
                    ]

        for sentence in corpus:
            feats = extract_features(sentence, template)
            first_path, first_score = viterbi(
                _lattice(feats, w_first, first_index, first_space)
            )
            second_path, second_score = viterbi(
                _lattice(feats, w_second, second_index, second_space)
            )
            first_labels = [first_space.output_labels[s] for s in first_path]
            second_labels = [second_space.output_labels[s] for s in second_path]
            assert first_labels == second_labels
            assert first_score == pytest.approx(second_score, abs=1e-9)


class TestPreInducedConstraints:
    def test_forbidden_moves(self):
        start_ok, trans_ok = preinduced_constraint_masks(ALPHA2)
        labels = ALPHA2.expanded_labels
        idx = {label: i for i, label in enumerate(labels)}

        def allowed(a, b):
            return bool(trans_ok[idx[a], idx[b]])

        assert not allowed("A[O]", "O")
        assert not allowed("B-B", "A[O]")
        assert not allowed("O", "A[O]")
        assert not allowed("A[O]", "B[O]")
        assert not allowed("A[O]", "I-A")
        assert not allowed("B-A", "O")
        assert allowed("B-A", "A[O]")
        assert allowed("A[O]", "A[O]")
        assert allowed("A[O]", "B-B")
        assert allowed("O", "O")
        assert allowed("O", "B-A")
        assert not start_ok[idx["I-A"]]
        assert not start_ok[idx["A[O]"]]
        assert start_ok[idx["B-A"]] and start_ok[idx["O"]]

    def test_constrained_decode_reverts_to_valid_iob2(self):
        rng = random.Random(31)
        corpus = random_corpus(rng, ["A", "B"], 40, min_len=1, max_len=9)
        template = TemplateConfig(set_id=1)
        space, index, _ = _training_setup(ModelOrder.PRE_INDUCED, corpus, template)
        gen = np.random.default_rng(4)
        for trial in range(10):
            weights = gen.normal(scale=2.0, size=total_parameters(index, space))
            for sentence in corpus[:8]:
                feats = extract_features(sentence, template)
                lattice = _lattice(feats, weights, index, space, constrained=True)
                path, _ = viterbi(lattice)
                labels = [space.output_labels[s] for s in path]
                reverted = revert(labels, ALPHA2)
                assert validate_iob2(reverted, mode="strict") == reverted

    def test_unconstrained_revert_is_total(self):
        rng = random.Random(32)
        corpus = random_corpus(rng, ["A", "B"], 10)
        template = TemplateConfig(set_id=1)
        space, index, _ = _training_setup(ModelOrder.PRE_INDUCED, corpus, template)
        gen = np.random.default_rng(5)
        weights = gen.normal(size=total_parameters(index, space))
        for sentence in corpus:
            feats = extract_features(sentence, template)
            path, _ = viterbi(_lattice(feats, weights, index, space))
            labels = [space.output_labels[s] for s in path]
            reverted = revert(labels, ALPHA2)
            assert all(l in ALPHA2.base_labels for l in reverted)


def _gold_score(lattice, space, index, weights, gold):
    w_trans = weights[index.n_parameters :]
    score = w_trans[space.start_slot[gold[0]]]
    for t in range(1, len(gold)):
        score += w_trans[space.trans_slot[gold[t - 1], gold[t]]]
    return score + lattice.obs[np.arange(len(gold)), gold].sum()


@settings(max_examples=30, deadline=None)
@given(
    order=st.sampled_from(list(ModelOrder)),
    seed=st.integers(0, 2**32 - 1),
    n_sentences=st.integers(1, 9),
    max_len=st.integers(1, 5),
    chunk_cap=st.sampled_from([1, 2, _MAX_CHUNK]),
)
def test_batched_objective_is_sum_of_single_lattices(order, seed, n_sentences, max_len, chunk_cap):
    """Objective and transition gradient of a packed batch against
    per-sentence forward_backward, with chunks capped at chunk_cap
    sentences so that small batches get split."""
    corpus = random_corpus(random.Random(seed), ["A", "B"], n_sentences, max_len=max_len)
    template = TemplateConfig(set_id=2)
    space, index, compiled = _training_setup(order, corpus, template)
    weights = np.random.default_rng(seed).normal(scale=0.5, size=total_parameters(index, space))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_MAX_CHUNK", chunk_cap)
        packed = pack_batch(compiled, index, space)
        value, grad = log_likelihood_and_gradient(packed, weights, index, space)
        list_value, list_grad = log_likelihood_and_gradient(list(compiled), weights, index, space)
    assert value == list_value and np.array_equal(grad, list_grad)
    per_length = Counter(len(cs.feature_starts) for cs in compiled)
    if max(per_length.values()) > chunk_cap:
        assert len(packed.chunks) > len(per_length)

    total = 0.0
    start_mass = np.zeros(space.n_states)
    edge_mass = np.zeros((space.n_states, space.n_states))
    for sentence, cs in zip(corpus, compiled):
        lattice = _lattice(extract_features(sentence, template), weights, index, space)
        result = forward_backward(lattice)
        total += _gold_score(lattice, space, index, weights, cs.gold) - result.log_z
        start_mass += result.node_marginals[0]
        edge_mass += result.edge_marginals.sum(axis=0)
    assert value == pytest.approx(total, rel=1e-10)

    observed = packed.observed[index.n_parameters :]
    expected = observed.copy()
    s_ok = space.start_slot >= 0
    expected[space.start_slot[s_ok]] -= start_mass[s_ok]
    allowed = space.trans_slot >= 0
    expected[space.trans_slot[allowed]] -= edge_mass[allowed]
    assert np.allclose(grad[index.n_parameters :], expected, rtol=1e-10, atol=1e-10)


def _tie_broken_viterbi(lattice):
    """Among the best paths, the one Viterbi's rule picks: the lowest final
    state, then at each step back the lowest predecessor, so the path that
    is smallest read from the end. Exact only for exactly summed potentials."""
    paths = all_paths(lattice.n_positions, lattice.n_states)
    scores = path_scores(lattice, paths)
    best = [list(p) for p, v in zip(paths, scores) if v == scores.max()]
    return min(best, key=lambda p: p[::-1]), float(scores.max())


@settings(max_examples=80, deadline=None)
@given(
    n_pos=st.integers(1, 4),
    n_batch=st.integers(1, 5),
    n_states=st.integers(1, 4),
    integer=st.booleans(),
    forbid=st.sampled_from([0.0, 0.3]),
    constrained=st.booleans(),
    one_per_slice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_viterbi_matches_single_lattices_and_brute_force(
    n_pos, n_batch, n_states, integer, forbid, constrained, one_per_slice, seed
):
    """viterbi over a (T, B, S) block gives each sentence the path and score
    of its own lattice and of the exhaustive search. Integer potentials
    force ties, which break toward the lower state index; -inf entries come
    from random forbidden moves and from the pre-induced decode masks.
    one_per_slice runs the block one sentence at a time."""
    rng = np.random.default_rng(seed)
    if constrained:
        start_ok, trans_ok = preinduced_constraint_masks(build_expanded_alphabet(["A"]))
        n_states = start_ok.size
    else:
        start_ok, trans_ok = np.ones(n_states, bool), np.ones((n_states, n_states), bool)

    def draw(shape):
        values = rng.integers(-2, 3, size=shape) if integer else rng.normal(size=shape)
        return np.where(rng.random(shape) < forbid, NEG_INF, values.astype(float))

    block = Lattice(
        obs=draw((n_pos, n_batch, n_states)),
        trans=np.where(trans_ok, draw((n_states, n_states)), NEG_INF),
        start=np.where(start_ok, draw(n_states), NEG_INF),
    )
    singles = [Lattice(block.obs[:, b], block.trans, block.start) for b in range(n_batch)]
    brute = [brute_viterbi(lattice) for lattice in singles]
    with pytest.MonkeyPatch.context() as patch:
        if one_per_slice:
            patch.setattr(crf, "_VITERBI_BUDGET", 1)
        if any(score == NEG_INF for _, score, _ in brute):
            with pytest.raises(InfeasibleLatticeError):
                viterbi(block)
            return
        paths, scores = viterbi(block)
    assert paths.shape == (n_batch, n_pos) and scores.shape == (n_batch,)
    for b, lattice in enumerate(singles):
        path, score = viterbi(lattice)
        assert paths[b].tolist() == path and scores[b] == score
        b_path, b_score, unique = brute[b]
        assert score == pytest.approx(b_score, abs=1e-9)
        if integer:
            assert (path, score) == _tie_broken_viterbi(lattice)
        elif unique:
            assert path == b_path


@settings(max_examples=40, deadline=None)
@given(
    n_pos=st.integers(1, 4),
    n_batch=st.integers(1, 5),
    n_states=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_viterbi_raises_on_nan(n_pos, n_batch, n_states, seed, data):
    rng = np.random.default_rng(seed)
    obs = rng.normal(size=(n_pos, n_batch, n_states))
    where = tuple(data.draw(st.integers(0, n - 1)) for n in obs.shape)
    obs[where] = np.nan
    block = Lattice(obs, rng.normal(size=(n_states, n_states)), rng.normal(size=n_states))
    with pytest.raises(CrfError):
        viterbi(block)

