import math
import os
import platform
import random
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_paths,
    brute_log_z,
    brute_viterbi,
    compile_corpus_loop,
    counted_features,
    encode_positions_loop,
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
    forward_backward,
    log_likelihood_and_gradient,
    pack_batch,
    preinduced_constraint_masks,
    state_space,
    total_parameters,
    viterbi,
)
from picrf.crf_types import ModelOrder
from picrf.features import (
    BIAS_FEATURE,
    TemplateConfig,
    build_feature_index,
    extract_features,
    feature_id_matrix,
    make_feature_index,
)
from picrf.induction import build_expanded_alphabet, revert
from picrf.training import compile_corpus

try:
    import resource
except ImportError:
    resource = None

NEG_INF = float("-inf")


def _lattice(feats, weights, index, space, constrained=False):
    """One sentence's lattice, obs (T, S): the packed lattice build_lattice
    makes of a one-sentence batch, whose layout has width 1 at every
    position. feats are the sentence's feature strings per position,
    encoded by oracles.encode_positions_loop and padded with -1 into
    build_lattice's feature id matrix."""
    encoded = encode_positions_loop(index, feats)
    ids = np.full((len(encoded), max(map(len, encoded), default=0)), -1)
    for t, starts in enumerate(encoded):
        ids[t, : starts.size] = starts // index.block_size
    lattice, widths, order = build_lattice(ids, [len(feats)], weights, index, space, constrained)
    assert widths.tolist() == [1] * len(feats) and order.tolist() == list(range(len(feats)))
    return lattice


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
        assert second.effective_states == base * base
        assert second.n_states == base * base + base

    def test_transition_slots_disjoint(self):
        """The allowed moves of move_slot, start row included, own the slots
        0 .. n_transition_params - 1, one each."""
        for n_types in (1, 2, 3):
            alpha = build_expanded_alphabet([chr(ord("A") + i) for i in range(n_types)])
            n = len(alpha.base_labels)
            for order in ModelOrder:
                space = state_space(order, alpha)
                assert space.move_slot.shape == (space.n_states + 1, space.n_states)
                assert (space.move_slot >= -1).all()
                slots = np.sort(space.move_slot[space.move_slot >= 0])
                assert np.array_equal(slots, np.arange(space.n_transition_params))
                if order == ModelOrder.SECOND:
                    assert space.n_transition_params == n + (n + 1) * n * n
                else:
                    assert space.n_transition_params == (space.n_states + 1) * space.n_states

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_move_block_is_the_transition_region_after_the_start(self, order):
        """The layout viterbi decodes through: over the block (A, B, C),
        state a * B + b moves to b * C + c through slot C + (a * B + b) *
        C + c, the start row holds slots 0 .. C - 1, and every other move
        is forbidden."""
        space = state_space(order, ALPHA2)
        n_from, n_ctx, n_to = space.move_block
        assert n_from * n_ctx == space.n_states
        a, b, c = np.indices(space.move_block)
        source = a * n_ctx + b
        trans = space.move_slot[:-1]
        assert np.array_equal(trans[source, b * n_to + c], n_to + source * n_to + c)
        assert np.count_nonzero(trans >= 0) == n_from * n_ctx * n_to
        start = space.move_slot[-1]
        assert sorted(start[start >= 0]) == list(range(n_to))
        assert space.n_transition_params == n_to + n_from * n_ctx * n_to

    def test_second_order_start_states_only_at_origin(self):
        alpha = build_expanded_alphabet(["A"])
        space = state_space(ModelOrder.SECOND, alpha)
        n = len(alpha.base_labels)
        assert (space.move_slot[-1, : n * n] == -1).all()
        assert (space.move_slot[-1, n * n :] >= 0).all()
        # nothing transitions into a start pair
        assert (space.move_slot[:-1, n * n :] == -1).all()

    def test_output_labels(self):
        alpha = build_expanded_alphabet(["A"])
        second = state_space(ModelOrder.SECOND, alpha)
        n = len(alpha.base_labels)
        for i, (a, b) in enumerate((a, b) for a in alpha.base_labels for b in alpha.base_labels):
            assert second.output_labels[i] == b


class TestPairLayout:
    """Each order's state space against an explicit enumeration of its
    states and moves: labels for first and pre-induced; for second, pairs
    (a, b) with a a label or the sentence start, and b a label."""

    @pytest.mark.parametrize("order", list(ModelOrder))
    @pytest.mark.parametrize("types", [["A"], ["A", "B"]])
    def test_every_move_against_enumeration(self, types, order):
        alpha = build_expanded_alphabet(types)
        space = state_space(order, alpha)
        moves, start = {}, {}
        if order == ModelOrder.SECOND:
            labels = alpha.base_labels
            n = len(labels)
            contexts = list(labels) + [None]  # None: the sentence start
            states = [(a, b) for a in contexts for b in labels]
            names = ["%s|%s" % ("<start>" if a is None else a, b) for a, b in states]
            for a in range(n + 1):
                for b in range(n):
                    src = states.index((contexts[a], labels[b]))
                    if contexts[a] is None:
                        start[src] = b
                    for c in range(n):
                        dst = states.index((labels[b], labels[c]))
                        moves[src, dst] = n + ((a * n + b) * n + c)
            emitted = [b for _, b in states]
        else:
            labels = alpha.base_labels if order == ModelOrder.FIRST else alpha.expanded_labels
            n = len(labels)
            names = emitted = list(labels)
            # the start moves into s through slot s, r -> s through n + r * n + s
            start = {s: s for s in range(n)}
            moves = {(r, s): n + r * n + s for r in range(n) for s in range(n)}
        expected = np.full((len(names) + 1, len(names)), -1)
        for (src, dst), slot in moves.items():
            expected[src, dst] = slot
        for dst, slot in start.items():
            expected[-1, dst] = slot
        assert space.n_states == len(names)
        assert np.array_equal(space.move_slot, expected)
        assert space.n_transition_params == len(moves) + len(start)
        assert list(space.state_names) == names
        assert list(space.output_labels) == emitted
        assert space.obs_state_of.tolist() == [labels.index(label) for label in emitted]

    def test_gold_states_are_consecutive_label_pairs(self):
        alpha = build_expanded_alphabet(["A", "B"])
        space = state_space(ModelOrder.SECOND, alpha)
        gold = ["B-A", "I-A", "O", "B-B", "B-A"]
        states = encode_gold_states(gold, space)
        names = [space.state_names[s] for s in states]
        assert names == ["<start>|B-A"] + ["%s|%s" % pair for pair in zip(gold, gold[1:])]
        assert [space.output_labels[s] for s in states] == gold


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


class TestLatticeShapes:
    """A lattice whose shapes do not fit together is refused when it is
    built, before any pass could read past the states it has."""

    @pytest.mark.parametrize(
        "obs, trans, start, block",
        [
            ((3, 2), (3, 3), (2,), None),  # trans of three states
            ((3, 2), (2, 2), (3,), None),  # start of three states
            ((0, 2), (2, 2), (2,), None),  # no position
            ((2,), (2, 2), (2,), None),  # obs not (T, S)
            ((3, 0), (0, 0), (0,), None),  # no state
            ((3, 6), (6, 6), (6,), (2, 2, 2)),  # A * B = 4 is not S = 6
            ((3, 6), (6, 6), (6,), (3, 2, 4)),  # B * C = 8 > S = 6
        ],
        ids=["trans", "start", "no-position", "obs-1d", "no-state", "block-rows", "block-cols"],
    )
    def test_mismatched_shapes_raise(self, obs, trans, start, block):
        with pytest.raises(CrfError, match="lattice shapes obs \\(%s" % obs[0]):
            Lattice(np.zeros(obs), np.zeros(trans), np.zeros(start), block)

    def test_no_pass_runs_on_a_mismatched_lattice(self):
        """Unchecked, viterbi would decode obs (3, 2) from the top-left
        corner of a trans (3, 3), and both passes would index past the end
        of a lattice of no position."""
        with pytest.raises(CrfError, match="trans \\(3, 3\\)"):
            viterbi(Lattice(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros(2)))
        with pytest.raises(CrfError, match="T >= 1"):
            forward_backward(Lattice(np.zeros((0, 2)), np.zeros((2, 2)), np.zeros(2)))

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_state_space_blocks_fit(self, order):
        space = state_space(order, ALPHA2)
        n = space.n_states
        lattice = Lattice(np.zeros((1, n)), np.zeros((n, n)), np.zeros(n), space.move_block)
        assert lattice.moves().shape == space.move_block


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

    @pytest.mark.parametrize("sigma", [1.0, 200.0, 400.0, 800.0])
    def test_packed_batches_match_single_lattices_or_raise(self, sigma):
        """A packed batch of lattices sharing start and trans is exact, or
        raises CrfError, exactly when one of its lattices alone would."""
        rng = np.random.default_rng(int(sigma) + 1)
        raised = 0
        for _ in range(100):
            n_states = int(rng.integers(1, 5))
            lengths = rng.integers(1, 6, size=int(rng.integers(1, 5)))
            trans, start = rng.normal(size=(n_states, n_states)), rng.normal(size=n_states)
            obs = [rng.normal(size=(n, n_states)) * sigma for n in lengths]
            singles = [Lattice(o, trans * sigma, start * sigma) for o in obs]
            widths, order = crf._packed_layout(lengths)
            packed = np.concatenate(obs)[order].T.copy()
            try:
                exact = [forward_backward(lattice).log_z for lattice in singles]
            except CrfError:
                with pytest.raises(CrfError, match="finite spread"):
                    crf._forward_backward(packed, widths, start * sigma, trans * sigma)
                raised += 1
                continue
            run = crf._forward_backward(packed, widths, start * sigma, trans * sigma)
            expected = sum(brute_log_z(lattice) for lattice in singles)
            assert run.log_scale.sum() == pytest.approx(sum(exact), rel=1e-12, abs=1e-12)
            assert run.log_scale.sum() == pytest.approx(expected, rel=1e-9, abs=1e-12)
        assert raised < 100 and (raised > 0) == (sigma > 50)

    @pytest.mark.parametrize("lengths", [[3], [3, 1, 2], [1, 2, 3, 1]])
    def test_subnormal_backward_entry_raises(self, lengths):
        """State 0 leaves by moves 720 nats down, so its backward entry at
        every position with a next one is subnormal: not exact, though no
        entry is zero."""
        trans = np.array([[-720.0, -720.0], [0.0, 0.0]])
        widths, _ = crf._packed_layout(np.array(lengths))
        packed = np.zeros((2, sum(lengths)))
        with pytest.raises(CrfError, match="finite spread"):
            crf._forward_backward(packed, widths, np.zeros(2), trans)

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

    @pytest.mark.parametrize("widths", [[1], [1, 1], [1, 2], [0, 3], [1, 1, 1, 1]])
    def test_rejects_widths_that_do_not_lay_out_the_rows(self, widths):
        lattice = random_lattice(3, 2, np.random.default_rng(0))
        with pytest.raises(CrfError) as err:
            viterbi(lattice, np.array(widths))
        assert str(err.value).startswith(
            "block widths %s do not lay out 3 lattice rows" % (widths,)
        )


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
            gold_score = w_trans[space.move_slot[-1, gold[0]]]
            for t in range(1, len(gold)):
                gold_score += w_trans[space.move_slot[gold[t - 1], gold[t]]]
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

    def test_gold_length_mismatch_rejected(self):
        corpus = [Sentence.from_strings(["a", "b"], ["O", "O"])]
        space, index, [cs] = _training_setup(ModelOrder.FIRST, corpus)
        with pytest.raises(CrfError, match="gold path of its length"):
            pack_batch([cs._replace(gold=cs.gold[:1])], index, space)

    @pytest.mark.parametrize("fault", ["unchained", "no-start-pair"])
    def test_second_order_gold_must_chain_from_the_start(self, fault):
        """A pair path must begin with a start pair, and each pair (a, b)
        must be followed by some (b, c)."""
        corpus = [Sentence.from_strings(["a", "b"], ["B-A", "I-A"])]
        space, index, [cs] = _training_setup(ModelOrder.SECOND, corpus)
        pack_batch([cs], index, space)
        n = len(ALPHA2.base_labels)
        b, i = ALPHA2.base_index["B-A"], ALPHA2.base_index["I-A"]
        assert cs.gold.tolist() == [n * n + b, b * n + i]
        gold = [n * n + b, i * n + i] if fault == "unchained" else [b * n + b, b * n + i]
        with pytest.raises(CrfError, match="^gold path uses a structurally forbidden transition$"):
            pack_batch([cs._replace(gold=np.array(gold))], index, space)

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
        mask = preinduced_constraint_masks(ALPHA2)
        start_ok, trans_ok = mask[-1], mask[:-1]
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
    score = w_trans[space.move_slot[-1, gold[0]]]
    for t in range(1, len(gold)):
        score += w_trans[space.move_slot[gold[t - 1], gold[t]]]
    return score + lattice.obs[np.arange(len(gold)), gold].sum()


def _corpus_of_lengths(seed, lengths):
    rng = random.Random(seed)
    return [random_corpus(rng, ["A", "B"], 1, min_len=n, max_len=n)[0] for n in lengths]


def _reference_objective(corpus, template, weights, index, space):
    """The objective and its full gradient from per-sentence forward_backward
    on build_lattice's one-sentence lattices: gold counts minus marginals,
    scattered slot by slot through index.observation_slots."""
    n_params = index.n_parameters
    grad = np.zeros(total_parameters(index, space))
    trans_grad = grad[n_params:]
    value = 0.0
    for sentence in corpus:
        feats = extract_features(sentence, template)
        lattice = _lattice(feats, weights, index, space)
        result = forward_backward(lattice)
        gold = encode_gold_states(sentence.labels, space)
        value += _gold_score(lattice, space, index, weights, gold) - result.log_z
        mass = np.zeros((len(gold), index.n_fine))
        np.add.at(mass, (np.arange(len(gold)), space.obs_state_of[gold]), 1.0)
        for t in range(len(gold)):
            np.add.at(mass[t], space.obs_state_of, -result.node_marginals[t])
        for t, active in enumerate(feats):
            for feature in active:
                if index.feature_id(feature) is None:
                    continue
                for j, label in enumerate(index.obs_labels):
                    for slot in index.observation_slots(feature, label):
                        grad[slot] += mass[t, j]
        start_slot, trans_slot = space.move_slot[-1], space.move_slot[:-1]
        trans_grad[start_slot[gold[0]]] += 1.0
        for prev, cur in zip(gold, gold[1:]):
            trans_grad[trans_slot[prev, cur]] += 1.0
        s_ok = start_slot >= 0
        trans_grad[start_slot[s_ok]] -= result.node_marginals[0][s_ok]
        allowed = trans_slot >= 0
        trans_grad[trans_slot[allowed]] -= result.edge_marginals.sum(axis=0)[allowed]
    return value, grad


@settings(max_examples=30, deadline=None)
@given(
    order=st.sampled_from(list(ModelOrder)),
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=9),
)
def test_packed_objective_matches_single_lattices(order, seed, lengths):
    """Objective and full gradient of a packed batch of mixed lengths
    against per-sentence forward_backward; a CompiledBatch, a plain list
    and a repeated call give bit-identical results."""
    corpus = _corpus_of_lengths(seed, lengths)
    template = TemplateConfig(set_id=2)
    space, index, compiled = _training_setup(order, corpus, template)
    weights = np.random.default_rng(seed).normal(scale=0.5, size=total_parameters(index, space))
    packed = pack_batch(compiled, index, space)
    value, grad = log_likelihood_and_gradient(packed, weights, index, space)
    list_value, list_grad = log_likelihood_and_gradient(list(compiled), weights, index, space)
    again_value, again_grad = log_likelihood_and_gradient(packed, weights, index, space)
    assert value == list_value == again_value
    assert np.array_equal(grad, list_grad) and np.array_equal(grad, again_grad)

    expected_value, expected = _reference_objective(corpus, template, weights, index, space)
    assert value == pytest.approx(expected_value, rel=1e-10)
    assert np.allclose(grad, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())


@settings(max_examples=80, deadline=None)
@given(
    order=st.sampled_from(list(ModelOrder)),
    set_id=st.sampled_from([1, 2]),
    min_count=st.integers(0, 3),
    without_bias=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    lengths=st.lists(st.integers(1, 6), min_size=1, max_size=8),
)
@example(ModelOrder.SECOND, 2, 2, True, 0, [1, 3, 1, 2])
def test_compile_corpus_matches_the_position_loop(
    order, set_id, min_count, without_bias, seed, lengths
):
    """compile_corpus against oracles.compile_corpus_loop, which encodes
    one array per position and concatenates them: the same incidence
    matrix, observed counts, widths, block starts and gold paths. The index
    counts the first half of the corpus with a cutoff, and without_bias
    drops BIAS from it, so the corpus has features the index lacks and
    positions with no known feature."""
    corpus = _corpus_of_lengths(seed, lengths)
    template = TemplateConfig(set_id=set_id, min_feature_count=min_count)
    counted = counted_features(corpus[: (len(corpus) + 1) // 2], template)
    features = [f for f in counted if not (without_bias and f == BIAS_FEATURE)]
    if not features:
        return
    index = make_feature_index(features, template, ALPHA2, order)
    space = state_space(order, ALPHA2)
    packed = compile_corpus(corpus, template, index, space)
    expected = compile_corpus_loop(corpus, template, index, space)
    assert packed.incidence.shape == expected.incidence.shape
    for name in ("indices", "indptr", "data"):
        got, want = getattr(packed.incidence, name), getattr(expected.incidence, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(packed.observed, expected.observed)
    assert np.array_equal(packed.widths, expected.widths)
    for cs, reference in zip(packed, expected, strict=True):
        assert [s.tolist() for s in cs.feature_starts] == [
            s.tolist() for s in reference.feature_starts
        ]
        assert all(s.dtype == np.int64 for s in cs.feature_starts)
        assert np.array_equal(cs.gold, reference.gold)


@pytest.mark.parametrize("order", list(ModelOrder))
def test_compiled_sentences_count_tokens_and_known_features(order):
    """The two counts a tracer reads from each compiled sentence:
    len(feature_starts) is its token count, and the sizes of its items sum
    to its number of feature strings the index knows. They stand for the
    lattice cells of an objective call and the active features per token."""
    corpus = random_corpus(random.Random(5), ["A", "B"], 12)
    template = TemplateConfig(set_id=2, min_feature_count=2)
    index = build_feature_index(corpus[:6], template, ALPHA2, order)
    packed = compile_corpus(corpus, template, index, state_space(order, ALPHA2))
    unknown = 0
    for sentence, cs in zip(corpus, packed, strict=True):
        strings = [f for active in extract_features(sentence, template) for f in active]
        known = sum(f in index.feature_ids for f in strings)
        unknown += len(strings) - known
        assert len(cs.feature_starts) == len(sentence)
        assert sum(s.size for s in cs.feature_starts) == known
    assert unknown > 0


@pytest.mark.parametrize("order", list(ModelOrder))
@pytest.mark.parametrize("set_id", [1, 2])
def test_training_and_decode_score_every_token_the_same(order, set_id):
    """The observation scores the objective runs its kernel on are
    build_lattice's, row for row: both lay the batch out with
    _packed_layout, longest sentence first (ties in corpus order), row
    block t holding position t of the sentences longer than t."""
    lengths = [3, 1, 5, 3, 2, 5, 4, 1]
    corpus = _corpus_of_lengths(3, lengths)
    template = TemplateConfig(set_id=set_id)
    space, index, compiled = _training_setup(order, corpus, template)
    weights = np.random.default_rng(3).normal(size=total_parameters(index, space))
    seen = []
    kernel = crf._forward_backward

    def spy(obs, widths, start, trans):
        seen.append(obs.copy())
        return kernel(obs, widths, start, trans)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crf, "_forward_backward", spy)
        log_likelihood_and_gradient(compiled, weights, index, space)
    [obs] = seen

    ids = feature_id_matrix(corpus, index)
    assert np.array_equal(obs, build_lattice(ids, lengths, weights, index, space)[0].obs.T)


def _batch_with_one_bad_sentence(order, bad_length, where):
    """Five sentences of lengths 2-6, and one more of bad_length at index
    where whose tokens no other sentence has. Returns the corpus, the
    setup and the bad sentence's first two W[0] feature ids."""
    corpus = _corpus_of_lengths(11, [2, 4, 6, 3, 5])
    bad = Sentence.from_strings(
        ["zq%d" % t for t in range(bad_length)], ["O"] * bad_length
    )
    corpus.insert(where, bad)
    space, index, compiled = _training_setup(order, corpus, TemplateConfig(set_id=1))
    first_ids = [index.feature_id("W[0]=zq%d" % t) for t in range(min(bad_length, 2))]
    return corpus, space, index, compiled, first_ids


@pytest.mark.parametrize("order", list(ModelOrder))
@pytest.mark.parametrize("bad_length", [1, 3, 6, 7])
@pytest.mark.parametrize("where", [0, 3, 5])
def test_one_out_of_range_sentence_raises_wherever_it_sorts(order, bad_length, where):
    """sigma = 800 observation weights on one sentence's own words make its
    lattice inexact; the batch raises, whatever its place in the layout."""
    _, space, index, compiled, (fid, *_) = _batch_with_one_bad_sentence(
        order, bad_length, where
    )
    weights = np.random.default_rng(5).normal(scale=0.1, size=total_parameters(index, space))
    block = index.block_start(fid)
    weights[block : block + index.block_size] = np.random.default_rng(6).normal(
        scale=800.0, size=index.block_size
    )
    with pytest.raises(CrfError, match="finite spread"):
        log_likelihood_and_gradient(compiled, weights, index, space)
    weights[block : block + index.block_size] = 0.0
    value, _ = log_likelihood_and_gradient(compiled, weights, index, space)
    assert np.isfinite(value)


@pytest.mark.parametrize("order", list(ModelOrder))
@pytest.mark.parametrize("bad_length", [2, 3, 6, 7])
@pytest.mark.parametrize("where", [0, 3, 5])
def test_one_infeasible_sentence_raises_wherever_it_sorts(order, bad_length, where):
    """One sentence's own words allow only label B-A at its first position
    and I-B at its second, and the move between them is forbidden: that
    sentence alone has no path, and the batch raises."""
    corpus, space, index, compiled, (first, second) = _batch_with_one_bad_sentence(
        order, bad_length, where
    )
    weights = np.random.default_rng(5).normal(scale=0.1, size=total_parameters(index, space))
    labels = list(index.obs_labels)
    only = {first: labels.index("B-A"), second: labels.index("I-B")}
    for fid, keep in only.items():
        block = index.block_start(fid)
        weights[block : block + index.n_fine] = NEG_INF
        weights[block + keep] = 0.0
    into = space.obs_state_of[:, None] == only[second]
    from_ = space.obs_state_of[:, None] == only[first]
    move = (from_ & into.T) & (space.move_slot[:-1] >= 0)
    weights[index.n_parameters + space.move_slot[:-1][move]] = NEG_INF
    for i, sentence in enumerate(corpus):
        lattice = _lattice(extract_features(sentence, TemplateConfig(set_id=1)), weights, index, space)
        if i == where:
            with pytest.raises(InfeasibleLatticeError):
                forward_backward(lattice)
        else:
            assert np.isfinite(forward_backward(lattice).log_z)
    with pytest.raises(InfeasibleLatticeError):
        log_likelihood_and_gradient(compiled, weights, index, space)


def _tie_broken_viterbi(lattice):
    """Among the best paths, the one Viterbi's rule picks: the lowest final
    state, then at each step back the lowest predecessor, so the path that
    is smallest read from the end. Exact only for exactly summed potentials."""
    paths = all_paths(lattice.n_positions, lattice.n_states)
    scores = path_scores(lattice, paths)
    best = [list(p) for p, v in zip(paths, scores) if v == scores.max()]
    return min(best, key=lambda p: p[::-1]), float(scores.max())


def _packed(singles):
    """The packed lattice of one-sentence lattices sharing start and trans,
    with its block widths and row order, and each sentence's rank (its
    place in block 0, which orders viterbi's scores)."""
    lengths = np.array([lattice.n_positions for lattice in singles])
    widths, order = crf._packed_layout(lengths)
    obs = np.concatenate([lattice.obs for lattice in singles])[order]
    firsts = (np.cumsum(lengths) - lengths).tolist()
    rank = [order[: widths[0]].tolist().index(first) for first in firsts]
    shared = singles[0]
    return Lattice(obs, shared.trans, shared.start, shared.move_block), widths, order, rank


PAIRS = state_space(ModelOrder.SECOND, build_expanded_alphabet(["A"]))


def _allowed_moves(moves, n_states):
    """The start (S,) and transition (S, S) masks of the allowed moves and
    the move block of a test lattice: any move over n_states states
    ("dense"), the pre-induced decode masks of one type ("constrained"),
    or the second-order pairs of one type ("pairs", with its block)."""
    if moves == "pairs":
        allowed, block = PAIRS.move_slot >= 0, PAIRS.move_block
    elif moves == "constrained":
        allowed, block = preinduced_constraint_masks(build_expanded_alphabet(["A"])), None
    else:
        allowed, block = np.ones((n_states + 1, n_states), bool), None
    return allowed[-1], allowed[:-1], block


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_states=st.integers(1, 4),
    integer=st.booleans(),
    forbid=st.sampled_from([0.0, 0.3]),
    moves=st.sampled_from(["dense", "constrained", "pairs"]),
    one_per_slice=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_viterbi_matches_single_lattices_and_brute_force(
    lengths, n_states, integer, forbid, moves, one_per_slice, seed
):
    """viterbi over a packed batch of mixed lengths gives each sentence the
    path and score of its own lattice and of the exhaustive search.
    Integer potentials force ties, which break toward the lower state
    index; -inf entries come from random forbidden moves, from the
    pre-induced decode masks and from the moves the second-order pairs
    never make. Pair lattices decode through their (n + 1, n, n) move
    block, and exactly as through the dense (S, S) table. one_per_slice
    runs every step one column at a time."""
    rng = np.random.default_rng(seed)
    start_ok, trans_ok, block = _allowed_moves(moves, n_states)
    n_states = start_ok.size

    def draw(shape):
        values = rng.integers(-2, 3, size=shape) if integer else rng.normal(size=shape)
        return np.where(rng.random(shape) < forbid, NEG_INF, values.astype(float))

    trans = np.where(trans_ok, draw((n_states, n_states)), NEG_INF)
    start = np.where(start_ok, draw(n_states), NEG_INF)
    singles = [Lattice(draw((n_pos, n_states)), trans, start, block) for n_pos in lengths]
    packed, widths, order, rank = _packed(singles)
    brute = [brute_viterbi(lattice) for lattice in singles]
    with pytest.MonkeyPatch.context() as patch:
        if one_per_slice:
            patch.setattr(crf, "_VITERBI_BUDGET", 1)
        if any(score == NEG_INF for _, score, _ in brute):
            with pytest.raises(InfeasibleLatticeError):
                viterbi(packed, widths)
            return
        rows, scores = viterbi(packed, widths)
    assert rows.shape == (sum(lengths),) and scores.shape == (len(lengths),)
    states = np.empty_like(rows)
    states[order] = rows
    ends = np.cumsum(lengths).tolist()
    for b, lattice in enumerate(singles):
        path, score = viterbi(lattice)
        assert states[ends[b] - lengths[b] : ends[b]].tolist() == path
        assert scores[rank[b]] == score
        if block is not None:
            dense = Lattice(lattice.obs, lattice.trans, lattice.start)
            assert viterbi(dense) == (path, score)
        b_path, b_score, unique = brute[b]
        assert score == pytest.approx(b_score, abs=1e-9)
        if integer:
            assert (path, score) == _tie_broken_viterbi(lattice)
        elif unique:
            assert path == b_path


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    n_states=st.integers(1, 4),
    moves=st.sampled_from(["dense", "pairs"]),
    bad=st.sampled_from([np.nan, np.inf]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_batched_viterbi_raises_on_nan(lengths, n_states, moves, bad, seed, data):
    """One NaN or +inf observation potential anywhere in a packed batch
    raises, also where no move leads (a start pair after position 0) and
    where no path can be (a pair the start cannot enter): the max-only
    forward pass carries it to some sentence's best score."""
    rng = np.random.default_rng(seed)
    start_ok, trans_ok, block = _allowed_moves(moves, n_states)
    n_states = start_ok.size
    trans = np.where(trans_ok, rng.normal(size=trans_ok.shape), NEG_INF)
    start = np.where(start_ok, rng.normal(size=n_states), NEG_INF)
    singles = [
        Lattice(rng.normal(size=(n_pos, n_states)), trans, start, block) for n_pos in lengths
    ]
    packed, widths, _, _ = _packed(singles)
    where = tuple(data.draw(st.integers(0, n - 1)) for n in packed.obs.shape)
    packed.obs[where] = bad
    with pytest.raises(CrfError, match="NaN or \\+inf"):
        viterbi(packed, widths)


class TestScratchArena:
    """log_likelihood_and_gradient and _forward_backward write their (S, N)
    tables into one arena per thread, shared by every batch and order; no
    result a caller holds may change with a later call."""

    @staticmethod
    def problems(lengths, seed=0):
        """Each order's packed batch of one corpus, with seeded weights."""
        corpus = _corpus_of_lengths(seed, lengths)
        out = {}
        for i, order in enumerate(ModelOrder):
            space, index, compiled = _training_setup(order, corpus)
            weights = np.random.default_rng([seed, i]).normal(
                0.0, 0.3, total_parameters(index, space)
            )
            out[order] = (pack_batch(compiled, index, space), weights, index, space)
        return out

    def test_results_survive_calls_of_other_orders(self):
        problems = self.problems([5, 3, 7, 2, 6] * 4)
        value, grad = log_likelihood_and_gradient(*problems[ModelOrder.FIRST], 10.0)
        lattice = random_lattice(4, 3, np.random.default_rng(1))
        marginals = forward_backward(lattice)
        kept = grad.copy(), marginals.node_marginals.copy(), marginals.edge_marginals.copy()
        for order in (ModelOrder.PRE_INDUCED, ModelOrder.SECOND):
            log_likelihood_and_gradient(*problems[order], 10.0)
        assert np.array_equal(grad, kept[0])
        assert np.array_equal(marginals.node_marginals, kept[1])
        assert np.array_equal(marginals.edge_marginals, kept[2])
        again = log_likelihood_and_gradient(*problems[ModelOrder.FIRST], 10.0)
        assert again[0] == value and np.array_equal(again[1], kept[0])

    def test_threads_running_different_orders_match_sequential_results(self):
        problems = self.problems([5, 3, 7, 2, 6] * 4)
        expected = {order: log_likelihood_and_gradient(*p, 10.0) for order, p in problems.items()}
        # more threads than cores, switching often
        orders = list(ModelOrder) * 2
        results = [[] for _ in orders]

        def calls(order, out):
            for _ in range(20):
                out.append(log_likelihood_and_gradient(*problems[order], 10.0))

        threads = [threading.Thread(target=calls, args=job) for job in zip(orders, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for order, out in zip(orders, results):
            value, grad = expected[order]
            assert len(out) == 20
            assert all(v == value and np.array_equal(g, grad) for v, g in out)

    @pytest.mark.skipif(
        resource is None or not sys.platform.startswith("linux"),
        reason="counts minor page faults with getrusage on Linux",
    )
    def test_objective_calls_reuse_their_pages(self):
        """Five pre-induced calls on the criterion-6 batch after a warm-up
        fault in under a tenth of the pages that fresh arrays per call did:
        2,181 per call, 10,905 in all. The calls run in a fresh process, as
        the benchmark's do, because what earlier tests allocated and freed
        decides how the allocator maps fresh arrays."""
        assert _probe_faults() < 1090

    @pytest.mark.skipif(
        resource is None or platform.libc_ver()[0] != "glibc",
        reason="counts minor page faults with getrusage and sets glibc's malloc options",
    )
    def test_objective_calls_map_no_table_anew_when_the_heap_is_trimmed(self):
        """The same five calls with glibc set to give every freed block back
        to the kernel, as it did in some benchmark processes and not in
        others, depending on what they had freed before: a table allocated
        on every call, such as a gather of the observation sums, was then
        mapped anew each time, 434 pages per call here. Together the five
        calls now fault fewer pages than one (S, N) table has (438)."""
        assert _probe_faults(_TRIMMING_MALLOC) < 16 * 14030 * 8 // 4096


def _probe_faults(preamble=""):
    """Minor page faults of _FAULT_PROBE's five calls, run in a fresh
    process after preamble."""
    src = str(Path(crf.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", preamble + _FAULT_PROBE],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return int(done.stdout)


# glibc's malloc made to serve every block from the heap (M_MMAP_THRESHOLD,
# -3) and to trim the heap whenever 128 KB lie free at its top
# (M_TRIM_THRESHOLD, -1)
_TRIMMING_MALLOC = """
import ctypes

libc = ctypes.CDLL(None)
assert libc.mallopt(-3, 1 << 25) == 1 and libc.mallopt(-1, 1 << 17) == 1
"""

_FAULT_PROBE = """
import resource

import numpy as np

from picrf.corpus import SynthConfig, generate_synthetic
from picrf.crf import log_likelihood_and_gradient, state_space, total_parameters
from picrf.crf_types import ModelOrder
from picrf.features import TemplateConfig, build_feature_index
from picrf.induction import build_expanded_alphabet
from picrf.training import compile_corpus

synth = SynthConfig(entity_type_count=5, sentences=2000, seed=6)
corpus = generate_synthetic(synth)
template = TemplateConfig(set_id=1)
alphabet = build_expanded_alphabet(synth.entity_types)
space = state_space(ModelOrder.PRE_INDUCED, alphabet)
index = build_feature_index(corpus, template, alphabet, space.order)
batch = compile_corpus(corpus, template, index, space)
weights = np.random.default_rng([6, 1]).normal(0.0, 0.1, total_parameters(index, space))
log_likelihood_and_gradient(batch, weights, index, space, 10.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    log_likelihood_and_gradient(batch, weights, index, space, 10.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
