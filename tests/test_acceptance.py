"""End-to-end acceptance gate.

Each test covers one release criterion, prints a single PASS/FAIL line on
the real stdout (visible regardless of capture settings), and enforces its
own wall-clock budget. The final test is an optional reproduction on a
user-supplied corpus and skips itself unless both environment variables
point at real files.
"""

import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import (
    brute_log_z,
    brute_viterbi,
    expected_induced,
    random_corpus,
    random_iob2,
    random_lattice,
    random_word,
)
from picrf.corpus import Sentence, SynthConfig, generate_synthetic, read_conll
from picrf.crf import (
    compile_sentence,
    forward_backward,
    log_likelihood_and_gradient,
    state_space,
    total_parameters,
    viterbi,
)
from picrf.crf_types import ModelOrder
from picrf.evaluation import run_longdistance, score
from picrf.features import TemplateConfig, build_feature_index, extract_features
from picrf.induction import (
    build_expanded_alphabet,
    count_new_states,
    induce,
    revert,
    state_count_report,
)
from picrf.model_io import load_model, save_model
from picrf.training import TrainConfig, measure_iteration_cost, train


def _report(capsys, number, name, status, elapsed):
    line = "[criterion %d] %s: %s (%.2fs)" % (number, name, status, elapsed)
    with capsys.disabled():
        print(line, flush=True)


@contextmanager
def criterion(capsys, number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _report(capsys, number, name, "FAIL", time.perf_counter() - start)
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_seconds:
        _report(capsys, number, name, "FAIL", elapsed)
        raise AssertionError(
            "criterion %d finished correct but overran its %.0fs budget (%.2fs)"
            % (number, budget_seconds, elapsed)
        )
    _report(capsys, number, name, "PASS", elapsed)


def test_criterion_1_partition_function_oracle(capsys):
    with criterion(capsys, 1, "partition function oracle", 30.0):
        rng = np.random.default_rng(1001)
        for n_positions in range(1, 7):
            for n_states in range(2, 6):
                for _ in range(100):
                    lattice = random_lattice(n_positions, n_states, rng)
                    got = forward_backward(lattice).log_z
                    want = brute_log_z(lattice)
                    assert abs(got - want) <= 1e-8


def test_criterion_2_viterbi_oracle(capsys):
    with criterion(capsys, 2, "viterbi oracle", 30.0):
        rng = np.random.default_rng(2002)
        for n_positions in range(1, 7):
            for n_states in range(2, 6):
                for _ in range(100):
                    lattice = random_lattice(n_positions, n_states, rng)
                    path, path_score = viterbi(lattice)
                    best_path, best_score, unique = brute_viterbi(lattice)
                    assert abs(path_score - best_score) <= 1e-9
                    if unique:
                        assert path == best_path


def test_criterion_3_gradient_check(capsys):
    with criterion(capsys, 3, "finite-difference gradient check", 60.0):
        corpus = random_corpus(random.Random(33), ["A", "B", "C"], 5, min_len=2, max_len=7)
        alphabet = build_expanded_alphabet(["A", "B", "C"])
        template = TemplateConfig(set_id=2)
        h = 1e-5
        for order in ModelOrder:
            space = state_space(order, alphabet)
            index = build_feature_index(corpus, template, alphabet, order)
            compiled = [
                compile_sentence(extract_features(s, template), list(s.labels), index, space)
                for s in corpus
            ]
            n = total_parameters(index, space)
            rng = np.random.default_rng(34)
            weights = rng.normal(scale=0.2, size=n)
            _, grad = log_likelihood_and_gradient(
                compiled, weights, index, space, l2_variance=10.0
            )
            slots = rng.choice(n, size=60, replace=False)
            for slot in slots:
                plus, minus = weights.copy(), weights.copy()
                plus[slot] += h
                minus[slot] -= h
                vp, _ = log_likelihood_and_gradient(
                    compiled, plus, index, space, l2_variance=10.0
                )
                vm, _ = log_likelihood_and_gradient(
                    compiled, minus, index, space, l2_variance=10.0
                )
                fd = (vp - vm) / (2 * h)
                rel = abs(fd - grad[slot]) / max(1.0, abs(grad[slot]))
                assert rel <= 1e-4, "order %s slot %d: rel error %.3g" % (order, slot, rel)


def test_criterion_4_induction_round_trip(capsys):
    with criterion(capsys, 4, "carrier transform round trip", 10.0):
        types = ["A", "B", "C", "D", "E"]
        alphabet = build_expanded_alphabet(types)
        rng = random.Random(44)
        for _ in range(10_000):
            length = rng.randint(0, 40)
            labels = random_iob2(rng, types, length)
            induced = induce(labels, alphabet)
            assert revert(induced, alphabet) == labels
            assert induced == expected_induced(labels)
            # soundness: every carrier names the nearest preceding entity type,
            # and no plain O survives once an entity has been seen
            memory = None
            for got, original in zip(induced, labels):
                if original != "O":
                    memory = original[2:]
                    assert got == original
                elif memory is None:
                    assert got == "O"
                else:
                    assert got == memory + "[O]"


def test_criterion_5_long_distance_recovery(capsys):
    with criterion(capsys, 5, "long-distance dependency recovery", 300.0):
        synth = SynthConfig(
            entity_type_count=2, sentences=1, seed=0, gap_lengths=(2, 3, 4, 5, 6)
        )
        report = run_longdistance(
            synth,
            train_size=2000,
            test_size=500,
            orders=(ModelOrder.FIRST, ModelOrder.PRE_INDUCED),
            base_config=TrainConfig(template=TemplateConfig(set_id=1)),
        )
        first = report.cell(ModelOrder.FIRST)
        pre = report.cell(ModelOrder.PRE_INDUCED)
        assert first.second_entity_accuracy <= 0.60, (
            "first-order should sit near chance, got %.4f" % first.second_entity_accuracy
        )
        assert pre.second_entity_accuracy >= 0.95, (
            "carrier states should recover the dependency, got %.4f"
            % pre.second_entity_accuracy
        )
        assert pre.score.f1 - first.score.f1 >= 0.15, "F1 gap %.4f too small" % (
            pre.score.f1 - first.score.f1
        )


def test_criterion_6_timing_ordering(capsys):
    with criterion(capsys, 6, "per-iteration cost ordering", 900.0):
        synth = SynthConfig(entity_type_count=5, sentences=2000, seed=6)
        corpus = generate_synthetic(synth)
        orders = (ModelOrder.FIRST, ModelOrder.PRE_INDUCED, ModelOrder.SECOND)
        configs = [TrainConfig(template=TemplateConfig(set_id=1), model_order=o) for o in orders]
        report = measure_iteration_cost(corpus, configs, measured=10, warmup=2)
        first = report.mean(ModelOrder.FIRST)
        pre = report.mean(ModelOrder.PRE_INDUCED)
        second = report.mean(ModelOrder.SECOND)
        assert first < pre < second, "expected first < pre-induced < second, got %s" % (
            {"first": first, "pre-induced": pre, "second": second},
        )
        assert pre / first <= 3.0, "pre-induced/first ratio %.2f above 3.0" % (pre / first)
        assert second / pre >= 2.0, "second/pre-induced ratio %.2f below 2.0" % (second / pre)


def test_criterion_7_state_counts(capsys):
    with criterion(capsys, 7, "state-count formulas", 30.0):
        for n_types in range(1, 6):
            types = [chr(ord("A") + i) for i in range(n_types)]
            alphabet = build_expanded_alphabet(types)
            first = state_space(ModelOrder.FIRST, alphabet)
            pre = state_space(ModelOrder.PRE_INDUCED, alphabet)
            second = state_space(ModelOrder.SECOND, alphabet)
            base = 2 * n_types + 1
            assert first.effective_states == base
            assert pre.effective_states == 3 * n_types + 1
            assert second.effective_states == base * base
            assert count_new_states(n_types) == n_types
            counts = state_count_report(n_types)
            assert counts.new_states == n_types
            assert counts.with_plain_outside == n_types + 1 == (base - 1) // 2 + 1


def test_criterion_8_scorer_fixtures(capsys):
    with criterion(capsys, 8, "hand-computed scorer fixtures", 30.0):
        perfect_gold = [Sentence.from_strings(["a", "b", "c"], ["B-A", "I-A", "O"])]
        report = score(perfect_gold, [["B-A", "I-A", "O"]])
        assert report.precision == 1.0 and report.recall == 1.0 and report.f1 == 1.0

        boundary_gold = [Sentence.from_strings(["a", "b"], ["B-A", "I-A"])]
        report = score(boundary_gold, [["B-A", "O"]])
        assert report.precision == 0.0 and report.recall == 0.0 and report.f1 == 0.0

        mixed_gold = [
            Sentence.from_strings(
                ["a", "b", "c", "d", "e", "f", "g"],
                ["B-A", "O", "B-A", "O", "O", "O", "O"],
            )
        ]
        predicted = [["B-A", "O", "B-A", "I-A", "O", "B-A", "B-A"]]
        report = score(mixed_gold, predicted)
        assert report.overall.gold == 2 and report.overall.predicted == 4
        assert report.precision == pytest.approx(0.25)
        assert report.recall == pytest.approx(0.5)
        assert report.f1 == pytest.approx(1.0 / 3.0)

        for gold in (perfect_gold, boundary_gold, mixed_gold):
            self_report = score(gold, [list(s.labels) for s in gold])
            assert self_report.f1 == 1.0


def test_criterion_9_persistence_round_trip(capsys, tmp_path):
    with criterion(capsys, 9, "model persistence round trip", 30.0):
        rng = random.Random(99)
        corpus = random_corpus(rng, ["A", "B", "C"], 15, min_len=2, max_len=7)
        seen_words = [t for s in corpus for t in s.texts]
        probes = []
        for _ in range(100):
            n = rng.randint(1, 8)
            texts = [
                rng.choice(seen_words) if rng.random() < 0.5 else random_word(rng)
                for _ in range(n)
            ]
            probes.append(Sentence.from_strings(texts))
        for order in ModelOrder:
            config = TrainConfig(
                model_order=order, template=TemplateConfig(set_id=2), max_iterations=25
            )
            model, _ = train(corpus, config)
            path = tmp_path / ("model-%s.txt" % order)
            save_model(model, path)
            loaded = load_model(path)
            for sentence in probes:
                assert loaded.decode(sentence) == model.decode(sentence)


_JNLPBA_TRAIN = os.environ.get("PICRF_JNLPBA_TRAIN", "")
_JNLPBA_TEST = os.environ.get("PICRF_JNLPBA_TEST", "")


@pytest.mark.skipif(
    not (os.path.isfile(_JNLPBA_TRAIN) and os.path.isfile(_JNLPBA_TEST)),
    reason="optional corpus reproduction; set PICRF_JNLPBA_TRAIN and PICRF_JNLPBA_TEST",
)
def test_criterion_10_external_corpus_reference(capsys):
    with criterion(capsys, 10, "external corpus reference run", 24 * 3600.0):
        with open(_JNLPBA_TRAIN, encoding="utf-8") as handle:
            train_corpus = read_conll(handle)
        with open(_JNLPBA_TEST, encoding="utf-8") as handle:
            test_corpus = read_conll(handle)
        results = {}
        for order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED):
            config = TrainConfig(
                model_order=order,
                template=TemplateConfig(set_id=2, min_feature_count=2),
            )
            model, _ = train(train_corpus, config)
            predicted = [model.decode(s) for s in test_corpus]
            results[order] = 100.0 * score(test_corpus, predicted).f1
        assert abs(results[ModelOrder.FIRST] - 68.39) <= 3.0
        assert results[ModelOrder.PRE_INDUCED] >= results[ModelOrder.FIRST] - 0.5
