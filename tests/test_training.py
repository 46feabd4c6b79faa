import json

import numpy as np
import pytest

from picrf.corpus import LabelError, Sentence, SynthConfig, generate_synthetic
from picrf.crf_types import ModelOrder
from picrf.features import TemplateConfig
from picrf.induction import build_expanded_alphabet
from picrf.training import (
    TimingReport,
    TrainConfig,
    TrainingError,
    TrainReport,
    compile_corpus,
    measure_iteration_cost,
    train,
)


def tiny_corpus():
    rows = [
        (["john", "runs", "fast"], ["B-PER", "O", "O"]),
        (["mary", "walks", "home"], ["B-PER", "O", "O"]),
        (["acme", "corp", "hired", "john"], ["B-ORG", "I-ORG", "O", "B-PER"]),
        (["the", "firm", "acme", "corp", "grew"], ["O", "O", "B-ORG", "I-ORG", "O"]),
        (["mary", "joined", "acme", "corp"], ["B-PER", "O", "B-ORG", "I-ORG"]),
        (["nobody", "was", "there"], ["O", "O", "O"]),
    ]
    return [Sentence.from_strings(t, l) for t, l in rows]


class TestTrainConfig:
    def test_defaults(self):
        config = TrainConfig()
        assert config.model_order is ModelOrder.FIRST
        assert config.template == TemplateConfig()
        assert config.l2_variance == 10.0

    def test_order_coerced_from_string(self):
        assert TrainConfig(model_order="pre-induced").model_order is ModelOrder.PRE_INDUCED

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"l2_variance": 0.0},
            {"l2_variance": -1.0},
            {"max_iterations": 0},
            {"relative_tolerance": 0.0},
            {"relative_tolerance": -1e-9},
            {"history_size": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(TrainingError):
            TrainConfig(**kwargs)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(model_order="third")


class TestCompileCorpus:
    @staticmethod
    def _index_and_space(corpus):
        from picrf.crf import state_space
        from picrf.features import build_feature_index

        alpha = build_expanded_alphabet(["PER"])
        template = TemplateConfig(set_id=1)
        space = state_space(ModelOrder.FIRST, alpha)
        index = build_feature_index(corpus, template, alpha, ModelOrder.FIRST)
        return template, index, space

    def test_repairs_invalid_gold(self):
        corpus = [Sentence.from_strings(["a", "b"], ["O", "I-PER"])]
        template, index, space = self._index_and_space(corpus)
        compiled = compile_corpus(corpus, template, index, space)
        assert len(compiled) == 1
        # repaired to [O, B-PER]
        o_state = space.state_names.index("O")
        b_state = space.state_names.index("B-PER")
        assert compiled[0].gold.tolist() == [o_state, b_state]

    def test_unlabeled_sentence_rejected(self):
        labeled = [Sentence.from_strings(["a"], ["B-PER"])]
        template, index, space = self._index_and_space(labeled)
        with pytest.raises(TrainingError):
            compile_corpus([Sentence.from_strings(["a"])], template, index, space)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            train([], TrainConfig())


class TestTrain:
    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_fits_training_set(self, order):
        corpus = tiny_corpus()
        config = TrainConfig(model_order=order, max_iterations=200)
        model, report = train(corpus, config)
        for sentence in corpus:
            assert model.decode(sentence) == list(sentence.labels)
        assert report.termination in {"tolerance", "gradient", "max_iterations"}
        assert report.order is order
        assert report.n_parameters == model.weights.size

    def test_report_trace_shape(self):
        model, report = train(tiny_corpus(), TrainConfig(max_iterations=40))
        assert report.n_iterations >= 1
        numbers = [r.iteration for r in report.iterations]
        assert numbers == list(range(1, len(numbers) + 1))
        assert all(np.isfinite(r.objective) for r in report.iterations)
        assert all(r.seconds >= 0.0 for r in report.iterations)
        assert all(r.gradient_max >= 0.0 for r in report.iterations)
        # the optimizer maximizes penalized log-likelihood, so the trace climbs
        assert report.iterations[-1].objective >= report.iterations[0].objective
        assert report.final_objective == pytest.approx(report.iterations[-1].objective)
        assert report.mean_seconds_per_iteration > 0.0

    def test_max_iterations_termination(self):
        _, report = train(tiny_corpus(), TrainConfig(max_iterations=2))
        assert report.termination == "max_iterations"
        assert report.n_iterations <= 2

    def test_deterministic(self):
        config = TrainConfig(max_iterations=30)
        model_a, _ = train(tiny_corpus(), config)
        model_b, _ = train(tiny_corpus(), config)
        assert np.array_equal(model_a.weights, model_b.weights)

    def test_explicit_alphabet_adds_types(self):
        corpus = tiny_corpus()
        alpha = build_expanded_alphabet(["LOC", "ORG", "PER"])
        model, _ = train(corpus, TrainConfig(max_iterations=20), alphabet=alpha)
        assert model.alphabet.entity_types == ("LOC", "ORG", "PER")

    def test_stronger_regularization_shrinks_weights(self):
        corpus = tiny_corpus()
        loose, _ = train(corpus, TrainConfig(max_iterations=80, l2_variance=100.0))
        tight, _ = train(corpus, TrainConfig(max_iterations=80, l2_variance=0.01))
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_report_serializations(self):
        _, report = train(tiny_corpus(), TrainConfig(max_iterations=10))
        lines = report.to_jsonl().strip().split("\n")
        rows = [json.loads(line) for line in lines]
        assert len(rows) == report.n_iterations + 1
        assert rows[-1]["termination"] == report.termination
        assert rows[0]["iteration"] == 1
        text = report.to_text()
        assert "stopped: %s" % report.termination in text
        assert str(report.n_parameters) in report.summary()


class TestTimings:
    def make_corpus(self):
        return generate_synthetic(SynthConfig(entity_type_count=2, sentences=60, seed=4))

    def test_measures_each_order(self):
        corpus = self.make_corpus()
        base = TrainConfig(max_iterations=50, template=TemplateConfig(set_id=1))
        configs = [
            TrainConfig(model_order=order, max_iterations=50, template=TemplateConfig(set_id=1))
            for order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED)
        ]
        report = measure_iteration_cost(corpus, configs, measured=3, warmup=1)
        assert isinstance(report, TimingReport)
        assert [row.order for row in report.rows] == [ModelOrder.FIRST, ModelOrder.PRE_INDUCED]
        for row in report.rows:
            assert row.measured_iterations >= 3
            assert row.mean_seconds > 0.0
            assert len(row.seconds) == row.measured_iterations
        assert "first/pre-induced" in report.ratios
        assert report.ratios["first/pre-induced"] == pytest.approx(
            1.0 / report.ratios["pre-induced/first"]
        )
        assert "s/iteration" in report.to_text()
        del base

    def test_carrier_label_rejected_like_train(self):
        corpus = tiny_corpus() + [Sentence.from_strings(["x", "y"], ["B-PER", "PER[O]"])]
        configs = [TrainConfig(model_order=o) for o in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED)]
        message = r"not an IOB2 label: 'PER\[O\]'"
        with pytest.raises(LabelError, match=message):
            train(corpus, configs[0])
        with pytest.raises(LabelError, match=message):
            measure_iteration_cost(corpus, configs, measured=3)

    def test_requires_two_configs(self):
        with pytest.raises(TrainingError):
            measure_iteration_cost(self.make_corpus(), [TrainConfig()], measured=3)

    def test_rejects_duplicate_orders(self):
        configs = [TrainConfig(), TrainConfig()]
        with pytest.raises(TrainingError):
            measure_iteration_cost(self.make_corpus(), configs, measured=3)

    def test_rejects_mismatched_configs(self):
        configs = [
            TrainConfig(model_order=ModelOrder.FIRST, l2_variance=1.0),
            TrainConfig(model_order=ModelOrder.SECOND, l2_variance=2.0),
        ]
        with pytest.raises(TrainingError):
            measure_iteration_cost(self.make_corpus(), configs, measured=3)

    def test_rejects_tiny_sample(self):
        configs = [
            TrainConfig(model_order=ModelOrder.FIRST),
            TrainConfig(model_order=ModelOrder.PRE_INDUCED),
        ]
        with pytest.raises(TrainingError):
            measure_iteration_cost(self.make_corpus(), configs, measured=2)
