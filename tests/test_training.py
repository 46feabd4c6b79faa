import json
import re
import time
from collections import deque
from dataclasses import replace

import numpy as np
import pytest

import picrf.training
from oracles import deque_direction
from picrf import crf
from picrf.corpus import LabelError, Sentence, SynthConfig, generate_synthetic, rotation_rule
from picrf.crf_types import ModelOrder
from picrf.features import FeatureError, TemplateConfig
from picrf.induction import AlphabetError, build_expanded_alphabet, corpus_alphabet
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
            {"l2_variance": float("nan")},
            {"max_iterations": 2.5},
            {"relative_tolerance": float("nan")},
            {"max_iterations": True},
            {"l2_variance": "10"},
            {"relative_tolerance": "1e-6"},
            {"l2_variance": True},
            {"max_iterations": "500"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        (name,) = kwargs
        with pytest.raises(TrainingError, match="^%s must be " % name):
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
    def test_unlabeled_sentence_rejected(self):
        corpus = tiny_corpus() + [Sentence.from_strings(["a", "b"])]
        with pytest.raises(
            TrainingError, match="^training corpus contains an unlabeled sentence$"
        ):
            train(corpus, TrainConfig())

    def test_empty_sentence_rejected(self):
        """build_feature_index meets the empty sentence before any batch is
        compiled."""
        corpus = tiny_corpus() + [Sentence.from_strings([], [])]
        with pytest.raises(FeatureError, match="empty sentence"):
            train(corpus, TrainConfig())

    def test_empty_token_rejected(self):
        """A Sentence built directly with an empty token is refused before
        training, rather than giving a model that saves but does not load."""
        corpus = tiny_corpus() + [Sentence(("a", "", "b"), ("B-A", "O", "O"))]
        message = "^sentence %d: empty token at position 1$" % (len(corpus) - 1)
        with pytest.raises(FeatureError, match=message):
            train(corpus, TrainConfig())

    def test_corpus_without_entity_types_rejected(self):
        plain = [Sentence.from_strings(["a", "b"], ["O", "O"])]
        with pytest.raises(AlphabetError, match="^no entity types found in the corpus$"):
            train(plain, TrainConfig())

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
        for order in ModelOrder:
            config = TrainConfig(model_order=order, max_iterations=30)
            model_a, _ = train(tiny_corpus(), config)
            model_b, _ = train(tiny_corpus(), config)
            assert np.array_equal(model_a.weights, model_b.weights), order

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

    def test_report_counts_the_optimizers_objective_calls(self, monkeypatch):
        results = []
        minimize = picrf.training.minimize

        def recording(*args, **kwargs):
            results.append(minimize(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(picrf.training, "minimize", recording)
        _, report = train(tiny_corpus(), TrainConfig(max_iterations=10))
        [result] = results
        assert report.objective_calls == result.nfev
        per_iteration = [r.objective_calls for r in report.iterations]
        assert min(per_iteration) >= 1 and sum(per_iteration) <= result.nfev
        assert report.calls_per_iteration == result.nfev / report.n_iterations
        rows = [json.loads(line) for line in report.to_jsonl().strip().split("\n")]
        assert [row["objective_calls"] for row in rows[:-1]] == per_iteration
        assert set(rows[0]) == {"iteration", "objective", "gradient_max", "seconds", "objective_calls"}
        assert set(rows[-1]) == {
            "termination", "order", "feature_set", "n_parameters", "final_objective",
            "objective_calls", "calls_per_iteration",
        }
        assert rows[-1]["objective_calls"] == result.nfev
        calls = "%.2f" % report.calls_per_iteration
        assert "%d objective calls (%s per iteration)" % (result.nfev, calls) in report.to_text()
        assert "%s objective calls/iteration" % calls in report.summary()

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_evaluates_the_objective_only_for_the_optimizer(self, order, monkeypatch):
        """Each iteration record holds the value and gradient max of the
        last evaluation before it, and no evaluation is made beyond the
        ones the report counts."""
        evaluations = []
        objective = picrf.training.log_likelihood_and_gradient

        def counted(*args):
            value, grad = objective(*args)
            evaluations.append((value, float(np.max(np.abs(grad)))))
            return value, grad

        monkeypatch.setattr(picrf.training, "log_likelihood_and_gradient", counted)
        _, report = train(tiny_corpus(), TrainConfig(model_order=order, max_iterations=15))
        assert len(evaluations) == report.objective_calls
        ends = np.cumsum([r.objective_calls for r in report.iterations]) - 1
        assert [(r.objective, r.gradient_max) for r in report.iterations] == [
            evaluations[i] for i in ends
        ]


class TestCarrierWeights:
    """The paper's mechanism, read off the trained weights: under the
    rotation rule, the carrier t[O] moves most strongly into B-rule[t]."""

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_carrier_moves_into_the_rule_type(self, k):
        synth = SynthConfig(entity_type_count=k, sentences=300, seed=k)
        rule = rotation_rule(synth.entity_types)
        corpus = generate_synthetic(replace(synth, dependency_rule=rule))
        model, _ = train(corpus, TrainConfig(model_order=ModelOrder.PRE_INDUCED))
        space, index, names = model.space, model.index, model.space.state_names
        types = model.alphabet.entity_types
        for t in types:
            weights = {
                u: model.weights[
                    index.n_parameters
                    + space.move_slot[names.index("%s[O]" % t), names.index("B-" + u)]
                ]
                for u in types
            }
            best = max(weights, key=weights.get)
            runner_up = max(w for u, w in weights.items() if u != rule[t])
            assert best == rule[t]
            assert weights[best] - runner_up >= 1.0, (t, weights)


class TestLbfgs:
    @staticmethod
    def run(fun, x0, max_iterations=1000, tolerance=0.0):
        """Drive _lbfgs to its stop: (iterates, termination, last point)."""
        iterations = picrf.training._lbfgs(fun, x0, max_iterations, tolerance)
        iterates = []
        while True:
            try:
                iterates.append(next(iterations))
            except StopIteration as stop:
                return iterates, *stop.value

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_train_reaches_the_l_bfgs_b_optimum(self, order):
        """scipy's L-BFGS-B, run to convergence on the same objective, is the
        oracle for the optimum train reaches."""
        from scipy.optimize import minimize as l_bfgs_b

        from picrf.crf import log_likelihood_and_gradient, state_space, total_parameters
        from picrf.features import build_feature_index

        corpus = generate_synthetic(SynthConfig(entity_type_count=2, sentences=40, seed=5))
        config = TrainConfig(
            model_order=order, template=TemplateConfig(set_id=1),
            max_iterations=2000, relative_tolerance=1e-14,
        )
        _, report = train(corpus, config)

        alphabet = corpus_alphabet(corpus)
        space = state_space(order, alphabet)
        index = build_feature_index(corpus, config.template, alphabet, order)
        batch = compile_corpus(corpus, config.template, index, space)

        def negated(x):
            value, grad = log_likelihood_and_gradient(batch, x, index, space, config.l2_variance)
            return -value, -grad

        oracle = l_bfgs_b(
            negated, np.zeros(total_parameters(index, space)), jac=True, method="L-BFGS-B",
            options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-10},
        )
        assert report.final_objective == pytest.approx(-oracle.fun, rel=1e-6)

    def test_convex_quadratic_stops_on_the_gradient(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(12, 12))
        a, center = m @ m.T + np.eye(12), rng.normal(size=12)

        def quadratic(x):
            return 0.5 * (x - center) @ a @ (x - center), a @ (x - center)

        iterates, termination, last = self.run(quadratic, np.zeros(12))
        assert termination == "gradient"
        assert last is iterates[-1] and last.gradient_max <= 1e-8
        assert np.allclose(last.x, center)
        assert [it.fun for it in iterates] == sorted((it.fun for it in iterates), reverse=True)
        assert last.calls <= 1.5 * len(iterates)

    def test_a_line_search_that_never_passes_stops_by_name(self):
        calls = []

        def no_descent(x):
            calls.append(x)
            return 0.0, np.ones_like(x)

        iterates, termination, last = self.run(no_descent, np.zeros(5))
        assert (iterates, termination) == ([], "line_search")
        assert len(calls) == last.calls == 21
        # the first trial steps to unit length along -g, then backtracks
        assert np.linalg.norm(calls[1]) == pytest.approx(1.0)
        assert np.linalg.norm(calls[2]) == pytest.approx(0.5)

    def test_ring_direction_matches_the_deque_two_loop(self):
        """_History keeps its pairs in preallocated rings; its direction is
        the deque two-loop recursion's, bit for bit, before and after the
        rings wrap and when a pair with s·y <= 0 is refused."""
        rng = np.random.default_rng(0)
        n = 40
        history, pairs = picrf.training._History(n), deque(maxlen=picrf.training._HISTORY)
        refused = 0
        for k in range(30):
            s = rng.normal(size=n)
            y = rng.normal(size=n) + (-s if k % 4 == 3 else s)
            history.add(s, y)
            if s @ y > 0:
                pairs.append((s, y, 1.0 / float(s @ y)))
            else:
                refused += 1
            g = rng.normal(size=n)
            assert np.array_equal(history.direction(g), deque_direction(g, pairs))
        assert refused > 0 and 30 - refused > 2 * picrf.training._HISTORY

    def test_history_keeps_the_arrays_it_is_given(self):
        """add() stores the very arrays of a pair, copying nothing, and
        drops the arrays of the pair it evicts."""
        rng = np.random.default_rng(1)
        history = picrf.training._History(6)
        added = []
        for _ in range(picrf.training._HISTORY + 3):
            s = rng.normal(size=6)
            y = s * rng.uniform(1.0, 2.0, size=6)  # so s·y > 0
            history.add(s, y)
            added.append((s, y))
            newest = history.rows[-1]
            assert history.s[newest] is s and history.y[newest] is y
        kept = added[-picrf.training._HISTORY :]
        assert all(
            history.s[i] is s and history.y[i] is y for i, (s, y) in zip(history.rows, kept)
        )
        assert not any(a is s for s, _ in added[:3] for a in history.s)

    def test_the_starting_point_is_not_written(self):
        """s is written into the spent iterate, never into the caller's x."""
        x0 = np.full(4, 3.0)
        _, termination, last = self.run(lambda x: (float(x @ x), 2 * x), x0)
        assert termination == "gradient" and np.allclose(last.x, 0.0)
        assert np.array_equal(x0, np.full(4, 3.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_gradient_names_its_first_slot(self, monkeypatch, bad):
        objective = picrf.training.log_likelihood_and_gradient

        def broken(*args):
            value, grad = objective(*args)
            grad[[3, 8]] = bad, float("nan")
            return value, grad

        monkeypatch.setattr(picrf.training, "log_likelihood_and_gradient", broken)
        message = r"^gradient became non-finite at slot 3 \(value %s\)$" % re.escape(repr(bad))
        with pytest.raises(TrainingError, match=message):
            train(tiny_corpus(), TrainConfig(max_iterations=3))
        assert crf._SCRATCH.buffers == ()

    def test_train_frees_the_scratch_arena(self):
        corpus = tiny_corpus()
        space = crf.state_space(ModelOrder.FIRST, corpus_alphabet(corpus))
        template = TemplateConfig()
        index = picrf.training.build_feature_index(corpus, template, space.alphabet, space.order)
        batch = compile_corpus(corpus, template, index, space)
        weights = np.zeros(crf.total_parameters(index, space))
        # a direct call keeps the arena for the next one
        crf.log_likelihood_and_gradient(batch, weights, index, space)
        assert crf._SCRATCH.buffers
        train(corpus, TrainConfig(max_iterations=3))
        assert crf._SCRATCH.buffers == ()

    def test_minimize_reports_the_stop(self):
        result = picrf.training.minimize(
            lambda x: (float(x @ x), 2 * x), np.ones(3), max_iterations=1, tolerance=1e-6
        )
        assert (result.nit, result.termination, result.nfev) == (1, "max_iterations", 2)
        [(fun, gradient_max, calls, seconds)] = result.trace
        assert (fun, gradient_max, calls) == (result.fun, np.max(np.abs(2 * result.x)), 2)
        assert result.fun < 3.0 and seconds >= 0.0


class TestTimings:
    def make_corpus(self):
        return generate_synthetic(SynthConfig(entity_type_count=2, sentences=60, seed=4))

    def test_corpus_without_entity_types_rejected(self):
        plain = [Sentence.from_strings(["a", "b"], ["O", "O"])]
        configs = [TrainConfig(model_order=order) for order in ModelOrder]
        with pytest.raises(AlphabetError, match="^no entity types found in the corpus$"):
            measure_iteration_cost(plain, configs)

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
        assert all(row.faults_per_iteration >= 0.0 for row in report.rows)
        assert "faults/iter" in report.to_text()
        assert all("faults_per_iteration" in record for record in report.to_records())
        assert crf._SCRATCH.buffers == ()
        del base

    def test_faults_are_left_out_without_the_resource_module(self, monkeypatch):
        monkeypatch.setattr(picrf.training, "resource", None)
        monkeypatch.setattr(picrf.training, "_TURN_PAUSE", 0.0)
        configs = [
            TrainConfig(model_order=order, template=TemplateConfig(set_id=1))
            for order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED)
        ]
        report = measure_iteration_cost(self.make_corpus(), configs, measured=3, warmup=0)
        assert [row.faults_per_iteration for row in report.rows] == [None, None]
        assert "faults/iter" not in report.to_text()
        assert all("faults_per_iteration" not in record for record in report.to_records())

    def test_orders_take_turns_an_iteration_at_a_time(self, monkeypatch):
        """Round k runs iteration k of every order, in config order in even
        rounds and reversed in odd ones; each turn follows a pause and makes
        the objective calls of one iteration of one order, and the pauses
        are not timed."""
        corpus = self.make_corpus()
        orders = [ModelOrder.FIRST, ModelOrder.PRE_INDUCED, ModelOrder.SECOND]
        configs = [TrainConfig(model_order=o, template=TemplateConfig(set_id=1)) for o in orders]
        turns = []
        objective, sleep = picrf.training.log_likelihood_and_gradient, time.sleep

        def logged_objective(batch, weights, index, space, l2_variance):
            if turns:
                turns[-1].append(space.order)
            return objective(batch, weights, index, space, l2_variance)

        def logged_sleep(seconds):
            turns.append([])
            sleep(seconds)

        monkeypatch.setattr(picrf.training, "log_likelihood_and_gradient", logged_objective)
        monkeypatch.setattr(picrf.training.time, "sleep", logged_sleep)
        monkeypatch.setattr(picrf.training, "_TURN_PAUSE", 0.3)
        report = measure_iteration_cost(corpus, configs, 3, 1)
        assert all(turn and len(set(turn)) == 1 for turn in turns)
        assert [turn[0] for turn in turns] == (orders + orders[::-1]) * 2
        # each order's first turn also evaluates the starting point
        assert all(len(turn) >= 2 for turn in turns[:3])
        assert [row.measured_iterations for row in report.rows] == [3, 3, 3]
        # the pause and the other orders' turns count toward no iteration
        assert max(max(row.seconds) for row in report.rows) < 0.3

    def test_failing_order_stops_every_run(self, monkeypatch):
        corpus = self.make_corpus()
        orders = [ModelOrder.FIRST, ModelOrder.PRE_INDUCED, ModelOrder.SECOND]
        configs = [TrainConfig(model_order=o, template=TemplateConfig(set_id=1)) for o in orders]
        calls = {order: 0 for order in orders}
        objective = picrf.training.log_likelihood_and_gradient

        def failing(batch, weights, index, space, l2_variance):
            calls[space.order] += 1
            if space.order == ModelOrder.PRE_INDUCED and calls[space.order] == 3:
                raise TrainingError("objective failed")
            return objective(batch, weights, index, space, l2_variance)

        monkeypatch.setattr(picrf.training, "log_likelihood_and_gradient", failing)
        with pytest.raises(TrainingError, match="^objective failed$"):
            measure_iteration_cost(corpus, configs, measured=10, warmup=2)
        assert 0 < calls[ModelOrder.SECOND] < 5

    @pytest.mark.parametrize("name", ["measured", "warmup"])
    def test_rejects_non_integer_counts_by_name(self, name):
        configs = [TrainConfig(model_order=o) for o in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED)]
        for bad in (1.5, True):
            counts = {"measured": 3, "warmup": 1, name: bad}
            with pytest.raises(TrainingError, match="^%s must be an integer, got %r$" % (name, bad)):
                measure_iteration_cost(self.make_corpus(), configs, **counts)

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
