import pytest

import picrf.evaluation
from picrf.corpus import Sentence, SynthConfig
from picrf.crf_types import ModelOrder
from picrf.evaluation import (
    EvaluationError,
    TypeScore,
    chance_level,
    run_comparison,
    run_longdistance,
    score,
    second_entity_accuracy,
)
from picrf.features import TemplateConfig
from picrf.training import TrainConfig


def sent(texts, labels):
    return Sentence.from_strings(texts, labels)


class TestTypeScore:
    def test_zero_guards(self):
        empty = TypeScore(0, 0, 0)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0
        no_pred = TypeScore(3, 0, 0)
        assert no_pred.precision == 0.0 and no_pred.f1 == 0.0
        no_gold = TypeScore(0, 3, 0)
        assert no_gold.recall == 0.0 and no_gold.f1 == 0.0

    def test_arithmetic(self):
        ts = TypeScore(gold=4, predicted=5, correct=3)
        assert ts.precision == pytest.approx(0.6)
        assert ts.recall == pytest.approx(0.75)
        assert ts.f1 == pytest.approx(2 * 0.6 * 0.75 / (0.6 + 0.75))


class TestScore:
    def test_perfect(self):
        gold = [sent(["a", "b", "c"], ["B-A", "I-A", "O"])]
        report = score(gold, [["B-A", "I-A", "O"]])
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_boundary_error_counts_as_wrong(self):
        gold = [sent(["a", "b", "c"], ["B-A", "I-A", "O"])]
        report = score(gold, [["B-A", "O", "O"]])
        assert report.overall.correct == 0
        assert report.overall.predicted == 1
        assert report.overall.gold == 1

    def test_type_error_counts_as_wrong(self):
        gold = [sent(["a", "b"], ["B-A", "O"])]
        report = score(gold, [["B-B", "O"]])
        assert report.overall.correct == 0
        assert report.per_type["A"].gold == 1
        assert report.per_type["B"].predicted == 1

    def test_micro_average(self):
        gold = [
            sent(["a", "b", "c", "d"], ["B-A", "O", "B-B", "I-B"]),
            sent(["e", "f"], ["B-A", "O"]),
        ]
        pred = [["B-A", "O", "B-B", "O"], ["O", "O"]]
        report = score(gold, pred)
        assert report.per_type["A"].gold == 2
        assert report.per_type["A"].correct == 1
        assert report.per_type["B"].gold == 1
        assert report.per_type["B"].correct == 0
        assert report.overall.gold == 3
        assert report.overall.predicted == 2
        assert report.overall.correct == 1
        assert report.precision == pytest.approx(1 / 2)
        assert report.recall == pytest.approx(1 / 3)

    def test_predictions_repaired_before_scoring(self):
        gold = [sent(["a", "b"], ["B-A", "I-A"])]
        # bare I-A opens a chunk under the repair convention
        report = score(gold, [["I-A", "I-A"]])
        assert report.overall.correct == 1
        assert report.f1 == 1.0

    def test_invalid_gold_rejected(self):
        gold = [sent(["a"], ["I-A"])]
        with pytest.raises(EvaluationError, match="sentence 0"):
            score(gold, [["O"]])

    def test_invalid_predicted_label_names_its_sentence(self):
        gold = [sent(["a", "b"], ["B-A", "O"]), sent(["c"], ["O"])]
        with pytest.raises(EvaluationError) as err:
            score(gold, [["B-A", "O"], ["X"]])
        assert str(err.value) == "sentence 1: invalid predicted labels: not an IOB2 label: 'X'"

    def test_unlabeled_gold_rejected(self):
        with pytest.raises(EvaluationError):
            score([Sentence.from_strings(["a"])], [["O"]])

    def test_length_mismatches_rejected(self):
        gold = [sent(["a", "b"], ["O", "O"])]
        with pytest.raises(EvaluationError):
            score(gold, [["O"]])
        with pytest.raises(EvaluationError):
            score(gold, [])

    def test_to_text(self):
        gold = [sent(["a", "b"], ["B-A", "O"])]
        report = score(gold, [["B-A", "O"]])
        plain = report.to_text()
        assert "precision" in plain and "1.0000" in plain
        detailed = report.to_text(per_type=True)
        assert "A" in detailed


SMALL_TRAIN = [
    sent(["john", "runs"], ["B-PER", "O"]),
    sent(["acme", "corp", "hired", "john"], ["B-ORG", "I-ORG", "O", "B-PER"]),
    sent(["mary", "joined", "acme", "corp"], ["B-PER", "O", "B-ORG", "I-ORG"]),
    sent(["nothing", "here"], ["O", "O"]),
]
SMALL_TEST = [
    sent(["john", "joined"], ["B-PER", "O"]),
    sent(["acme", "corp", "runs"], ["B-ORG", "I-ORG", "O"]),
]


class TestRunComparison:
    def test_grid_of_cells(self):
        report = run_comparison(
            SMALL_TRAIN,
            SMALL_TEST,
            orders=[ModelOrder.FIRST, ModelOrder.PRE_INDUCED],
            feature_sets=[1, 2],
            base_config=TrainConfig(max_iterations=60),
        )
        assert len(report.cells) == 4
        for order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED):
            for fs in (1, 2):
                cell = report.cell(order, fs)
                assert 0.0 <= cell.score.f1 <= 1.0
                assert cell.seconds_per_iteration > 0.0
                assert cell.iterations >= 1
        # this split is easy enough to get right
        assert report.cell(ModelOrder.FIRST, 2).score.f1 == 1.0
        text = report.to_text()
        assert "pre-induced" in text
        assert len(report.to_records()) == 4

    def test_missing_cell_raises(self):
        report = run_comparison(
            SMALL_TRAIN, SMALL_TEST, [ModelOrder.FIRST], [1],
            base_config=TrainConfig(max_iterations=10),
        )
        with pytest.raises(KeyError):
            report.cell(ModelOrder.SECOND, 1)

    def test_empty_grid_rejected(self):
        with pytest.raises(EvaluationError):
            run_comparison(SMALL_TRAIN, SMALL_TEST, [], [1])
        with pytest.raises(EvaluationError):
            run_comparison(SMALL_TRAIN, SMALL_TEST, [ModelOrder.FIRST], [])

    @pytest.mark.parametrize(
        "orders, feature_sets, repeated",
        [
            ([ModelOrder.FIRST, "pre-induced", "first"], [1], "order first"),
            ([ModelOrder.FIRST], [1, 1], "feature set 1"),
        ],
    )
    def test_repeated_cell_rejected(self, orders, feature_sets, repeated):
        with pytest.raises(EvaluationError, match="^%s is repeated$" % repeated):
            run_comparison(SMALL_TRAIN, SMALL_TEST, orders, feature_sets)

    def test_no_entity_types_rejected(self):
        plain = [sent(["a"], ["O"])]
        with pytest.raises(EvaluationError):
            run_comparison(plain, plain, [ModelOrder.FIRST], [1])

    @pytest.mark.parametrize(
        "orders, feature_sets, message",
        [
            (["first", "third"], [1], "unknown order 'third'"),
            (["first"], [1, 3], "feature set 3: set_id must be 1 or 2, got 3"),
        ],
    )
    def test_bad_cell_rejected_before_any_cell_trains(
        self, monkeypatch, orders, feature_sets, message
    ):
        calls = []
        monkeypatch.setattr(picrf.evaluation, "train", lambda *args: calls.append(args))
        with pytest.raises(EvaluationError, match="^%s$" % message):
            run_comparison(SMALL_TRAIN, SMALL_TEST, orders, feature_sets)
        assert calls == []


class TestSecondEntityAccuracy:
    def test_counts_type_hits_at_second_entity(self):
        corpus = [
            sent(["av1", "w01", "w02", "s03"], ["B-A", "O", "O", "B-B"]),
            sent(["bv1", "w01", "w02", "s04"], ["B-B", "O", "O", "B-A"]),
        ]
        assert second_entity_accuracy(corpus, [
            ["B-A", "O", "O", "B-B"],
            ["B-B", "O", "O", "B-A"],
        ]) == 1.0
        assert second_entity_accuracy(corpus, [
            ["B-A", "O", "O", "B-A"],
            ["B-B", "O", "O", "B-A"],
        ]) == 0.5
        # tag flavor does not matter, only the entity type at that position
        assert second_entity_accuracy(corpus[:1], [["O", "O", "O", "I-B"]]) == 1.0
        # O at the second entity position is a miss
        assert second_entity_accuracy(corpus[:1], [["B-A", "O", "O", "O"]]) == 0.0

    def test_requires_second_entity(self):
        with pytest.raises(EvaluationError):
            second_entity_accuracy([sent(["a"], ["B-A"])], [["B-A"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(EvaluationError):
            second_entity_accuracy([], [])

    def test_unlabeled_gold_rejected(self):
        corpus = [
            sent(["av1", "w01", "s03"], ["B-A", "O", "B-B"]),
            Sentence.from_strings(["av1", "w01", "s03"], None),
        ]
        with pytest.raises(EvaluationError, match="^sentence 1 has no gold labels$"):
            second_entity_accuracy(corpus, [["B-A", "O", "B-B"]] * 2)

    def test_mismatched_predictions_rejected(self):
        corpus = [sent(["av1", "w01", "s03"], ["B-A", "O", "B-B"])] * 4
        labels = ["B-A", "O", "B-B"]
        with pytest.raises(EvaluationError, match="1 predicted sequences for 4 sentences"):
            second_entity_accuracy(corpus, [labels])
        with pytest.raises(EvaluationError, match="sentence 2: 3 tokens but 1 predicted"):
            second_entity_accuracy(corpus, [labels, labels, labels[:1], labels])


class TestLongDistance:
    def test_chance_level(self):
        assert chance_level(SynthConfig(entity_type_count=4, sentences=1)) == 0.25

    def test_window_must_not_span_gap(self):
        synth = SynthConfig(entity_type_count=2, sentences=1, gap_lengths=(1, 2))
        with pytest.raises(EvaluationError, match="window"):
            run_longdistance(synth, 10, 5)

    @pytest.mark.parametrize(
        "orders, message",
        [
            ((), "need at least one order"),
            (("pre-induced", "pre-induced"), "order pre-induced is repeated"),
        ],
    )
    def test_orders_must_be_distinct_and_present(self, orders, message):
        synth = SynthConfig(entity_type_count=2, sentences=1, gap_lengths=(2, 3))
        with pytest.raises(EvaluationError, match="^%s$" % message):
            run_longdistance(synth, 10, 5, orders)

    def test_bad_order_rejected_before_any_cell_trains(self, monkeypatch):
        calls = []
        monkeypatch.setattr(picrf.evaluation, "train", lambda *args: calls.append(args))
        synth = SynthConfig(entity_type_count=2, sentences=1, gap_lengths=(2, 3))
        with pytest.raises(EvaluationError, match="^unknown order 'third'$"):
            run_longdistance(synth, 10, 5, ["first", "third"])
        assert calls == []

    def test_failing_cell_is_named(self, monkeypatch):
        """A cell that fails raises EvaluationError naming the cell, as in
        run_comparison, after the cells before it trained."""
        real_train = picrf.evaluation.train
        trained = []

        def train(corpus, config, alphabet):
            trained.append(config.model_order)
            if config.model_order == ModelOrder.PRE_INDUCED:
                raise FloatingPointError("broken objective")
            return real_train(corpus, config, alphabet)

        monkeypatch.setattr(picrf.evaluation, "train", train)
        synth = SynthConfig(entity_type_count=2, sentences=1, seed=7, gap_lengths=(2, 3))
        config = TrainConfig(max_iterations=5, template=TemplateConfig(set_id=1))
        with pytest.raises(EvaluationError) as err:
            run_longdistance(synth, 20, 5, ["first", "pre-induced", "second"], config)
        assert str(err.value) == "cell pre-induced/set1 failed: broken objective"
        assert isinstance(err.value.__cause__, FloatingPointError)
        assert trained == [ModelOrder.FIRST, ModelOrder.PRE_INDUCED]

    def test_sizes_must_be_positive(self):
        synth = SynthConfig(entity_type_count=2, sentences=1, gap_lengths=(2, 3))
        with pytest.raises(EvaluationError):
            run_longdistance(synth, 0, 5)

    def test_smoke_run(self):
        synth = SynthConfig(entity_type_count=2, sentences=1, seed=7, gap_lengths=(2, 3))
        config = TrainConfig(max_iterations=40, template=TemplateConfig(set_id=1))
        report = run_longdistance(synth, 60, 20, base_config=config)
        assert report.chance == 0.5
        assert report.train_size == 60 and report.test_size == 20
        for order in (ModelOrder.FIRST, ModelOrder.PRE_INDUCED):
            cell = report.cell(order)
            assert 0.0 <= cell.second_entity_accuracy <= 1.0
            assert 0.0 <= cell.score.f1 <= 1.0
        # the induced chain can carry the first entity's type across the gap
        assert (
            report.cell(ModelOrder.PRE_INDUCED).second_entity_accuracy
            >= report.cell(ModelOrder.FIRST).second_entity_accuracy
        )
        text = report.to_text()
        assert "chance level 0.500" in text
        header, *rows = text.splitlines()[1:]
        assert header.split()[-2:] == ["s/iteration", "iters"]
        records = report.to_records()
        assert len(records) == len(rows) == 2
        for cell, row, record in zip(report.cells, rows, records):
            assert cell.iterations >= 1 and cell.seconds_per_iteration > 0.0
            assert row.split()[-2:] == ["%.4f" % cell.seconds_per_iteration, str(cell.iterations)]
            assert record["seconds_per_iteration"] == cell.seconds_per_iteration
            assert record["iterations"] == cell.iterations
        with pytest.raises(KeyError):
            report.cell(ModelOrder.SECOND)
