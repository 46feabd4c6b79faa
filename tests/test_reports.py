"""The exact text and records of every report, built from literal cells and
traces with no training: the table layouts, the number formats and the
record keys, in order, that `picrf train --report-text`, `--report` and
`picrf bench` write."""

import json

import pytest

import picrf.evaluation
from picrf.corpus import SynthConfig, generate_synthetic
from picrf.crf_types import ModelOrder
from picrf.evaluation import (
    ExperimentCell,
    ExperimentReport,
    ScoreReport,
    TypeScore,
    run_comparison,
    run_longdistance,
)
from picrf.features import TemplateConfig
from picrf.training import (
    IterationRecord,
    TimingReport,
    TimingRow,
    TrainConfig,
    TrainReport,
)

FIRST, SECOND, PRE = ModelOrder.FIRST, ModelOrder.SECOND, ModelOrder.PRE_INDUCED


def train_report(order=PRE, feature_set=2):
    return TrainReport(
        order=order,
        feature_set=feature_set,
        n_parameters=1234,
        iterations=[
            IterationRecord(1, -41.5, 3.25, 0.0125, 1),
            IterationRecord(2, -12.125, 0.0625, 0.25, 3),
            IterationRecord(3, -12.0009765625, 1.5e-07, 0.5, 2),
        ],
        termination="tolerance",
        final_objective=-12.0009765625,
        objective_calls=7,
    )


class TestTrainReport:
    def test_to_text(self):
        assert train_report().to_text() == (
            " iteration           objective      grad max     seconds   calls\n"
            "         1        -41.50000000    3.2500e+00      0.0125       1\n"
            "         2        -12.12500000    6.2500e-02      0.2500       3\n"
            "         3        -12.00097656    1.5000e-07      0.5000       2\n"
            "stopped: tolerance after 3 iterations, 0.2542 s/iteration mean, "
            "7 objective calls (2.33 per iteration)\n"
        )

    def test_to_text_without_iterations(self):
        report = TrainReport(FIRST, 1, 10, [], "gradient", -0.0, 1)
        assert report.to_text() == (
            " iteration           objective      grad max     seconds   calls\n"
            "stopped: gradient after 0 iterations, 0.0000 s/iteration mean, "
            "1 objective calls (1.00 per iteration)\n"
        )

    def test_summary(self):
        assert train_report().summary() == (
            "trained pre-induced model, feature set 2: 1234 parameters, 3 iterations, "
            "objective -12.000977, 0.2542 s/iteration, 2.33 objective calls/iteration, "
            "stopped on tolerance"
        )

    def test_to_jsonl(self):
        assert train_report().to_jsonl() == (
            '{"iteration": 1, "objective": -41.5, "gradient_max": 3.25, "seconds": 0.0125, '
            '"objective_calls": 1}\n'
            '{"iteration": 2, "objective": -12.125, "gradient_max": 0.0625, "seconds": 0.25, '
            '"objective_calls": 3}\n'
            '{"iteration": 3, "objective": -12.0009765625, "gradient_max": 1.5e-07, '
            '"seconds": 0.5, "objective_calls": 2}\n'
            '{"termination": "tolerance", "order": "pre-induced", "feature_set": 2, '
            '"n_parameters": 1234, "final_objective": -12.0009765625, "objective_calls": 7, '
            '"calls_per_iteration": 2.3333333333333335}\n'
        )

    def test_to_records(self):
        records = train_report().to_records()
        assert [list(r) for r in records] == [
            ["iteration", "objective", "gradient_max", "seconds", "objective_calls"]
        ] * 3
        assert records[1] == {
            "iteration": 2, "objective": -12.125, "gradient_max": 0.0625, "seconds": 0.25,
            "objective_calls": 3,
        }


def timing_report(faults=(12.5, 0.0, 3.0)):
    return TimingReport(
        rows=[
            TimingRow(FIRST, 3, 0.005, (0.004, 0.005, 0.006), faults[0]),
            TimingRow(PRE, 4, 0.0125, (0.01, 0.0125, 0.0125, 0.015), faults[1]),
            TimingRow(SECOND, 3, 0.25, (0.25, 0.25, 0.25), faults[2]),
        ]
    )


class TestTimingReport:
    RATIOS = (
        "ratio first/pre-induced: 0.400\n"
        "ratio first/second: 0.020\n"
        "ratio pre-induced/first: 2.500\n"
        "ratio pre-induced/second: 0.050\n"
        "ratio second/first: 50.000\n"
        "ratio second/pre-induced: 20.000\n"
    )

    def test_to_text_with_faults(self):
        assert timing_report().to_text() == (
            "order            iters   s/iteration  faults/iter\n"
            "first                3        0.0050         12.5\n"
            "pre-induced          4        0.0125          0.0\n"
            "second               3        0.2500          3.0\n" + self.RATIOS
        )

    def test_to_text_without_faults(self):
        """One row without a count leaves the column out of every row."""
        assert timing_report(faults=(12.5, None, 3.0)).to_text() == (
            "order            iters   s/iteration\n"
            "first                3        0.0050\n"
            "pre-induced          4        0.0125\n"
            "second               3        0.2500\n" + self.RATIOS
        )

    def test_to_records(self):
        records = timing_report().to_records()
        assert [list(r) for r in records] == [
            ["order", "measured_iterations", "mean_seconds", "seconds", "faults_per_iteration"]
        ] * 3
        assert records[1] == {
            "order": "pre-induced", "measured_iterations": 4, "mean_seconds": 0.0125,
            "seconds": [0.01, 0.0125, 0.0125, 0.015], "faults_per_iteration": 0.0,
        }
        assert type(records[1]["order"]) is str

    def test_to_records_without_faults(self):
        records = timing_report(faults=(None, None, None)).to_records()
        assert [list(r) for r in records] == [
            ["order", "measured_iterations", "mean_seconds", "seconds"]
        ] * 3


def cell(order, feature_set, counts, seconds, iterations, termination):
    overall = TypeScore(*counts)
    return ExperimentCell(
        order=order,
        feature_set=feature_set,
        score=ScoreReport(overall=overall, per_type={"A": overall}),
        seconds_per_iteration=seconds,
        iterations=iterations,
        termination=termination,
    )


class TestExperimentReport:
    REPORT = ExperimentReport(
        cells=[
            cell(FIRST, 1, (8, 10, 6), 0.00375, 21, "tolerance"),
            cell(PRE, 2, (8, 8, 8), 0.0125, 140, "max_iterations"),
            cell(SECOND, 1, (8, 0, 0), 1.5, 3, "line_search"),
        ]
    )

    def test_to_text(self):
        assert self.REPORT.to_text() == (
            "order         set  precision     recall         f1  s/iteration    iters\n"
            "first           1     0.6000     0.7500     0.6667       0.0037       21\n"
            "pre-induced     2     1.0000     1.0000     1.0000       0.0125      140\n"
            "second          1     0.0000     0.0000     0.0000       1.5000        3\n"
        )

    def test_to_records(self):
        records = self.REPORT.to_records()
        assert [list(r) for r in records] == [
            [
                "order", "feature_set", "precision", "recall", "f1",
                "seconds_per_iteration", "iterations", "termination",
            ]
        ] * 3
        assert records[0] == {
            "order": "first", "feature_set": 1, "precision": 0.6, "recall": 0.75,
            "f1": 2 * 0.6 * 0.75 / 1.35, "seconds_per_iteration": 0.00375, "iterations": 21,
            "termination": "tolerance",
        }
        assert type(records[0]["order"]) is str

    def test_cell(self):
        assert self.REPORT.cell("pre-induced", 2) is self.REPORT.cells[1]
        with pytest.raises(KeyError):
            self.REPORT.cell(PRE, 1)


class FakeModel:
    """Decodes each test sentence to its gold labels, except that for first
    order every third sentence comes out all O."""

    def __init__(self, order):
        self.order = order

    def decode_corpus(self, corpus):
        return [
            ["O"] * len(s) if self.order == FIRST and i % 3 == 0 else list(s.labels)
            for i, s in enumerate(corpus)
        ]


@pytest.fixture()
def fake_train(monkeypatch):
    """picrf.evaluation.train without training: the fake model and a
    three-iteration trace, recording the config of every call."""
    configs = []

    def fake(corpus, config, alphabet):
        configs.append(config)
        report = train_report(config.model_order, config.template.set_id)
        return FakeModel(config.model_order), report

    monkeypatch.setattr(picrf.evaluation, "train", fake)
    return configs


SYNTH = SynthConfig(entity_type_count=2, sentences=1, seed=3, gap_lengths=(2, 3))


class TestLongDistanceReport:
    def test_to_text_and_records(self, fake_train):
        report = run_longdistance(SYNTH, 4, 6, [FIRST, PRE], TrainConfig())
        assert [c.model_order for c in fake_train] == [FIRST, PRE]
        assert report.to_text() == (
            "long-distance experiment: 4 train / 6 test, chance level 0.500\n"
            "order         precision     recall         f1  second-entity acc  s/iteration    iters\n"
            "first            1.0000     0.6667     0.8000             0.6667       0.2542        3\n"
            "pre-induced      1.0000     1.0000     1.0000             1.0000       0.2542        3\n"
        )
        records = report.to_records()
        assert [list(r) for r in records] == [
            [
                "order", "precision", "recall", "f1", "second_entity_accuracy",
                "seconds_per_iteration", "iterations", "chance",
            ]
        ] * 2
        assert records[1] == {
            "order": "pre-induced", "precision": 1.0, "recall": 1.0, "f1": 1.0,
            "second_entity_accuracy": 1.0, "seconds_per_iteration": 0.7625 / 3,
            "iterations": 3, "chance": 0.5,
        }
        assert json.dumps(records[0]) == (
            '{"order": "first", "precision": 1.0, "recall": 0.6666666666666666, '
            '"f1": 0.8, "second_entity_accuracy": 0.6666666666666666, '
            '"seconds_per_iteration": 0.25416666666666665, "iterations": 3, "chance": 0.5}'
        )
        assert report.cell("first") is report.cells[0]
        assert report.cell(PRE).second_entity_accuracy == 1.0
        with pytest.raises(KeyError):
            report.cell(SECOND)


class TestRunComparisonRecords:
    def test_to_text_and_records(self, fake_train):
        corpus = generate_synthetic(SynthConfig(entity_type_count=2, sentences=10, seed=3))
        base = TrainConfig(template=TemplateConfig(set_id=1))
        report = run_comparison(corpus[:4], corpus[4:], [FIRST, PRE], [2, 1], base)
        assert [(c.model_order, c.template.set_id) for c in fake_train] == [
            (FIRST, 2), (FIRST, 1), (PRE, 2), (PRE, 1)
        ]
        assert report.to_text() == (
            "order         set  precision     recall         f1  s/iteration    iters\n"
            "first           2     1.0000     0.6667     0.8000       0.2542        3\n"
            "first           1     1.0000     0.6667     0.8000       0.2542        3\n"
            "pre-induced     2     1.0000     1.0000     1.0000       0.2542        3\n"
            "pre-induced     1     1.0000     1.0000     1.0000       0.2542        3\n"
        )
        assert [json.dumps(r) for r in report.to_records()[1:3]] == [
            '{"order": "first", "feature_set": 1, "precision": 1.0, '
            '"recall": 0.6666666666666666, "f1": 0.8, '
            '"seconds_per_iteration": 0.25416666666666665, "iterations": 3, '
            '"termination": "tolerance"}',
            '{"order": "pre-induced", "feature_set": 2, "precision": 1.0, "recall": 1.0, '
            '"f1": 1.0, "seconds_per_iteration": 0.25416666666666665, "iterations": 3, '
            '"termination": "tolerance"}',
        ]
