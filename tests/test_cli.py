import contextlib
import io
import json

import pytest
from hypothesis import given, settings

from oracles import conll_reference, conll_texts
from picrf.cli import main
from picrf.corpus import read_conll
from picrf.model_io import load_model

TRAIN_TEXT = """john\tB-PER
runs\tO

acme\tB-ORG
corp\tI-ORG
hired\tO
john\tB-PER

mary\tB-PER
joined\tO
acme\tB-ORG
corp\tI-ORG

nothing\tO
here\tO
"""

TEST_TEXT = """john\tB-PER
joined\tO

acme\tB-ORG
corp\tI-ORG
runs\tO
"""


@pytest.fixture()
def corpus_files(tmp_path):
    train = tmp_path / "train.conll"
    test = tmp_path / "test.conll"
    train.write_text(TRAIN_TEXT)
    test.write_text(TEST_TEXT)
    return train, test


def run(args):
    return main([str(a) for a in args])


def run_captured(args):
    """Exit code, stdout and stderr of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(args)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def shared_model(tmp_path_factory):
    """A directory holding a small first-order model, for tests that
    reuse one across hypothesis examples."""
    directory = tmp_path_factory.mktemp("shared")
    train = directory / "train.conll"
    train.write_text(TRAIN_TEXT)
    code, _, _ = run_captured(["train", "--train", train, "--out", directory / "model.txt"])
    assert code == 0
    return directory


@pytest.fixture()
def model_path(corpus_files, tmp_path):
    train, _ = corpus_files
    path = tmp_path / "model.txt"
    code = run(["train", "--train", train, "--out", path, "--max-iters", 50])
    assert code == 0
    return path


class TestTrain:
    def test_writes_model_and_reports(self, corpus_files, tmp_path, capsys):
        train, _ = corpus_files
        model_file = tmp_path / "m.txt"
        report_file = tmp_path / "r.jsonl"
        text_file = tmp_path / "r.txt"
        code = run(
            [
                "train", "--train", train, "--out", model_file,
                "--order", "pre-induced", "--features", 2, "--max-iters", 30,
                "--report", report_file, "--report-text", text_file,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trained pre-induced model" in out
        model = load_model(model_file)
        assert str(model.order) == "pre-induced"
        rows = [json.loads(line) for line in report_file.read_text().splitlines()]
        assert rows[-1]["order"] == "pre-induced"
        assert rows[-1]["feature_set"] == 2
        assert "stopped:" in text_file.read_text()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = run(["train", "--train", tmp_path / "absent.conll", "--out", tmp_path / "m.txt"])
        assert code == 1
        assert capsys.readouterr().err.strip()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["train", "--train", "x"])  # --out missing
        assert exc.value.code == 2

    def test_bad_order_exits_2(self, corpus_files, tmp_path):
        train, _ = corpus_files
        with pytest.raises(SystemExit) as exc:
            run(["train", "--train", train, "--out", tmp_path / "m.txt", "--order", "zeroth"])
        assert exc.value.code == 2


class TestTag:
    def test_stdout_output(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        assert run(["tag", "--model", model_path, "--input", test]) == 0
        out = capsys.readouterr().out
        sentences = read_conll(out.splitlines(True), label_column=-1)
        assert len(sentences) == 2
        # gold column is preserved, predictions appended
        first = out.splitlines()[0].split("\t")
        assert first[0] == "john" and first[1] == "B-PER"
        assert len(first) == 3

    def test_file_output_unlabeled_input(self, model_path, tmp_path, capsys):
        raw = tmp_path / "raw.conll"
        raw.write_text("acme\ncorp\n\n")
        out_path = tmp_path / "tagged.conll"
        assert run(["tag", "--model", model_path, "--input", raw, "--output", out_path]) == 0
        lines = out_path.read_text().splitlines()
        assert lines[0].split("\t")[0] == "acme"
        assert len(lines[0].split("\t")) == 2
        assert capsys.readouterr().out == ""

    def test_constrained_flag_rejected_for_first_order(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        code = run(["tag", "--model", model_path, "--input", test, "--constrained"])
        assert code == 1
        assert "pre-induced" in capsys.readouterr().err


    def test_non_finite_weight_fails_cleanly(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        lines = model_path.read_text().splitlines(True)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        lines[i + 1] = "nan\n"
        model_path.write_text("".join(lines))
        assert run(["tag", "--model", model_path, "--input", test]) == 1
        assert "line %d: weight entry is not finite" % (i + 2) in capsys.readouterr().err

    @settings(max_examples=100, deadline=None)
    @given(conll_texts())
    def test_random_input_files(self, shared_model, text_rows):
        """picrf tag takes the last column as gold only when every row has
        two, so it reads any file and tags every token in order. picrf
        train needs a label column besides the token on every row, so on a
        file with a bad row it exits 1 naming that row."""
        text, rows = text_rows
        path = shared_model / "input.conll"
        path.write_bytes(text.encode("utf-8"))
        code, out, err = run_captured(["tag", "--model", shared_model / "model.txt", "--input", path])
        assert (code, err) == (0, "")
        tagged = [line.split("\t")[0] for line in out.split("\n") if line]
        assert tagged == [cells[0] for cells in rows if cells]
        _, bad_line = conll_reference(rows, 0, -1)
        if bad_line is not None:
            code, _, err = run_captured(["train", "--train", path, "--out", shared_model / "unused"])
            assert code == 1
            assert "line %d: " % bad_line in err


class TestEval:
    def test_gold_vs_pred_files(self, corpus_files, tmp_path, capsys):
        _, test = corpus_files
        pred = tmp_path / "pred.conll"
        pred.write_text(TEST_TEXT)  # perfect predictions
        assert run(["eval", "--gold", test, "--pred", pred]) == 0
        out = capsys.readouterr().out
        assert "f1" in out and "1.0000" in out

    def test_model_on_gold_input(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        assert run(["eval", "--model", model_path, "--input", test, "--per-type"]) == 0
        out = capsys.readouterr().out
        assert "PER" in out and "ORG" in out

    def test_pred_and_model_together_rejected(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        code = run(["eval", "--gold", test, "--pred", test, "--model", model_path])
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_neither_pred_nor_model_rejected(self, corpus_files, capsys):
        _, test = corpus_files
        assert run(["eval", "--gold", test]) == 1
        assert capsys.readouterr().err.strip()


class TestTransform:
    def test_induce_then_revert_round_trips(self, corpus_files, tmp_path, capsys):
        train, _ = corpus_files
        induced = tmp_path / "induced.conll"
        assert run(["transform", "--input", train, "--direction", "induce",
                    "--output", induced]) == 0
        text = induced.read_text()
        assert "PER[O]" in text
        assert run(["transform", "--input", induced, "--direction", "revert"]) == 0
        # writer always closes the last sentence with a blank line
        assert capsys.readouterr().out == TRAIN_TEXT + "\n"

    def test_induced_labels_follow_entities(self, corpus_files, tmp_path):
        train, _ = corpus_files
        induced = tmp_path / "induced.conll"
        run(["transform", "--input", train, "--direction", "induce", "--output", induced])
        lines = induced.read_text().splitlines()
        assert lines[0] == "john\tB-PER"
        assert lines[1] == "runs\tPER[O]"


class TestSynth:
    def test_writes_parseable_corpus(self, tmp_path):
        out = tmp_path / "synth.conll"
        assert run(["synth", "--types", 3, "--sentences", 25, "--seed", 5,
                    "--out", out]) == 0
        sentences = read_conll(out.read_text().splitlines(True), label_column=-1)
        assert len(sentences) == 25
        types = {l.split("-", 1)[1] for s in sentences for l in s.labels if l != "O"}
        assert types == {"A", "B", "C"}

    def test_seed_determinism(self, tmp_path, capsys):
        assert run(["synth", "--sentences", 10, "--seed", 3]) == 0
        first = capsys.readouterr().out
        assert run(["synth", "--sentences", 10, "--seed", 3]) == 0
        assert capsys.readouterr().out == first
        assert run(["synth", "--sentences", 10, "--seed", 4]) == 0
        assert capsys.readouterr().out != first


class TestBench:
    def test_longdistance(self, tmp_path, capsys):
        report = tmp_path / "ld.jsonl"
        code = run(
            [
                "bench", "longdistance", "--types", 2, "--train-size", 50,
                "--test-size", 15, "--gap-min", 2, "--gap-max", 3,
                "--max-iters", 40, "--seed", 2, "--report", report,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chance level 0.500" in out
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["order"] for r in rows] == ["first", "pre-induced"]

    def test_timing(self, capsys):
        code = run(
            [
                "bench", "timing", "--types", 2, "--sentences", 40,
                "--measured", 3, "--warmup", 1, "--max-iters", 50,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "s/iteration" in out
        assert "ratio first/pre-induced" in out

    def test_compare(self, corpus_files, capsys):
        train, test = corpus_files
        code = run(
            [
                "bench", "compare", "--train", train, "--test", test,
                "--orders", "first,second", "--feature-sets", "1,2",
                "--max-iters", 30,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "second" in out
        assert out.count("\n") >= 5

    def test_window_spanning_gap_fails_cleanly(self, capsys):
        code = run(["bench", "longdistance", "--gap-min", 1, "--train-size", 10,
                    "--test-size", 5])
        assert code == 1
        assert "window" in capsys.readouterr().err
