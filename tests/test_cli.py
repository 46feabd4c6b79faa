import base64
import contextlib
import io
import json
import os
import shlex
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from oracles import (
    conll_reference,
    conll_texts,
    format_1_lines,
    format_2_lines,
    weight_block,
    write_new,
)
from picrf.cli import _read_maybe_labeled, build_parser, main
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

    def test_corpus_without_entity_types_fails_cleanly(self, tmp_path):
        plain = tmp_path / "plain.conll"
        plain.write_text("nothing\tO\nhere\tO\n")
        code, out, err = run_captured(["train", "--train", plain, "--out", tmp_path / "m.txt"])
        assert (code, out, err) == (1, "", "error: no entity types found in the corpus\n")
        assert not (tmp_path / "m.txt").exists()

    def test_row_without_label_fails_naming_it(self, tmp_path):
        short = tmp_path / "short.conll"
        short.write_text("a\tB-X\nb\n")
        code, out, err = run_captured(["train", "--train", short, "--out", tmp_path / "m.txt"])
        assert (code, out) == (1, "")
        assert err == "error: line 2: label column missing (line has 1 column)\n"


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

    def test_file_output_replaces_an_existing_file(self, model_path, corpus_files, tmp_path):
        """The output is written beside the old file and renamed over it:
        a new inode with the whole output, the old file's mode kept and no
        other file left in the directory."""
        _, test = corpus_files
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out_path = out_dir / "tagged.conll"
        out_path.write_text("old text, longer than the tagged output " * 20)
        out_path.chmod(0o640)
        old_inode = out_path.stat().st_ino
        assert run(["tag", "--model", model_path, "--input", test, "--output", out_path]) == 0
        code, expected, _ = run_captured(["tag", "--model", model_path, "--input", test])
        assert code == 0 and out_path.read_text() == expected
        assert out_path.stat().st_ino != old_inode
        assert stat.S_IMODE(out_path.stat().st_mode) == 0o640
        assert os.listdir(out_dir) == ["tagged.conll"]

    def test_output_through_a_symlink_keeps_the_link(self, model_path, corpus_files, tmp_path):
        _, test = corpus_files
        target = tmp_path / "target.conll"
        target.write_text("old\n")
        link = tmp_path / "link.conll"
        link.symlink_to(target)
        assert run(["tag", "--model", model_path, "--input", test, "--output", link]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert target.read_text().startswith("john\tB-PER\t")

    def test_output_into_a_fifo_is_written_in_place(self, model_path, corpus_files, tmp_path):
        """A path that is not a regular file, such as a pipe, is opened and
        written, not replaced."""
        _, test = corpus_files
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert run(["tag", "--model", model_path, "--input", test, "--output", fifo]) == 0
            assert stat.S_ISFIFO(os.stat(fifo).st_mode)
            assert os.read(reader, 1 << 16).decode().startswith("john\tB-PER\t")
        finally:
            os.close(reader)

    @pytest.mark.parametrize("how", ["proc-fd", "dev-stdout"])
    def test_output_into_an_anonymous_pipe_is_written_in_place(
        self, model_path, corpus_files, how
    ):
        """A pipe reached through a link whose text names no file, such as
        /proc/self/fd/N or /dev/stdout of `picrf tag ... | head`, is
        written in place."""
        _, test = corpus_files
        code, expected, _ = run_captured(["tag", "--model", model_path, "--input", test])
        assert code == 0 and len(expected.encode()) < 1 << 16  # fits the pipe's buffer
        reader, writer = os.pipe()
        saved_stdout = os.dup(1)
        try:
            if how == "proc-fd":
                path = "/proc/self/fd/%d" % writer
            else:
                os.dup2(writer, 1)
                path = "/dev/stdout"
            code = run(["tag", "--model", model_path, "--input", test, "--output", path])
            os.dup2(saved_stdout, 1)
            os.close(writer)
            writer = None
            assert code == 0
            with open(reader, "rb", closefd=False) as handle:
                assert handle.read().decode() == expected
        finally:
            os.dup2(saved_stdout, 1)
            for fd in (saved_stdout, reader, writer):
                if fd is not None:
                    os.close(fd)

    def test_constrained_flag_rejected_for_first_order(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        code = run(["tag", "--model", model_path, "--input", test, "--constrained"])
        assert code == 1
        assert "pre-induced" in capsys.readouterr().err


    def test_non_finite_weight_fails_cleanly(self, model_path, corpus_files, capsys):
        """A nan weight line in format 1, and a nan bit pattern in the
        first weight of a format 2 block and in the fourth weight line of
        a format 3 block."""
        _, test = corpus_files
        saved = model_path.read_text().splitlines()
        lines = format_1_lines(saved)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        lines[i + 1] = "nan"
        model_path.write_text("".join(line + "\n" for line in lines))
        assert run(["tag", "--model", model_path, "--input", test]) == 1
        assert "line %d: weight entry is not finite" % (i + 2) in capsys.readouterr().err

        lines = format_2_lines(saved)
        first, weights = weight_block(lines)
        data = np.concatenate([[np.nan], weights[1:]]).astype("<f8").tobytes()
        lines[first : first + 1] = base64.encodebytes(data[:57]).decode().splitlines()
        model_path.write_text("".join(line + "\n" for line in lines))
        assert run(["tag", "--model", model_path, "--input", test]) == 1
        assert "line %d: weight entry is not finite: nan" % (first + 1) in capsys.readouterr().err

        first, _ = weight_block(saved)
        saved[first + 3] = struct.pack("<d", np.nan).hex()
        model_path.write_text("".join(line + "\n" for line in saved))
        assert run(["tag", "--model", model_path, "--input", test]) == 1
        assert "line %d: weight entry is not finite: nan" % (first + 4) in capsys.readouterr().err

    def test_feature_line_nested_too_deep_fails_cleanly(self, model_path, corpus_files, capsys):
        _, test = corpus_files
        lines = model_path.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("features:"))
        lines[i + 1] = "[" * 100_000
        model_path.write_text("".join(line + "\n" for line in lines))
        assert run(["tag", "--model", model_path, "--input", test]) == 1
        err = capsys.readouterr().err
        assert err == "error: line %d: feature entry is not a JSON string\n" % (i + 2)

    def test_model_that_is_not_utf8_fails_cleanly(self, model_path, corpus_files):
        _, test = corpus_files
        data = bytearray(model_path.read_bytes())
        data[200:202] = b"\xff\xfe"
        model_path.write_bytes(bytes(data))
        line = data[:201].count(b"\n") + 1
        code, _, err = run_captured(["tag", "--model", model_path, "--input", test])
        assert code == 1
        assert err.startswith("error: line %d: not UTF-8: " % line)

    @settings(max_examples=100, deadline=None)
    @given(conll_texts())
    def test_random_input_files(self, shared_model, text_rows):
        """picrf tag takes the last column as gold only when every row has
        two, so it reads any file and tags every token in order. picrf
        train needs a label column besides the token on every row, so on a
        file with a bad row it exits 1 naming that row."""
        text, rows = text_rows
        path = shared_model / "input.conll"
        write_new(path, text.encode("utf-8"))
        code, out, err = run_captured(["tag", "--model", shared_model / "model.txt", "--input", path])
        assert (code, err) == (0, "")
        tagged = [line.split("\t")[0] for line in out.split("\n") if line]
        assert tagged == [cells[0] for cells in rows if cells]
        _, bad_line = conll_reference(rows, 0, -1)
        if bad_line is not None:
            code, _, err = run_captured(["train", "--train", path, "--out", shared_model / "unused"])
            assert code == 1
            assert "line %d: " % bad_line in err

    @settings(max_examples=200, deadline=None)
    @given(conll_texts())
    def test_reads_labels_exactly_when_every_row_has_two_columns(self, shared_model, text_rows):
        """The input picrf tag reads holds gold labels, in its last column,
        exactly when every non-blank row has at least two columns; either
        way its sentences are the ones the row-by-row reference reads."""
        text, rows = text_rows
        path = shared_model / "maybe-labeled.conll"
        write_new(path, text.encode("utf-8"))
        labeled = all(len(cells) >= 2 for cells in rows if cells)
        expected, bad_line = conll_reference(rows, 0, -1 if labeled else None)
        assert bad_line is None
        sentences = _read_maybe_labeled(path)
        assert [(s.texts, s.labels) for s in sentences] == expected


class TestEval:
    def test_gold_vs_pred_files(self, corpus_files, tmp_path, capsys):
        _, test = corpus_files
        pred = tmp_path / "pred.conll"
        pred.write_text(TEST_TEXT)  # perfect predictions
        assert run(["eval", "--gold", test, "--pred", pred]) == 0
        out = capsys.readouterr().out
        assert "f1" in out and "1.0000" in out

    @pytest.mark.parametrize(
        "gold_text, pred_text, message",
        [
            ("a\tB-A\nb\tO\n", "x\tB-A\ny\tO\n", "sentence 0, token 0: gold has 'a'"
             " but the predictions have 'x'"),
            (TEST_TEXT, TEST_TEXT.replace("corp", "inc"), "sentence 1, token 1: gold has"
             " 'corp' but the predictions have 'inc'"),
        ],
    )
    def test_pred_with_other_tokens_rejected(self, tmp_path, gold_text, pred_text, message):
        gold, pred = tmp_path / "gold.conll", tmp_path / "pred.conll"
        gold.write_text(gold_text)
        pred.write_text(pred_text)
        code, out, err = run_captured(["eval", "--gold", gold, "--pred", pred])
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    def test_invalid_predicted_label_names_its_sentence(self, corpus_files, tmp_path):
        _, test = corpus_files
        pred = tmp_path / "pred.conll"
        pred.write_text(TEST_TEXT.replace("corp\tI-ORG", "corp\tX"))
        code, out, err = run_captured(["eval", "--gold", test, "--pred", pred])
        assert (code, out) == (1, "")
        assert err == "error: sentence 1: invalid predicted labels: not an IOB2 label: 'X'\n"

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

    @pytest.mark.parametrize("source", ["--pred", "--model"])
    def test_neither_gold_nor_input_rejected(self, corpus_files, capsys, source):
        _, test = corpus_files
        assert run(["eval", source, test]) == 1
        assert capsys.readouterr().err == "error: need --gold or --input for the gold labels\n"


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

    @pytest.mark.parametrize("direction", ["induce", "revert"])
    def test_corpus_without_entity_types_fails_cleanly(self, tmp_path, direction):
        plain = tmp_path / "plain.conll"
        plain.write_text("nothing\tO\nhere\tO\n")
        code, out, err = run_captured(["transform", "--input", plain, "--direction", direction])
        assert (code, out, err) == (1, "", "error: no entity types found in the corpus\n")

    @pytest.mark.parametrize(
        "labels, message",
        [
            ("O I-A", "position 1: I-A does not continue a A chunk"),
            ("B-A A[O]", "not an IOB2 label: 'A[O]'"),
        ],
    )
    def test_a_sentence_induce_cannot_take_is_named(self, tmp_path, labels, message):
        """Every label of the corpus's alphabet reverts, so only induce,
        which takes strict IOB2, fails on a sentence."""
        path = tmp_path / "input.conll"
        second = "".join("w%d\t%s\n" % (i, label) for i, label in enumerate(labels.split()))
        path.write_text("a\tB-A\nb\tO\n\n" + second)
        code, out, err = run_captured(["transform", "--input", path, "--direction", "induce"])
        assert (code, out, err) == (1, "", "error: sentence 1: %s\n" % message)
        assert run_captured(["transform", "--input", path, "--direction", "revert"])[0] == 0


class TestSynth:
    def test_writes_parseable_corpus(self, tmp_path):
        out = tmp_path / "synth.conll"
        assert run(["synth", "--types", 3, "--sentences", 25, "--seed", 5,
                    "--out", out]) == 0
        sentences = read_conll(out.read_text().splitlines(True), label_column=-1)
        assert len(sentences) == 25
        types = {l.split("-", 1)[1] for s in sentences for l in s.labels if l != "O"}
        assert types == {"A", "B", "C"}

    def test_empty_gap_range_fails_cleanly(self):
        code, out, err = run_captured(["synth", "--gap-min", 5, "--gap-max", 2])
        assert code == 1 and out == ""
        assert "--gap-min 5 is greater than --gap-max 2" in err

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
        assert out.splitlines()[1].split()[-2:] == ["s/iteration", "iters"]
        rows = [json.loads(line) for line in report.read_text().splitlines()]
        assert [r["order"] for r in rows] == ["first", "pre-induced"]
        for row, line in zip(rows, out.splitlines()[2:]):
            assert 1 <= row["iterations"] <= 40 and row["seconds_per_iteration"] > 0.0
            assert line.split()[-1] == str(row["iterations"])

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

    @pytest.mark.parametrize("missing", ["--train", "--test"])
    def test_compare_without_a_corpus_is_a_usage_error(self, corpus_files, capsys, missing):
        train, test = corpus_files
        args = {"--train": train, "--test": test}
        del args[missing]
        with pytest.raises(SystemExit) as exc:
            run(["bench", "compare", *(a for pair in args.items() for a in pair)])
        assert exc.value.code == 2
        assert "bench compare needs %s" % missing in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "orders, message",
        [
            ("", "need at least one order"),
            (" , ", "need at least one order"),
            ("first,pre-induced,first", "order first is repeated"),
            ("first,third", "--orders: invalid value 'third'"),
        ],
    )
    def test_bad_orders_fail_cleanly(self, orders, message):
        code, out, err = run_captured(
            ["bench", "longdistance", "--orders", orders, "--train-size", 10, "--test-size", 5]
        )
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "feature_sets, message",
        [
            ("1,a", "--feature-sets: invalid value 'a'"),
            ("", "need at least one feature set"),
            ("2,1,2", "feature set 2 is repeated"),
        ],
    )
    def test_bad_feature_sets_fail_cleanly(self, corpus_files, feature_sets, message):
        train, test = corpus_files
        code, out, err = run_captured(
            ["bench", "compare", "--train", train, "--test", test, "--feature-sets", feature_sets]
        )
        assert (code, out, err) == (1, "", "error: %s\n" % message)

    def test_empty_gap_range_fails_cleanly(self):
        code, out, err = run_captured(
            ["bench", "longdistance", "--gap-min", 5, "--gap-max", 2, "--train-size", 10,
             "--test-size", 5]
        )
        assert code == 1 and out == ""
        assert "--gap-min 5 is greater than --gap-max 2" in err

    def test_window_spanning_gap_fails_cleanly(self, capsys):
        code = run(["bench", "longdistance", "--gap-min", 1, "--train-size", 10,
                    "--test-size", 5])
        assert code == 1
        assert "window" in capsys.readouterr().err


def _readme_command_lines() -> list[str]:
    """The picrf lines of README's "Command line" block, continuation
    lines joined at their backslashes."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    joined = block.replace("\\\n", " ")
    return [line for line in joined.splitlines() if line.startswith("picrf ")]


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()


def test_readme_command_lines_parse():
    """Every command README shows parses, so the docs cannot keep a flag
    the parser has lost."""
    lines = _readme_command_lines()
    assert len(lines) >= 10
    parser = build_parser()
    for line in lines:
        words = shlex.split(line)
        assert "\\" not in words, line
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                parser.parse_args(words[1:])
            except SystemExit:
                pytest.fail("%s\n%s" % (line, err.getvalue()))
