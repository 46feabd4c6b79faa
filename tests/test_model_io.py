import contextlib
import io
import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_corpus
from picrf import crf, model_io
from picrf.cli import main
from picrf.corpus import Sentence, write_conll
from picrf.crf_types import ModelOrder
from picrf.features import TemplateConfig
from picrf.model_io import FORMAT_LINE, Model, ModelFormatError, load_model, save_model
from picrf.training import TrainConfig, train


@pytest.fixture(scope="module")
def trained():
    corpus = random_corpus(random.Random(41), ["DNA", "RNA"], 12, min_len=2, max_len=6)
    out = {}
    for order in ModelOrder:
        config = TrainConfig(
            model_order=order,
            template=TemplateConfig(set_id=2, min_feature_count=1),
            max_iterations=25,
        )
        out[order] = (train(corpus, config)[0], corpus)
    return out


def roundtrip(model, tmp_path, name="model.txt"):
    path = tmp_path / name
    save_model(model, path)
    return load_model(path), path


class TestRoundTrip:
    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_identical_weights_and_decodes(self, trained, tmp_path, order):
        model, corpus = trained[order]
        loaded, _ = roundtrip(model, tmp_path, "m-%s.txt" % order)
        assert np.array_equal(loaded.weights, model.weights)
        assert loaded.order == model.order
        assert loaded.alphabet.expanded_labels == model.alphabet.expanded_labels
        assert loaded.template == model.template
        assert loaded.index.features == model.index.features
        probe = [Sentence.from_strings(s.texts) for s in corpus[:5]]
        probe.append(Sentence.from_strings(["zzz", "unseen", "tokens"]))
        for sentence in probe:
            assert loaded.decode(sentence) == model.decode(sentence)

    def test_file_object_round_trip(self, trained):
        model, _ = trained[ModelOrder.FIRST]
        buffer = io.StringIO()
        save_model(model, buffer)
        loaded = load_model(io.StringIO(buffer.getvalue()))
        assert np.array_equal(loaded.weights, model.weights)

    def test_format_line_first(self, trained, tmp_path):
        model, _ = trained[ModelOrder.FIRST]
        _, path = roundtrip(model, tmp_path)
        assert path.read_text().splitlines()[0] == FORMAT_LINE

    def test_decode_empty_sentence(self, trained):
        model, _ = trained[ModelOrder.PRE_INDUCED]
        assert model.decode(Sentence.from_strings([])) == []

    def test_decodes_are_base_labels(self, trained):
        model, corpus = trained[ModelOrder.PRE_INDUCED]
        for sentence in corpus[:6]:
            for label in model.decode(Sentence.from_strings(sentence.texts)):
                assert label in model.alphabet.base_labels


def _decode_corpus():
    """Unlabeled sentences of mixed lengths with empty ones interleaved;
    many share a length, so the packed layout's widths hold ties."""
    rng = random.Random(43)
    corpus = random_corpus(rng, ["DNA", "RNA"], 30, min_len=1, max_len=9)
    corpus += random_corpus(rng, ["DNA", "RNA"], 9, min_len=3, max_len=3)
    rng.shuffle(corpus)
    sentences = [Sentence.from_strings(s.texts) for s in corpus]
    for i in range(0, len(sentences) + 8, 8):
        sentences.insert(i, Sentence.from_strings([]))
    return sentences


class TestCorpusDecode:
    @pytest.mark.parametrize(
        "order, constrained",
        [
            (ModelOrder.FIRST, False),
            (ModelOrder.PRE_INDUCED, False),
            (ModelOrder.PRE_INDUCED, True),
            (ModelOrder.SECOND, False),
        ],
    )
    @pytest.mark.parametrize(
        "viterbi_rows",
        [None, 2, 1, 3],
        ids=["default", "viterbi2", "viterbi1", "viterbi3"],
    )
    def test_corpus_decode_equals_per_sentence_decode(
        self, trained, order, constrained, viterbi_rows
    ):
        """viterbi_rows = rows per Viterbi slice. Each setting splits every
        step wider than it into several slices, whose boundaries then fall
        inside the block of sentences that end at a position, so the decode
        crosses every boundary of the batched path."""
        model, _ = trained[order]
        corpus = _decode_corpus()
        with pytest.MonkeyPatch.context() as patch:
            if viterbi_rows:
                patch.setattr(crf, "_VITERBI_BUDGET", viterbi_rows * model.space.n_states**2)
                lengths = Counter(len(s) for s in corpus if len(s))
                assert max(lengths.values()) > viterbi_rows
            batched = model.decode_corpus(corpus, constrained=constrained)
        single = [model.decode(s, constrained=constrained) for s in corpus]
        assert batched == single
        assert [len(labels) for labels in batched] == [len(s) for s in corpus]

    def test_empty_corpus(self, trained):
        model, _ = trained[ModelOrder.FIRST]
        assert model.decode_corpus([]) == []
        assert model.decode_corpus([Sentence.from_strings([])] * 2) == [[], []]


def _lines(model):
    buffer = io.StringIO()
    save_model(model, buffer)
    return buffer.getvalue().splitlines()


def _load_lines(lines):
    return load_model(io.StringIO("".join(line + "\n" for line in lines)))


class TestTampering:
    @pytest.fixture()
    def model(self, trained):
        return trained[ModelOrder.PRE_INDUCED][0]

    def test_wrong_format_line(self, model):
        lines = _lines(model)
        lines[0] = "picrf model format 2"
        with pytest.raises(ModelFormatError, match="format"):
            _load_lines(lines)

    def test_empty_file(self):
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(""))

    def test_truncation(self, model):
        lines = _lines(model)
        with pytest.raises(ModelFormatError, match="truncated"):
            _load_lines(lines[: len(lines) // 2])

    @pytest.mark.parametrize("per_read", [None, 9])
    def test_truncation_inside_the_weights(self, model, per_read):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        cut = i + 1 + int(lines[i].split()[1]) // 2
        with pytest.MonkeyPatch.context() as patch:
            if per_read:
                patch.setattr(model_io, "_WEIGHT_LINES_PER_READ", per_read)
            with pytest.raises(ModelFormatError, match="truncated at line %d$" % (cut + 1)):
                _load_lines(lines[:cut])

    def test_missing_end_marker(self, model):
        lines = _lines(model)
        assert lines[-1] == "end"
        with pytest.raises(ModelFormatError):
            _load_lines(lines[:-1])

    def test_unknown_order(self, model):
        lines = _lines(model)
        assert lines[1].startswith("order: ")
        lines[1] = "order: third"
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    def test_wrong_effective_states(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("effective_states:"))
        lines[i] = "effective_states: 999"
        with pytest.raises(ModelFormatError, match="effective states"):
            _load_lines(lines)

    def test_wrong_transition_params(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("transition_params:"))
        lines[i] = "transition_params: 1"
        with pytest.raises(ModelFormatError, match="transition"):
            _load_lines(lines)

    def test_weight_count_mismatch(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        declared = int(lines[i].split()[1])
        lines[i] = "weights: %d" % (declared - 1)
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    def test_non_numeric_weight(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        lines[i + 1] = "not-a-number"
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    @pytest.mark.parametrize("per_read", [None, 9])
    def test_non_numeric_weight_names_its_line(self, model, per_read):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        bad = i + 1 + int(lines[i].split()[1]) // 2
        lines[bad] = "0.5x"
        lines[bad + 3] = "also-not-a-number"
        with pytest.MonkeyPatch.context() as patch:
            if per_read:
                patch.setattr(model_io, "_WEIGHT_LINES_PER_READ", per_read)
            with pytest.raises(
                ModelFormatError, match="line %d: weight entry is not a number: '0.5x'" % (bad + 1)
            ):
                _load_lines(lines)

    def test_weights_written_in_slices_format_each_weight(self, model, monkeypatch):
        """The slice-at-a-time save writes the text "%.17g\\n" % w gives
        for each weight, across slice boundaries and at the edges of the
        float64 range, and loads back bit-identically."""
        monkeypatch.setattr(model_io, "_WEIGHT_LINES_PER_READ", 9)
        special = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 3.0, 1e16, 1e-5]
        weights = model.weights.copy()
        weights[: len(special)] = special
        weights[-len(special) :] = [-w for w in special]
        assert weights.size % 9
        model = Model(model.order, model.alphabet, model.template, model.index, weights)
        buffer = io.StringIO()
        save_model(model, buffer)
        header = "weights: %d\n" % weights.size
        assert buffer.getvalue().split(header)[1] == "".join("%.17g\n" % w for w in weights) + "end\n"
        loaded = load_model(io.StringIO(buffer.getvalue()))
        assert loaded.weights.tobytes() == weights.tobytes()

    def test_weights_read_in_slices_load_bit_identically(self, model, monkeypatch):
        monkeypatch.setattr(model_io, "_WEIGHT_LINES_PER_READ", 9)
        assert model.weights.size % 9
        loaded = _load_lines(_lines(model))
        assert loaded.weights.tobytes() == model.weights.tobytes()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, model, text):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        lines[i + 3] = text
        with pytest.raises(ModelFormatError, match="line %d: weight entry is not finite" % (i + 4)):
            _load_lines(lines)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected_at_construction(self, model, value):
        weights = model.weights.copy()
        weights[[3, 5]] = value
        with pytest.raises(ModelFormatError, match="weight slot 3 is not finite"):
            Model(model.order, model.alphabet, model.template, model.index, weights)

    def test_malformed_feature_line(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("features:"))
        lines[i + 1] = "{unterminated"
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    @pytest.mark.parametrize(
        "bad_lines, message",
        [
            (['"a","b"'], "feature entry is not a JSON string"),
            (["5"], "feature entry is not a string"),
            # the third line's extra string restores the item count
            (['"opened here', 'closed here"', '"c","d"'], "feature entry is not a JSON string"),
            ([""], "feature entry is not a JSON string"),
        ],
        ids=["two-strings", "number", "string-across-lines", "empty"],
    )
    def test_malformed_feature_line_names_its_line(self, model, bad_lines, message):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("features:"))
        bad = i + 1 + int(lines[i].split()[1]) // 2
        lines[bad : bad + len(bad_lines)] = bad_lines
        with pytest.raises(ModelFormatError, match="^line %d: %s$" % (bad + 1, message)):
            _load_lines(lines)

    def test_truncation_inside_the_features(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("features:"))
        cut = i + 1 + int(lines[i].split()[1]) // 2
        with pytest.raises(ModelFormatError, match="truncated at line %d$" % (cut + 1)):
            _load_lines(lines[:cut])

    def test_misspelled_key(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("labels:"))
        lines[i] = lines[i].replace("labels:", "labls:")
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    def test_label_inventory_must_match_types(self, model):
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line == "B-DNA")
        lines[i] = "B-XXX"
        with pytest.raises(ModelFormatError):
            _load_lines(lines)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "absent.txt")


# Junk that is never a number, a JSON string, a key line or a label.
_JUNK = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6
).map("#".__add__)
_DAMAGE = ("junk", "junk-value", "empty", "duplicate", "truncate")


def _damaged(lines, kind, i, junk="#"):
    """The lines with line i replaced by junk, with junk in place of its
    value (after "key: ", else appended), emptied or duplicated, or with the
    file cut before line i."""
    lines = list(lines)
    if kind == "junk":
        lines[i] = junk
    elif kind == "junk-value":
        key, sep, _ = lines[i].partition(": ")
        lines[i] = key + sep + junk
    elif kind == "empty":
        lines[i] = ""
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    else:
        del lines[i:]
    return lines


@pytest.fixture(scope="module")
def small_file(tmp_path_factory):
    """The lines of a small saved pre-induced model (feature set 2) and a
    directory with an unlabeled file to tag."""
    corpus = random_corpus(random.Random(41), ["DNA", "RNA"], 12, min_len=2, max_len=6)
    config = TrainConfig(
        model_order=ModelOrder.PRE_INDUCED,
        template=TemplateConfig(set_id=2, min_feature_count=2),
        max_iterations=25,
    )
    directory = tmp_path_factory.mktemp("damaged")
    unlabeled = [Sentence.from_strings(s.texts) for s in corpus[:4]]
    (directory / "input.conll").write_text(write_conll(unlabeled), encoding="utf-8")
    return _lines(train(corpus, config)[0]), directory


class TestDamagedFiles:
    """A saved file with one line damaged fails to load with
    ModelFormatError, never another exception type."""

    @pytest.mark.parametrize("kind", _DAMAGE)
    def test_every_line(self, small_file, kind):
        lines, _ = small_file
        assert _load_lines(lines).weights.size
        for i in range(len(lines)):
            with pytest.raises(ModelFormatError):
                _load_lines(_damaged(lines, kind, i))

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(_DAMAGE), st.integers(min_value=0), _JUNK)
    def test_random_damage(self, small_file, kind, at, junk):
        """Also through picrf tag, which exits 1."""
        lines, directory = small_file
        damaged = _damaged(lines, kind, at % len(lines), junk)
        with pytest.raises(ModelFormatError):
            _load_lines(damaged)
        path = directory / "model.txt"
        path.write_text("".join(line + "\n" for line in damaged), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["tag", "--model", str(path), "--input", str(directory / "input.conll")])
        assert code == 1 and err.getvalue().startswith("error: ")

    @pytest.mark.parametrize(
        "key,value,culprits",
        [
            ("window_offsets", "3", ('"W[', '"NW[')),
            ("window_offsets", "-1 0", ('"W[1]=', '"NW[1]=')),
            ("use_normalized", "2", ("use_normalized:",)),
            ("use_normalized", "0", ('"NW[',)),
            ("template_set", "1", ('"PRE[', '"SUF[')),
            ("affix_lengths", "3 4", ('"PRE[2]=', '"SUF[2]=')),
        ],
    )
    def test_template_that_cannot_emit_the_features(self, small_file, key, value, culprits):
        """A template edited so that it no longer emits every saved feature
        is rejected, naming the first line that does not fit."""
        lines, _ = small_file
        damaged = [key + ": " + value if line.startswith(key + ": ") else line for line in lines]
        named = next(i for i, line in enumerate(damaged) if line.startswith(culprits)) + 1
        with pytest.raises(ModelFormatError, match="^line %d: " % named):
            _load_lines(damaged)

    @pytest.mark.parametrize(
        "feature", ["W[7]=a", "NW[-2]=a", "PRE[9]=abcdefghi", "SUF[1]=a", "SHAPE=Aa", "BIAS2", ""]
    )
    def test_feature_the_template_cannot_emit(self, small_file, feature):
        lines, _ = small_file
        i = next(i for i, line in enumerate(lines) if line.startswith("weights: ")) - 1
        damaged = list(lines)
        damaged[i] = json.dumps(feature)
        with pytest.raises(ModelFormatError, match="^line %d: " % (i + 1)):
            _load_lines(damaged)

    def test_other_integers_in_header_values(self, small_file):
        """A header value replaced by another integer, negative ones
        included, may still describe a loadable model; else loading fails
        with ModelFormatError."""
        lines, _ = small_file
        for i, line in enumerate(lines):
            key, sep, _ = line.partition(": ")
            for number in range(-3, 4) if sep else ():
                damaged = list(lines)
                damaged[i] = "%s: %d" % (key, number)
                try:
                    _load_lines(damaged)
                except ModelFormatError:
                    pass
