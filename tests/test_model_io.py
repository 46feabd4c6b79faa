import io
import random

import numpy as np
import pytest

from oracles import random_corpus
from picrf.corpus import Sentence
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
