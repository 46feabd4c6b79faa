import base64
import contextlib
import hashlib
import io
import json
import math
import os
import random
import stat
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    format_1_lines,
    format_2_lines,
    format_3_lines,
    random_corpus,
    weight_block,
    write_new,
)
from picrf import crf, model_io
from picrf.cli import main
from picrf.corpus import Sentence, SynthConfig, generate_synthetic, write_conll
from picrf.crf_types import ModelOrder
from picrf.features import TemplateConfig, make_feature_index
from picrf.model_io import (
    FORMAT_1_LINE,
    FORMAT_2_LINE,
    FORMAT_LINE,
    Model,
    ModelFormatError,
    load_model,
    save_model,
)
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

    @pytest.mark.parametrize("order", list(ModelOrder))
    def test_three_formats_load_and_tag_alike(self, trained, tmp_path, order):
        """A model saved as format 1, 2 and 3 loads to bit-identical
        weights, and picrf tag writes byte-identical output from each."""
        model, corpus = trained[order]
        raw = tmp_path / "raw.conll"
        raw.write_text(write_conll([Sentence.from_strings(s.texts) for s in corpus]))
        modes = [[], ["--constrained"]] if order == ModelOrder.PRE_INDUCED else [[]]
        saved = _lines(model)
        tagged = {}
        for version, lines in [(1, format_1_lines(saved)), (2, format_2_lines(saved)), (3, saved)]:
            path = tmp_path / ("model-%d.txt" % version)
            path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
            assert lines[0] == "picrf model format %d" % version
            assert load_model(path).weights.tobytes() == model.weights.tobytes()
            for mode in modes:
                out = tmp_path / ("tagged-%d%s.conll" % (version, "".join(mode)))
                args = ["tag", "--model", str(path), "--input", str(raw), "--output", str(out)]
                assert main(args + mode) == 0
                tagged.setdefault(tuple(mode), set()).add(out.read_bytes())
        assert all(len(outputs) == 1 for outputs in tagged.values())

    def test_decode_empty_sentence(self, trained):
        model, _ = trained[ModelOrder.PRE_INDUCED]
        assert model.decode(Sentence.from_strings([])) == []

    def test_decodes_are_base_labels(self, trained):
        model, corpus = trained[ModelOrder.PRE_INDUCED]
        for sentence in corpus[:6]:
            for label in model.decode(Sentence.from_strings(sentence.texts)):
                assert label in model.alphabet.base_labels


FORMAT_1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "format1_pre_induced.txt")


class TestFormat1File:
    """A small pre-induced model saved in format 1 by the %.17g writer
    that format 2 replaced (12 sentences, feature set 1, 184 weights)."""

    @pytest.fixture(scope="class")
    def model(self):
        return load_model(FORMAT_1_FIXTURE)

    def test_loads_the_weights_it_prints(self, model):
        with open(FORMAT_1_FIXTURE, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == FORMAT_1_LINE
        first = lines.index("weights: 184") + 1
        assert lines[first + 184 :] == ["end"]
        printed = np.array([float(line) for line in lines[first : first + 184]])
        assert model.weights.tobytes() == printed.tobytes()
        assert hashlib.sha256(model.weights.astype("<f8").tobytes()).hexdigest() == (
            "5541949d44459180c7865eb6a4c9ea8510b78a30a9da4e168615a389f8e4a2dd"
        )
        assert model.order == ModelOrder.PRE_INDUCED
        assert model.alphabet.entity_types == ("DNA", "RNA")

    @pytest.mark.parametrize("constrained", [False, True])
    def test_decodes_pinned_sentences(self, model, constrained):
        pinned = [
            ("zzz unseen tokens 2 g", "O B-RNA B-DNA B-DNA I-DNA"),
            ("e d1a 1cg-X", "O B-RNA B-DNA"),
            ("dc- 1-3e egY3X aXd2Y h", "O O B-RNA B-DNA I-DNA"),
            ("2 g 2", "B-RNA I-RNA I-RNA"),
        ]
        sentences = [Sentence.from_strings(text.split()) for text, _ in pinned]
        decoded = model.decode_corpus(sentences, constrained=constrained)
        assert [" ".join(labels) for labels in decoded] == [labels for _, labels in pinned]

    def test_saves_again_as_format_3(self, model, tmp_path):
        """The text the format 3 oracle writes for the file's weights."""
        loaded, path = roundtrip(model, tmp_path)
        with open(FORMAT_1_FIXTURE, encoding="utf-8") as handle:
            lines = format_3_lines(handle.read().splitlines())
        assert path.read_text(encoding="utf-8") == "".join(line + "\n" for line in lines)
        assert lines[0] == FORMAT_LINE
        first, weights = weight_block(lines)
        assert lines[first - 1] == "weights: 184" and lines[first + 184 :] == ["end"]
        assert weights.tobytes() == model.weights.tobytes()
        assert loaded.weights.tobytes() == model.weights.tobytes()
        assert loaded.index.features == model.index.features


SECOND_ORDER_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "format2_second.txt")


class TestSecondOrderFile:
    """A small second-order model saved in format 2 (16 sentences, 2
    types, feature set 1, 275 weights) before the start and transition
    slot tables became one move table: its pair-transition weights must
    stay in the slots the file puts them in."""

    @pytest.fixture(scope="class")
    def model(self):
        return load_model(SECOND_ORDER_FIXTURE)

    def test_loads_its_weights(self, model):
        assert hashlib.sha256(model.weights.astype("<f8").tobytes()).hexdigest() == (
            "91d45ffa8523c54c75391a1c91eae92d80f27f8326590d8f6a9daf7870e92d95"
        )
        assert model.order == ModelOrder.SECOND
        assert model.alphabet.entity_types == ("DNA", "RNA")
        assert model.weights.size - model.index.n_parameters == 155

    def test_decodes_pinned_sentences(self, model):
        pinned = [
            ("zzz unseen tokens 2 g", "O B-RNA B-RNA B-DNA I-DNA"),
            ("e d1a 1cg-X", "O B-DNA B-DNA"),
            ("311abX agYeY db3f3h 02", "O B-RNA B-RNA B-DNA"),
            ("2 g 2", "B-RNA I-RNA I-RNA"),
        ]
        sentences = [Sentence.from_strings(text.split()) for text, _ in pinned]
        decoded = model.decode_corpus(sentences)
        assert [" ".join(labels) for labels in decoded] == [labels for _, labels in pinned]

    def test_saves_the_same_bytes(self, model):
        """Saved again, as format 3, the file is the text the format 3
        oracle writes for its weights; written back as format 2 by the
        oracle, it is the file itself."""
        buffer = io.StringIO()
        save_model(model, buffer)
        with open(SECOND_ORDER_FIXTURE, encoding="utf-8") as handle:
            text = handle.read()
        lines = text.splitlines()
        assert lines[0] == FORMAT_2_LINE
        assert buffer.getvalue() == "".join(line + "\n" for line in format_3_lines(lines))
        resaved = format_2_lines(buffer.getvalue().splitlines())
        assert "".join(line + "\n" for line in resaved) == text


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
        """viterbi_rows = rows per Viterbi chunk. Each setting splits every
        step wider than it into several chunks, whose boundaries then fall
        inside the block of sentences that end at a position, so the decode
        crosses every boundary of the batched path."""
        model, _ = trained[order]
        corpus = _decode_corpus()
        with pytest.MonkeyPatch.context() as patch:
            if viterbi_rows:
                budget = viterbi_rows * math.prod(model.space.move_block)
                patch.setattr(crf, "_VITERBI_BUDGET", budget)
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


def _all_formats(lines):
    """A saved model's lines in format 3, as saved, and as the oracles
    write formats 2 and 1, by version."""
    return {3: lines, 2: format_2_lines(lines), 1: format_1_lines(lines)}


class TestTampering:
    @pytest.fixture()
    def model(self, trained):
        return trained[ModelOrder.PRE_INDUCED][0]

    def test_wrong_format_line(self, model):
        for lines in _all_formats(_lines(model)).values():
            assert _load_lines(lines).weights.tobytes() == model.weights.tobytes()
            lines[0] = "picrf model format 4"
            with pytest.raises(ModelFormatError, match="format"):
                _load_lines(lines)

    def test_empty_file(self):
        with pytest.raises(ModelFormatError):
            load_model(io.StringIO(""))

    def test_truncation(self, model):
        lines = _lines(model)
        with pytest.raises(ModelFormatError, match="truncated"):
            _load_lines(lines[: len(lines) // 2])

    def test_truncation_inside_the_weights(self, model):
        lines = format_1_lines(_lines(model))
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        cut = i + 1 + int(lines[i].split()[1]) // 2
        with pytest.raises(ModelFormatError, match="truncated at line %d$" % (cut + 1)):
            _load_lines(lines[:cut])

    @pytest.mark.parametrize("version", [3, 2])
    def test_truncation_inside_the_weight_block(self, model, version):
        lines = _all_formats(_lines(model))[version]
        first, _ = weight_block(lines)
        cut = first + (len(lines) - 1 - first) // 2
        assert first < cut < len(lines) - 2
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
        for lines in _all_formats(_lines(model)).values():
            i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
            lines[i + 1] = "not-a-number"
            with pytest.raises(ModelFormatError):
                _load_lines(lines)

    def test_non_numeric_weight_names_its_line(self, model):
        lines = format_1_lines(_lines(model))
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        bad = i + 1 + int(lines[i].split()[1]) // 2
        lines[bad] = "0.5x"
        lines[bad + 3] = "also-not-a-number"
        with pytest.raises(
            ModelFormatError, match="line %d: weight entry is not a number: '0.5x'" % (bad + 1)
        ):
            _load_lines(lines)

    @pytest.mark.parametrize(
        "damage",
        [
            "bad-character",
            "non-ascii",
            "dropped-line",
            "short-line",
            "wrong-byte-count",
            "padding",
            "padding-mid-line",
            "break-moved-right",
            "break-moved-left",
            "trailing-space",
            "last-line-short",
        ],
    )
    def test_damaged_base64_block_names_its_line(self, model, damage):
        """Each damage to a format 2 base64 block is rejected, naming the
        first line that is not what base64.encodebytes writes; a line break
        moved by one character leaves the joined text valid base64 of the
        right length, and is rejected all the same."""
        lines = format_2_lines(_lines(model))
        first, weights = weight_block(lines)
        last = len(lines) - 2
        assert weights.size * 8 % 57 and len(lines[last]) < 76
        bad = (first + last) // 2
        if damage == "bad-character":
            lines[bad] = lines[bad][:30] + "*" + lines[bad][31:]
        elif damage == "non-ascii":
            lines[bad] = lines[bad][:30] + "\u00e9" + lines[bad][31:]
        elif damage == "dropped-line":
            # the lines after it move up one: the former last line, short,
            # now stands where a full line belongs
            del lines[bad]
            bad = last - 1
        elif damage == "short-line":
            lines[bad] = lines[bad][:-4]
        elif damage == "padding-mid-line":
            lines[bad] = lines[bad][:30] + "=" + lines[bad][31:]
        elif damage == "break-moved-right":
            lines[bad], lines[bad + 1] = lines[bad] + lines[bad + 1][0], lines[bad + 1][1:]
        elif damage == "break-moved-left":
            lines[bad], lines[bad + 1] = lines[bad][:-1], lines[bad][-1] + lines[bad + 1]
        elif damage == "trailing-space":
            lines[bad] += " "
        elif damage == "last-line-short":
            # its padding kept; a slice of the block's width ends in "e" of "end"
            lines[last] = lines[last][:1] + lines[last][2:]
            bad = last
        elif damage == "wrong-byte-count":
            # valid base64 of one byte fewer than the last line holds
            tail = base64.b64decode(lines[last])
            lines[last] = base64.b64encode(tail[:-1]).decode()
            bad = last
        else:
            # b64decode alone accepts padding after a complete group
            lines[bad] += "=="
        with pytest.raises(ModelFormatError, match="^line %d: weight line is not " % (bad + 1)):
            _load_lines(lines)

    @pytest.mark.parametrize(
        "damage",
        [
            "bad-character",
            "uppercase",
            "non-ascii",
            "dropped-line",
            "empty-line",
            "short-line",
            "long-line",
            "spaces-for-digits",
            "break-moved-right",
            "break-moved-two-right",
            "trailing-space",
            "last-line-short",
        ],
    )
    def test_damaged_hex_block_names_its_line(self, model, damage):
        """Each damage to a format 3 block is rejected, naming the first
        line that is not 16 lowercase hex digits. Three of them pass
        bytes.fromhex: uppercase digits, which it reads; a line break moved
        by two characters, which leaves valid hex of the right length; and
        two spaces in place of two digits, which it skips, one byte short."""
        lines = _lines(model)
        first, weights = weight_block(lines)
        last = first + weights.size - 1
        assert lines[last + 1] == "end"
        bad = next(k for k in range((first + last) // 2, last) if set(lines[k]) & set("abcdef"))
        line, after = lines[bad], lines[bad + 1]
        if damage == "bad-character":
            lines[bad] = line[:5] + "g" + line[6:]
        elif damage == "uppercase":
            lines[bad] = line.upper()
        elif damage == "non-ascii":
            lines[bad] = line[:5] + "\u00e9" + line[6:]
        elif damage == "dropped-line":
            # the lines after it move up one, and "end" takes the last one's place
            del lines[bad]
            bad = last
        elif damage == "empty-line":
            lines[bad] = ""
        elif damage == "short-line":
            lines[bad] = line[:-2]
        elif damage == "long-line":
            lines[bad] = line + "00"
        elif damage == "spaces-for-digits":
            lines[bad] = line[:-2] + "  "
        elif damage == "break-moved-right":
            lines[bad], lines[bad + 1] = line + after[0], after[1:]
        elif damage == "break-moved-two-right":
            lines[bad], lines[bad + 1] = line + after[:2], after[2:]
        elif damage == "trailing-space":
            lines[bad] = line + " "
        else:
            # a slice of the block's width ends in "e" of "end"
            lines[last] = lines[last][:-1]
            bad = last
        message = "^line %d: weight line is not 16 lowercase hex digits: " % (bad + 1)
        with pytest.raises(ModelFormatError, match=message):
            _load_lines(lines)

    def test_edge_weights_round_trip_bit_exactly(self, model):
        """Format 3 writes each weight as the hex of its little-endian
        float64 bytes, and a format 2 file, base64.encodebytes of those
        bytes, and a format 1 file, one "%.17g" line per weight, load to
        the same weights: at the edges of the float64 range."""
        special = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 3.0, 1e16, 1e-5]
        weights = model.weights.copy()
        weights[: len(special)] = special
        weights[-len(special) :] = [-w for w in special]
        model = Model(model.order, model.alphabet, model.template, model.index, weights)
        buffer = io.StringIO()
        save_model(model, buffer)
        header = "weights: %d\n" % weights.size
        block = "".join(struct.pack("<d", w).hex() + "\n" for w in weights.tolist())
        assert buffer.getvalue().split(header)[1] == block + "end\n"
        assert block.startswith("0000000000000080\n0100000000000000\n")
        loaded = load_model(io.StringIO(buffer.getvalue()))
        assert loaded.weights.tobytes() == weights.tobytes()
        lines = buffer.getvalue().splitlines()
        text = format_2_lines(lines)
        block = base64.encodebytes(weights.astype("<f8").tobytes()).decode("ascii")
        assert "".join(line + "\n" for line in text).split(header)[1] == block + "end\n"
        assert _load_lines(text).weights.tobytes() == weights.tobytes()
        text = format_1_lines(lines)
        assert text[text.index(header.strip()) + 1 :][:2] == ["-0", "4.9406564584124654e-324"]
        assert _load_lines(text).weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_non_finite_weight(self, model, text):
        lines = format_1_lines(_lines(model))
        i = next(k for k, line in enumerate(lines) if line.startswith("weights:"))
        lines[i + 3] = text
        with pytest.raises(ModelFormatError, match="line %d: weight entry is not finite" % (i + 4)):
            _load_lines(lines)

    @pytest.mark.parametrize("version", [3, 2])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("slot", [0, 7, 50, -1])
    def test_non_finite_weight_bit_pattern(self, model, version, value, slot):
        """Weight i is on line first + i of a format 3 block, and starts on
        line first + 8i // 57 of a format 2 block: there weight 7 straddles
        the first two lines and is named by the first."""
        lines = _all_formats(_lines(model))[version]
        first, weights = weight_block(lines)
        weights = weights.copy()
        weights[slot] = value
        weights[slot - 1] = -value
        if version == 3:
            block = [struct.pack("<d", w).hex() for w in weights.tolist()]
        else:
            block = base64.encodebytes(weights.astype("<f8").tobytes()).decode("ascii").splitlines()
        lines[first : first + len(block)] = block
        i = min(slot % weights.size, (slot - 1) % weights.size)
        line = first + 1 + (i if version == 3 else 8 * i // 57)
        with pytest.raises(
            ModelFormatError, match="^line %d: weight entry is not finite: %s$" % (line, weights[i])
        ):
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

    def test_feature_line_nested_too_deep(self, model, tmp_path):
        """JSON nested too deep for json.loads, which raises RecursionError
        on it, from a path and from a file object."""
        lines = _lines(model)
        i = next(k for k, line in enumerate(lines) if line.startswith("features:"))
        lines[i + 1] = "[" * 100_000
        message = _load_both(lines, tmp_path)
        assert message == "line %d: feature entry is not a JSON string" % (i + 2)

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

    @pytest.mark.parametrize("version", [3, 2, 1])
    def test_bytes_that_are_not_utf8(self, model, tmp_path, version):
        """Named by line for a path; for a file object, whose decoder
        reads ahead, by the last line parsed."""
        lines = _all_formats(_lines(model))[version]
        data = bytearray("".join(line + "\n" for line in lines).encode())
        data[200:202] = b"\xff\xfe"
        path = tmp_path / "model.txt"
        path.write_bytes(bytes(data))
        line = data[:201].count(b"\n") + 1
        with pytest.raises(ModelFormatError, match="^line %d: not UTF-8: " % line):
            load_model(path)
        with open(path, encoding="utf-8") as handle:
            with pytest.raises(ModelFormatError, match="^not UTF-8 after line 0: "):
                load_model(handle)

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


def _load_both(lines, directory):
    """The message of the ModelFormatError that loading the lines raises,
    the same from a file object and from a file at a path."""
    with pytest.raises(ModelFormatError) as from_object:
        _load_lines(lines)
    path = directory / "model.txt"
    write_new(path, "".join(line + "\n" for line in lines).encode("utf-8"))
    with pytest.raises(ModelFormatError) as from_path:
        load_model(path)
    assert str(from_path.value) == str(from_object.value)
    return str(from_object.value)


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


@pytest.fixture(scope="module")
def all_formats(small_file):
    """The small model's lines in format 3, as saved, and in formats 2
    and 1."""
    return _all_formats(small_file[0])


class TestDamagedFiles:
    """A saved file with one line damaged fails to load with
    ModelFormatError, never another exception type; in every format,
    with the same message from a file object and from a path."""

    @pytest.mark.parametrize("kind", _DAMAGE)
    def test_every_line(self, small_file, all_formats, kind):
        for lines in all_formats.values():
            assert _load_lines(lines).weights.size
            for i in range(len(lines)):
                _load_both(_damaged(lines, kind, i), small_file[1])

    @settings(max_examples=450, deadline=None)
    @given(st.sampled_from([3, 2, 1]), st.sampled_from(_DAMAGE), st.integers(min_value=0), _JUNK)
    def test_random_damage(self, small_file, all_formats, version, kind, at, junk):
        """Also through picrf tag, which exits 1 with the same message.
        About 150 examples a format."""
        lines, directory = all_formats[version], small_file[1]
        message = _load_both(_damaged(lines, kind, at % len(lines), junk), directory)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(
                ["tag", "--model", str(directory / "model.txt"), "--input", str(directory / "input.conll")]
            )
        assert code == 1 and err.getvalue() == "error: %s\n" % message

    @pytest.mark.parametrize(
        "key,value,culprits",
        [
            ("window_offsets", "3", ("window_offsets:",)),
            ("window_offsets", "-1 0", ("window_offsets:",)),
            ("use_normalized", "2", ("use_normalized:",)),
            ("use_normalized", "0", ("use_normalized:",)),
            ("template_set", "1", ('"PRE[', '"SUF[')),
            ("affix_lengths", "3 4", ("affix_lengths:",)),
        ],
    )
    def test_template_that_cannot_emit_the_features(self, small_file, key, value, culprits):
        """A template edited so that it no longer emits every saved feature
        is rejected, naming the first line that does not fit: the edited
        line itself where it is one of the fixed template lines."""
        lines, _ = small_file
        damaged = [key + ": " + value if line.startswith(key + ": ") else line for line in lines]
        named = next(i for i, line in enumerate(damaged) if line.startswith(culprits)) + 1
        with pytest.raises(ModelFormatError, match="^line %d: " % named):
            _load_lines(damaged)

    @pytest.mark.parametrize(
        "key, expected",
        [("window_offsets", "-1 0 1"), ("use_normalized", "1"), ("affix_lengths", "2 3 4")],
    )
    @pytest.mark.parametrize("value", ["3", "", "-1 0 1 ", "1 0 -1", "-1  0 1", "-1 0 2"])
    def test_fixed_template_lines(self, small_file, key, expected, value):
        """The window, normalization and affix lines hold their one text,
        which both feature sets share; any other text is rejected by line."""
        lines = list(small_file[0])
        i = next(k for k, line in enumerate(lines) if line.startswith(key + ": "))
        assert lines[i] == "%s: %s" % (key, expected)
        lines[i] = "%s: %s" % (key, value)
        message = "line %d: %s must be '%s', found %r" % (i + 1, key, expected, value)
        with pytest.raises(ModelFormatError) as err:
            _load_lines(lines)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "feature",
        ["W[7]=a", "NW[-2]=a", "PRE[9]=abcdefghi", "SUF[1]=a", "SHAPE=Aa", "BIAS2", ""]
        # affixes of the wrong length, empty words, and BIAS with a word
        + ["PRE[3]=ab", "SUF[2]=abc", "PRE[2]=", "W[0]=", "NW[1]=", "W[0]", "BIAS=", "BIAS=a"]
        # NW words that are not normalized
        + ["NW[0]=A", "NW[-1]=a1", "NW[1]=\u0663"],
    )
    def test_feature_the_template_cannot_emit(self, small_file, feature):
        """A feature of the feature set 2 model's template that the template
        would never emit is refused, naming its line, even where an earlier
        line holds a duplicate."""
        lines, _ = small_file
        first = next(i for i, line in enumerate(lines) if line.startswith("features: ")) + 1
        i = next(i for i, line in enumerate(lines) if line.startswith("weights: ")) - 1
        damaged = list(lines)
        damaged[i] = json.dumps(feature)
        damaged[first + 1] = damaged[first]
        with pytest.raises(ModelFormatError) as err:
            _load_lines(damaged)
        assert str(err.value) == "line %d: the template cannot emit feature %r" % (i + 1, feature)

    def test_duplicate_feature(self, small_file):
        """A feature listed twice is refused, naming the last feature line."""
        lines, _ = small_file
        first = next(i for i, line in enumerate(lines) if line.startswith("features: ")) + 1
        last = next(i for i, line in enumerate(lines) if line.startswith("weights: ")) - 1
        damaged = list(lines)
        damaged[last] = damaged[first + 2]
        with pytest.raises(ModelFormatError) as err:
            _load_lines(damaged)
        assert str(err.value) == "line %d: duplicate feature strings in index" % (last + 1)

    @settings(max_examples=225, deadline=None)
    @given(
        st.sampled_from([3, 2, 1]),
        st.integers(min_value=0),
        st.sampled_from([b"\xff", b"\xfe\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"])
        | st.text(st.characters(min_codepoint=0x80, blacklist_categories=("Cs",)), min_size=1).map(
            str.encode
        ),
    )
    def test_byte_damage_in_the_weights(self, small_file, all_formats, version, at, junk):
        """Bytes that are not UTF-8, or a non-ASCII character, put in place
        of one byte of a weight line are rejected, naming that line; also
        through picrf tag, which exits 1."""
        lines, directory = all_formats[version], small_file[1]
        first, weights = weight_block(all_formats[version])
        n_lines = -(-8 * weights.size // 57) if version == 2 else weights.size
        line = first + at % n_lines
        column = at % len(lines[line])
        text = [s.encode() for s in lines]
        text[line] = text[line][:column] + junk + text[line][column + 1 :]
        path = directory / "damaged-bytes.txt"
        write_new(path, b"".join(s + b"\n" for s in text))
        with pytest.raises(ModelFormatError, match="^line %d: " % (line + 1)):
            load_model(path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["tag", "--model", str(path), "--input", str(directory / "input.conll")])
        assert code == 1 and err.getvalue().startswith("error: line %d: " % (line + 1))

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


class TestSavedText:
    def test_features_and_weights_as_json_dumps_and_hex(self, trained):
        """The feature lines are json.dumps of each feature, escapes and
        all, and the weight lines the hex of each weight's little-endian
        float64 bytes. The same file as format 2 wrote it, its weight block
        base64.encodebytes of those bytes, loads to the same model."""
        model, _ = trained[ModelOrder.FIRST]
        features = list(model.index.features)
        features[1:4] = ['W[0]=a\nb"c\\d', "W[0]=é\x00 ", "W[0]=\ud800"]
        index = make_feature_index(features, model.template, model.alphabet, model.order)
        model = Model(model.order, model.alphabet, model.template, index, model.weights)
        buffer = io.StringIO()
        save_model(model, buffer)
        _, _, rest = buffer.getvalue().partition("features: %d\n" % len(features))
        features_text = "".join(json.dumps(f) + "\n" for f in features)
        weights_line = "weights: %d\n" % model.weights.size
        block = "".join(struct.pack("<d", w).hex() + "\n" for w in model.weights.tolist())
        assert rest == features_text + weights_line + block + "end\n"
        text_2 = "".join(line + "\n" for line in format_2_lines(buffer.getvalue().splitlines()))
        block = base64.encodebytes(model.weights.astype("<f8").tobytes()).decode("ascii")
        _, _, rest = text_2.partition("features: %d\n" % len(features))
        assert rest == features_text + weights_line + block + "end\n"
        for text in (buffer.getvalue(), text_2):
            loaded = load_model(io.StringIO(text))
            assert loaded.index.features == tuple(features)
            assert loaded.weights.tobytes() == model.weights.tobytes()

    @given(st.binary(max_size=400), st.integers(min_value=1, max_value=5))
    def test_weight_lines_are_hex_of_each_weight(self, data, per_call):
        """However many weights each bytes.hex call takes."""
        data = data[: len(data) // 8 * 8]
        buffer = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model_io, "_HEX_SLICE", per_call)
            model_io._write_hex_lines(np.frombuffer(data, "<f8"), buffer)
        expected = "".join(data[i : i + 8].hex() + "\n" for i in range(0, len(data), 8))
        assert buffer.getvalue() == expected


class TestReplacingSave:
    """save_model to a path writes a new file beside it and renames it
    over the path (model_io.open_replacing)."""

    def test_a_save_that_fails_leaves_the_old_file(self, trained, tmp_path, monkeypatch):
        model, _ = trained[ModelOrder.FIRST]
        path = tmp_path / "model.txt"
        save_model(model, path)
        before = path.read_bytes()

        def half_written(weights, out):
            out.write("0" * 16 + "\n")
            raise OSError("disk full")

        monkeypatch.setattr(model_io, "_write_hex_lines", half_written)
        with pytest.raises(OSError, match="disk full"):
            save_model(trained[ModelOrder.SECOND][0], path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["model.txt"]

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_a_new_file_gets_the_mode_open_gives(self, trained, tmp_path, umask):
        model, _ = trained[ModelOrder.FIRST]
        old_umask = os.umask(umask)
        try:
            save_model(model, tmp_path / "saved.txt")
            with open(tmp_path / "opened.txt", "w"):
                pass
        finally:
            os.umask(old_umask)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode) for name in ("saved.txt", "opened.txt")]
        assert modes == [0o666 & ~umask] * 2

    def test_an_existing_file_keeps_its_mode(self, trained, tmp_path):
        model, _ = trained[ModelOrder.FIRST]
        path = tmp_path / "model.txt"
        path.write_text("old")
        path.chmod(0o604)
        save_model(model, path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o604
        assert load_model(path).weights.tobytes() == model.weights.tobytes()

    def test_a_link_to_a_missing_file_makes_the_file(self, trained, tmp_path):
        """As open(path, "w") does, a save through a link whose target does
        not exist yet creates the target and leaves the link."""
        model, _ = trained[ModelOrder.FIRST]
        (tmp_path / "models").mkdir()
        link = tmp_path / "latest.txt"
        link.symlink_to(tmp_path / "models" / "model.txt")
        save_model(model, link)
        assert link.is_symlink()
        assert os.listdir(tmp_path / "models") == ["model.txt"]
        assert load_model(link).weights.tobytes() == model.weights.tobytes()


    def test_a_directory_that_refuses_the_new_file_rewrites_in_place(
        self, trained, tmp_path, monkeypatch
    ):
        """If the new file cannot be made beside the target for lack of
        permission, the target is truncated and rewritten, as open(path,
        "w") does."""
        model, _ = trained[ModelOrder.FIRST]
        path = tmp_path / "model.txt"
        path.write_text("old")
        old_inode = path.stat().st_ino
        real_open = os.open

        def refused(name, flags, *args):
            if flags & os.O_EXCL:
                raise PermissionError(13, "Permission denied", name)
            return real_open(name, flags, *args)

        monkeypatch.setattr(os, "open", refused)
        save_model(model, path)
        assert path.stat().st_ino == old_inode
        assert os.listdir(tmp_path) == ["model.txt"]
        assert load_model(path).weights.tobytes() == model.weights.tobytes()

    def test_a_name_too_long_to_extend_rewrites_in_place(self, trained, tmp_path):
        model, _ = trained[ModelOrder.FIRST]
        path = tmp_path / ("m" * 250)
        path.write_text("old")
        old_inode = path.stat().st_ino
        save_model(model, path)
        assert path.stat().st_ino == old_inode
        assert load_model(path).weights.tobytes() == model.weights.tobytes()


# sha256 of the files save_model writes for models trained 3 iterations on
# _PINNED_CORPUS. Two types keep every matrix product small enough that
# OpenBLAS runs it on one thread. A change that moves a bit of a saved
# model must update these and say so.
_PINNED_CORPUS = SynthConfig(entity_type_count=2, sentences=40, seed=3)
_PINNED_SHA256 = {
    ModelOrder.FIRST: "cf3c16f4651ce5876b7b13b4b231b1184b875cee42c6ea02c6fc9652420a85d1",
    ModelOrder.PRE_INDUCED: "7521c53639b462b560fdbc889eb475eb0b4365410b575e6c7b87f7c4bc014d9a",
    ModelOrder.SECOND: "805b58fa40961d3bfd1392b0b9dd26581a268b64b1e7d476e6a0f0e119e32e8f",
}


@pytest.mark.parametrize("order", list(ModelOrder))
def test_saved_models_are_pinned(order, tmp_path):
    corpus = generate_synthetic(_PINNED_CORPUS)
    model, _ = train(corpus, TrainConfig(model_order=order, max_iterations=3))
    save_model(model, tmp_path / "model.txt")
    digest = hashlib.sha256((tmp_path / "model.txt").read_bytes()).hexdigest()
    assert digest == _PINNED_SHA256[order]


def _respelled(text, how):
    """text with its first ASCII digit written as the Arabic-Indic digit of
    the same value, or with "0_" put before it: int() and float() read
    either as the same number."""
    i = next(i for i, c in enumerate(text) if c in "0123456789")
    digit = chr(0x660 + int(text[i])) if how == "arabic-indic" else "0_" + text[i]
    return text[:i] + digit + text[i + 1 :]


class TestNumberSpelling:
    """Model numbers are ASCII digits. A header integer or a format 1
    weight with a non-ASCII digit or a "_" in it is rejected, naming its
    line, though it spells the saved number; so is a format 3 weight
    line."""

    @pytest.mark.parametrize("how", ["arabic-indic", "underscore"])
    @pytest.mark.parametrize(
        "key, message",
        [
            ("min_feature_count", "must be a non-negative integer"),
            ("features", "must be a non-negative integer"),
            ("window_offsets", "must be '-1 0 1'"),
            ("affix_lengths", "must be '2 3 4'"),
        ],
    )
    def test_header_integers(self, small_file, how, key, message):
        lines = list(small_file[0])
        i = next(k for k, line in enumerate(lines) if line.startswith(key + ": "))
        value = lines[i][len(key) + 2 :]
        respelled = _respelled(value, how)
        assert [int(v) for v in respelled.split()] == [int(v) for v in value.split()]
        lines[i] = key + ": " + respelled
        with pytest.raises(ModelFormatError, match="^line %d: %s %s, found " % (i + 1, key, message)):
            _load_lines(lines)

    @pytest.mark.parametrize("how", ["arabic-indic", "underscore"])
    def test_format_1_weight(self, all_formats, how):
        lines = list(all_formats[1])
        first, _ = weight_block(all_formats[1])
        bad = first + 5
        respelled = _respelled(lines[bad], how)
        assert float(respelled) == float(lines[bad])
        lines[bad] = respelled
        with pytest.raises(
            ModelFormatError, match="^line %d: weight entry is not a number: " % (bad + 1)
        ):
            _load_lines(lines)

    @pytest.mark.parametrize("how", ["arabic-indic", "underscore"])
    def test_format_3_weight(self, all_formats, how):
        lines = list(all_formats[3])
        first, _ = weight_block(lines)
        bad = first + 5
        lines[bad] = _respelled(lines[bad], how)
        with pytest.raises(
            ModelFormatError,
            match="^line %d: weight line is not 16 lowercase hex digits: " % (bad + 1),
        ):
            _load_lines(lines)
