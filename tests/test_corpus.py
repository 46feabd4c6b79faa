import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conll_reference, conll_texts
from picrf.corpus import (
    Chunk,
    CorpusError,
    LabelError,
    ParseError,
    Sentence,
    SynthConfig,
    Token,
    extract_chunks,
    generate_synthetic,
    identity_rule,
    read_conll,
    rotation_rule,
    split_label,
    validate_iob2,
    write_conll,
)


class TestToken:
    def test_plain(self):
        assert Token("IL-2").text == "IL-2"

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\n"])
    def test_rejects_whitespace_and_empty(self, bad):
        with pytest.raises(CorpusError):
            Token(bad)

    @staticmethod
    def _accepts(text):
        try:
            Token(text)
        except CorpusError:
            return False
        return True

    @pytest.mark.parametrize(
        "text", ["a\xa0b", "a\u2003b", "a\x1cb", "a\x85b", "\x85", "a\tb", "IL-2", "x"]
    )
    def test_whitespace_is_what_isspace_accepts(self, text):
        assert self._accepts(text) == (not any(c.isspace() for c in text))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=6))
    def test_whitespace_is_what_isspace_accepts_on_any_text(self, text):
        assert self._accepts(text) == (bool(text) and not any(c.isspace() for c in text))


class TestSentence:
    def test_label_length_mismatch(self):
        with pytest.raises(CorpusError):
            Sentence.from_strings(["a", "b"], ["O"])

    def test_unlabeled(self):
        s = Sentence.from_strings(["a", "b"])
        assert s.labels is None and len(s) == 2


class TestSplitLabel:
    def test_cases(self):
        assert split_label("O") == ("O", None)
        assert split_label("B-DNA") == ("B", "DNA")
        assert split_label("I-cell_line") == ("I", "cell_line")
        assert split_label("B-some-type") == ("B", "some-type")

    @pytest.mark.parametrize("bad", ["B-", "X-DNA", "b-DNA", "A[O]", ""])
    def test_rejects(self, bad):
        with pytest.raises(LabelError):
            split_label(bad)


class TestValidateIob2:
    def test_valid_passes_both_modes(self):
        labels = ["B-test", "I-test", "O", "B-drug"]
        assert validate_iob2(labels, "strict") == labels
        assert validate_iob2(labels, "repair") == labels

    def test_repair_orphan_inside(self):
        assert validate_iob2(["O", "I-test"], "repair") == ["O", "B-test"]

    def test_repair_type_switch(self):
        assert validate_iob2(["B-test", "I-drug"], "repair") == ["B-test", "B-drug"]

    def test_repair_leading_inside(self):
        assert validate_iob2(["I-x", "I-x"], "repair") == ["B-x", "I-x"]

    def test_strict_raises_on_orphan(self):
        with pytest.raises(LabelError):
            validate_iob2(["O", "I-test"], "strict")

    def test_malformed_label_raises_in_both_modes(self):
        for mode in ("strict", "repair"):
            with pytest.raises(LabelError):
                validate_iob2(["B-x", "Q-x"], mode)

    def test_unknown_entity_type(self):
        with pytest.raises(LabelError):
            validate_iob2(["B-x"], "repair", entity_types=["y"])

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            validate_iob2(["O"], "fix")

    @given(st.lists(st.sampled_from(["O", "B-A", "I-A", "B-B", "I-B"]), max_size=20))
    def test_repair_output_is_strict_valid(self, labels):
        repaired = validate_iob2(labels, "repair")
        assert validate_iob2(repaired, "strict") == repaired


class TestExtractChunks:
    def test_two_chunks(self):
        got = extract_chunks(["B-A", "I-A", "O", "B-B"])
        assert got == {Chunk("A", 0, 2), Chunk("B", 3, 4)}

    def test_all_outside(self):
        assert extract_chunks(["O", "O", "O"]) == set()

    def test_adjacent_chunks_same_type(self):
        assert extract_chunks(["B-A", "B-A"]) == {Chunk("A", 0, 1), Chunk("A", 1, 2)}

    def test_chunk_to_end(self):
        assert extract_chunks(["O", "B-A", "I-A"]) == {Chunk("A", 1, 3)}

    def test_empty(self):
        assert extract_chunks([]) == set()

    def test_invalid_raises(self):
        with pytest.raises(LabelError):
            extract_chunks(["I-A"])


class TestReadConll:
    def test_basic(self):
        text = "IL-2\tB-DNA\ngene\tI-DNA\n\nexpression\tO\n"
        sentences = read_conll(io.StringIO(text))
        assert len(sentences) == 2
        assert sentences[0].texts == ("IL-2", "gene")
        assert sentences[0].labels == ("B-DNA", "I-DNA")
        assert sentences[1].texts == ("expression",)
        assert sentences[1].labels == ("O",)

    def test_empty_stream(self):
        assert read_conll(io.StringIO("")) == []

    def test_blank_only_stream(self):
        assert read_conll(io.StringIO("\n\n\n")) == []

    def test_final_sentence_without_trailing_blank(self):
        sentences = read_conll(io.StringIO("a\tO\nb\tO"))
        assert len(sentences) == 1 and sentences[0].texts == ("a", "b")

    def test_consecutive_blank_lines(self):
        sentences = read_conll(io.StringIO("a\tO\n\n\n\nb\tO\n"))
        assert len(sentences) == 2

    def test_space_separated(self):
        sentences = read_conll(io.StringIO("a O\nb   O\n"))
        assert sentences[0].texts == ("a", "b")

    def test_unlabeled(self):
        sentences = read_conll(io.StringIO("a\nb\n"), label_column=None)
        assert sentences[0].labels is None

    def test_middle_column_token(self):
        sentences = read_conll(io.StringIO("1\ta\tNN\tO\n"), token_column=1, label_column=3)
        assert sentences[0].texts == ("a",) and sentences[0].labels == ("O",)

    def test_single_column_with_labels_requested_raises_with_line_number(self):
        with pytest.raises(ParseError) as err:
            read_conll(io.StringIO("a\tO\nb\n"))
        assert "line 2" in str(err.value)
        assert err.value.line_number == 2

    def test_explicit_column_out_of_range(self):
        with pytest.raises(ParseError) as err:
            read_conll(io.StringIO("a\tO\n"), label_column=5)
        assert "line 1" in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(
        conll_texts(),
        st.sampled_from([0, 1, 2, -1, -2]),
        st.sampled_from([None, -1, 0, 1, 3, -2]),
    )
    def test_random_text(self, text_rows, token_column, label_column):
        """Sentences as the row-by-row reference reads them, or a ParseError
        naming the first row that lacks a requested column or has the token
        and label columns coincide."""
        text, rows = text_rows
        expected, bad_line = conll_reference(rows, token_column, label_column)
        if bad_line is None:
            sentences = read_conll(io.StringIO(text), token_column, label_column)
            assert [(s.texts, s.labels) for s in sentences] == expected
        else:
            with pytest.raises(ParseError, match="^line %d: " % bad_line) as err:
                read_conll(io.StringIO(text), token_column, label_column)
            assert err.value.line_number == bad_line


class TestWriteConll:
    def test_empty(self):
        assert write_conll([]) == ""

    def test_labeled(self):
        s = Sentence.from_strings(["a", "b"], ["O", "B-A"])
        assert write_conll([s]) == "a\tO\nb\tB-A\n\n"

    def test_with_predictions(self):
        s = Sentence.from_strings(["a"], ["O"])
        assert write_conll([s], [["B-A"]]) == "a\tO\tB-A\n\n"

    def test_unlabeled_with_predictions(self):
        s = Sentence.from_strings(["a"])
        assert write_conll([s], [["O"]]) == "a\tO\n\n"

    def test_prediction_count_mismatch(self):
        s = Sentence.from_strings(["a"], ["O"])
        with pytest.raises(CorpusError):
            write_conll([s], [])

    def test_prediction_length_mismatch_names_sentence(self):
        sentences = [
            Sentence.from_strings(["a"], ["O"]),
            Sentence.from_strings(["b"], ["O"]),
        ]
        with pytest.raises(CorpusError) as err:
            write_conll(sentences, [["O"], ["O", "O"]])
        assert "sentence 1" in str(err.value)


_token_text = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="-_."),
    min_size=1,
    max_size=8,
)


@st.composite
def _corpora(draw):
    labeled = draw(st.booleans())
    sentences = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 6))
        texts = [draw(_token_text) for _ in range(n)]
        labels = None
        if labeled:
            labels = [draw(st.sampled_from(["O", "B-A", "B-B"])) for _ in range(n)]
        sentences.append(Sentence.from_strings(texts, labels))
    return sentences


class TestRoundTrip:
    @settings(max_examples=60)
    @given(_corpora())
    def test_read_write_identity(self, corpus):
        labeled = corpus[0].labels is not None if corpus else True
        text = write_conll(corpus)
        back = read_conll(io.StringIO(text), label_column=-1 if labeled else None)
        assert back == corpus


class TestSynthetic:
    def test_structure_identity_rule(self):
        config = SynthConfig(entity_type_count=2, sentences=200, seed=3)
        corpus = generate_synthetic(config)
        assert len(corpus) == 200
        for s in corpus:
            labels = list(s.labels)
            entity_positions = [i for i, l in enumerate(labels) if l != "O"]
            assert len(entity_positions) == 2
            first, second = entity_positions
            assert first == 0
            gap = second - first - 1
            assert 1 <= gap <= 6
            assert labels[second] == labels[first]  # identity rule
            first_tok = s.texts[first]
            assert first_tok[0] == labels[first][2:].lower()
            assert s.texts[second].startswith("s")
            for i in range(first + 1, second):
                assert s.texts[i].startswith("w")

    def test_rotation_rule(self):
        config = SynthConfig(
            entity_type_count=3,
            sentences=100,
            seed=1,
            dependency_rule=rotation_rule(("A", "B", "C")),
        )
        rule = {"A": "B", "B": "C", "C": "A"}
        for s in generate_synthetic(config):
            ents = [l[2:] for l in s.labels if l != "O"]
            assert rule[ents[0]] == ents[1]

    def test_deterministic_in_seed(self):
        config = SynthConfig(entity_type_count=2, sentences=50, seed=11)
        assert generate_synthetic(config) == generate_synthetic(config)
        other = generate_synthetic(SynthConfig(entity_type_count=2, sentences=50, seed=12))
        assert other != generate_synthetic(config)

    def test_gap_distribution_uniform(self):
        corpus = generate_synthetic(SynthConfig(entity_type_count=2, sentences=10000, seed=0))
        gaps = []
        for s in corpus:
            ents = [i for i, l in enumerate(s.labels) if l != "O"]
            gaps.append(ents[1] - ents[0] - 1)
        mean = sum(gaps) / len(gaps)
        assert abs(mean - 3.5) < 0.1

    def test_weighted_gaps(self):
        config = SynthConfig(
            entity_type_count=2,
            sentences=500,
            seed=0,
            gap_lengths=(2, 9),
            gap_weights=(1.0, 0.0),
        )
        for s in generate_synthetic(config):
            ents = [i for i, l in enumerate(s.labels) if l != "O"]
            assert ents[1] - ents[0] - 1 == 2

    def test_too_few_types(self):
        with pytest.raises(CorpusError):
            generate_synthetic(SynthConfig(entity_type_count=1, sentences=10))

    def test_rule_not_bijection(self):
        config = SynthConfig(
            entity_type_count=2, sentences=10, dependency_rule={"A": "A", "B": "A"}
        )
        with pytest.raises(CorpusError):
            generate_synthetic(config)

    def test_bad_gap_weights(self):
        config = SynthConfig(
            entity_type_count=2, sentences=10, gap_lengths=(1, 2), gap_weights=(1.0,)
        )
        with pytest.raises(CorpusError):
            generate_synthetic(config)

    def test_identity_rule_helper(self):
        assert identity_rule(("A", "B")) == {"A": "A", "B": "B"}
        assert rotation_rule(("A", "B")) == {"A": "B", "B": "A"}
