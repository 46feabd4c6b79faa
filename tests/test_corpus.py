import hashlib
import io
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    conll_reference,
    conll_texts,
    label_lists,
    outcome,
    validate_iob2_loop,
    write_conll_loop,
)
from picrf.corpus import (
    Chunk,
    CorpusError,
    LabelError,
    ParseError,
    Sentence,
    SynthConfig,
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
    """What a token text may be, as Sentence.from_strings checks it."""

    def test_plain(self):
        assert Sentence.from_strings(["IL-2"]).tokens == ("IL-2",)

    @pytest.mark.parametrize("bad", ["", "a b", "a\tb", "a\n"])
    def test_rejects_whitespace_and_empty(self, bad):
        with pytest.raises(CorpusError) as err:
            Sentence.from_strings(["x", bad, "y"])
        assert str(err.value) == (
            "token text must be non-empty and contain no whitespace: %r" % (bad,)
        )

    @staticmethod
    def _accepts(texts):
        try:
            Sentence.from_strings(texts)
        except CorpusError:
            return False
        return True

    @pytest.mark.parametrize(
        "text", ["a\xa0b", "a\u2003b", "a\x1cb", "a\x85b", "\x85", "a\tb", "IL-2", "x"]
    )
    def test_whitespace_is_what_isspace_accepts(self, text):
        assert self._accepts([text]) == (not any(c.isspace() for c in text))

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=6))
    def test_whitespace_is_what_isspace_accepts_on_any_text(self, text):
        assert self._accepts([text]) == (bool(text) and not any(c.isspace() for c in text))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(max_size=4), max_size=5))
    def test_accepts_a_sentence_exactly_when_it_accepts_each_text(self, texts):
        assert self._accepts(texts) == all(self._accepts([text]) for text in texts)

    def test_names_the_first_bad_text(self):
        with pytest.raises(CorpusError, match=r": 'a b'$"):
            Sentence.from_strings(["x", "a b", ""])

    @pytest.mark.parametrize("bad", [None, 5, b"a"])
    def test_rejects_a_text_that_is_not_a_str(self, bad):
        with pytest.raises(TypeError):
            Sentence.from_strings(["x", bad])


class TestSentence:
    def test_label_length_mismatch(self):
        with pytest.raises(CorpusError):
            Sentence.from_strings(["a", "b"], ["O"])

    def test_unlabeled(self):
        s = Sentence.from_strings(["a", "b"])
        assert s.labels is None and len(s) == 2

    def test_tokens_are_the_texts(self):
        s = Sentence.from_strings(["IL-2", "gene"])
        assert s.tokens == ("IL-2", "gene") and s.texts is s.tokens


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

    @settings(max_examples=400, deadline=None)
    @given(
        label_lists,
        st.sampled_from(["strict", "repair"]),
        st.sampled_from([None, ("A", "B"), ("A",), ()]),
    )
    @example(["B-A", "O", "I-A"], "strict", None)
    @example(["I-A", "I-A", "O", "I-A"], "repair", ("A",))
    def test_equals_the_label_loop(self, labels, mode, entity_types):
        """Splitting each distinct label once gives the output, or the
        error message, of splitting and checking every label where it
        stands: junk labels, unknown types and broken I- runs, both modes."""
        assert outcome(validate_iob2, labels, mode, entity_types) == outcome(
            validate_iob2_loop, labels, mode, entity_types
        )


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

    @pytest.mark.parametrize(
        "text, token_column, label_column, message",
        [
            ("a\tO\nb\n", 0, -1, "line 2: label column missing (line has 1 column)"),
            ("a b c\n", 1, -2, "line 1: label column missing (line has 3 columns)"),
            ("a O\n", 0, 0, "line 1: token and label columns coincide (line has 2 columns)"),
            ("a O\n", 0, 5, "line 1: label column 5 missing (line has 2 columns)"),
            ("a\n", 2, None, "line 1: token column 2 missing (line has 1 column)"),
        ],
    )
    def test_messages_name_the_missing_column(self, text, token_column, label_column, message):
        with pytest.raises(ParseError) as err:
            read_conll(io.StringIO(text), token_column, label_column)
        assert str(err.value) == message

    def test_repeated_texts_share_one_token(self):
        """One str object per distinct text within a call, equal to the
        texts a fresh build holds."""
        text = "a1\tO\nb2\tO\na1\tB-X\n\nb2\tO\na1\tO\n"
        sentences = read_conll(io.StringIO(text))
        assert sentences == [
            Sentence.from_strings(["a1", "b2", "a1"], ["O", "O", "B-X"]),
            Sentence.from_strings(["b2", "a1"], ["O", "O"]),
        ]
        tokens = [token for sentence in sentences for token in sentence.tokens]
        assert len({id(token) for token in tokens}) == 2
        again = read_conll(io.StringIO(text))
        assert again[0].tokens[0] == tokens[0] and again[0].tokens[0] is not tokens[0]

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


def _write_conll_by_token(sentences, predicted=None):
    """write_conll's output built one token line at a time."""
    lines = []
    for si, sentence in enumerate(sentences):
        for i, text in enumerate(sentence.tokens):
            columns = [text]
            if sentence.labels is not None:
                columns.append(sentence.labels[i])
            if predicted is not None:
                columns.append(predicted[si][i])
            lines.append("\t".join(columns) + "\n")
        lines.append("\n")
    return "".join(lines)


_LABEL = st.sampled_from(["O", "B-A", "I-A"])


@st.composite
def _mixed_corpora(draw):
    """Up to 6 sentences of 0-6 tokens, each with or without gold labels."""
    sentences = []
    for _ in range(draw(st.integers(0, 6))):
        texts = draw(st.lists(_token_text, max_size=6))
        labels = draw(st.none() | st.lists(_LABEL, min_size=len(texts), max_size=len(texts)))
        sentences.append(Sentence.from_strings(texts, labels))
    return sentences


@st.composite
def _predictions(draw, corpus):
    """None, one label list per sentence, or in some draws a list of the
    wrong count or with one sentence's labels of the wrong length."""
    kind = draw(st.sampled_from(["none", "aligned", "aligned", "count", "length"]))
    if kind == "none":
        return None
    predicted = [draw(st.lists(_LABEL, min_size=len(s), max_size=len(s))) for s in corpus]
    if kind == "count":
        if predicted and draw(st.booleans()):
            predicted.pop(draw(st.integers(0, len(predicted) - 1)))
        else:
            predicted.insert(draw(st.integers(0, len(predicted))), draw(st.lists(_LABEL)))
    elif kind == "length" and predicted:
        si = draw(st.integers(0, len(predicted) - 1))
        if predicted[si] and draw(st.booleans()):
            predicted[si].pop()
        else:
            predicted[si].append(draw(_LABEL))
    return predicted


class TestWriteConllByToken:
    @settings(max_examples=200)
    @given(_mixed_corpora(), st.data())
    def test_matches_the_token_by_token_rendering(self, corpus, data):
        predicted = data.draw(_predictions(corpus))
        expected = outcome(write_conll_loop, corpus, predicted)
        assert outcome(write_conll, corpus, predicted) == expected
        if expected[0] == "value":
            assert expected[1] == _write_conll_by_token(corpus, predicted)


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

    def test_too_few_types(self):
        with pytest.raises(CorpusError):
            generate_synthetic(SynthConfig(entity_type_count=1, sentences=10))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("gap_lengths", (2.5,)),
            ("gap_lengths", (2, True)),
            ("seed", 0.0),
            ("seed", np.int64(3)),
        ],
    )
    def test_non_integer_settings_rejected(self, field, value):
        """Gap lengths, a float that equals an integer, and a numpy integer,
        which random.Random does not take as a seed; every setting annotated
        int is also checked in tests/test_package.py."""
        config = SynthConfig(**{"entity_type_count": 2, "sentences": 10, field: value})
        with pytest.raises(CorpusError, match="^%s must be an integer, got " % field):
            generate_synthetic(config)

    def test_rule_not_bijection(self):
        config = SynthConfig(
            entity_type_count=2, sentences=10, dependency_rule={"A": "A", "B": "A"}
        )
        with pytest.raises(CorpusError):
            generate_synthetic(config)

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                SynthConfig(
                    entity_type_count=2, sentences=2500, seed=0, gap_lengths=(2, 3, 4, 5, 6)
                ),
                "716b41aed78e6fdeb711d1f1d758e95a0cbbfebe77936039517044ad22c48ffa",
            ),
            (
                SynthConfig(entity_type_count=5, sentences=2000, seed=6),
                "2faf1af6ec0d3f44ccb213ce2c60194ef2888dcfdb47a847f181f113a6c95c69",
            ),
            (
                SynthConfig(
                    entity_type_count=5,
                    sentences=650,
                    seed=0,
                    gap_lengths=tuple(range(1, 16)),
                    dependency_rule=rotation_rule(tuple("ABCDE")),
                    filler_vocab_size=20000,
                    first_entity_vocab_size=1000,
                    shared_vocab_size=2000,
                    max_trailing_fillers=10,
                ),
                "98e88b11d30c3ddbc1377f74cd5d63f976b7c2b619896cdcd182e4662dd475ee",
            ),
        ],
        ids=["criterion-5", "criterion-6", "lexical"],
    )
    def test_corpora_are_pinned(self, config, digest):
        """The criterion-5 split, the criterion-6 corpus and the benchmark's
        lexical corpus at seed 0 stay byte for byte what they were, so a
        change to how the generator draws from its RNG cannot go unseen."""
        text = write_conll(generate_synthetic(config))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    def test_identity_rule_helper(self):
        assert identity_rule(("A", "B")) == {"A": "A", "B": "B"}
        assert rotation_rule(("A", "B")) == {"A": "B", "B": "A"}
