import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_induced, induce_loop, label_lists, outcome, random_iob2
from picrf.corpus import LabelError, Sentence
from picrf.induction import (
    AlphabetError,
    build_expanded_alphabet,
    corpus_alphabet,
    count_new_states,
    induce,
    revert,
    state_count_report,
)


class TestAlphabet:
    def test_three_types(self):
        alpha = build_expanded_alphabet(["problem", "test", "treatment"])
        assert alpha.base_labels == (
            "B-problem",
            "I-problem",
            "B-test",
            "I-test",
            "B-treatment",
            "I-treatment",
            "O",
        )
        assert alpha.induced_labels == ("problem[O]", "test[O]", "treatment[O]")
        assert alpha.expanded_labels == alpha.base_labels + alpha.induced_labels
        assert alpha.n_base == 7 and alpha.n_expanded == 10

    def test_single_type(self):
        alpha = build_expanded_alphabet(["A"])
        assert alpha.n_base == 3 and alpha.n_expanded == 4

    def test_outside_class(self):
        alpha = build_expanded_alphabet(["A", "B"])
        assert alpha.outside_class == ("O", "A[O]", "B[O]")
        assert [alpha.expanded_labels[i] for i in alpha.outside_class_ids] == [
            "O",
            "A[O]",
            "B[O]",
        ]

    def test_carrier_helpers(self):
        alpha = build_expanded_alphabet(["A"])
        assert alpha.carrier_label("A") == "A[O]"
        assert alpha.carrier_type("A[O]") == "A"
        assert alpha.carrier_type("B-A") is None
        assert alpha.carrier_type("O") is None
        with pytest.raises(AlphabetError):
            alpha.carrier_label("Z")

    def test_empty_rejected(self):
        with pytest.raises(AlphabetError):
            build_expanded_alphabet([])

    def test_duplicates_rejected(self):
        with pytest.raises(AlphabetError):
            build_expanded_alphabet(["A", "A"])

    @pytest.mark.parametrize("bad", ["", "a b", "x[", "y]", "a\tb"])
    def test_reserved_names_rejected(self, bad):
        with pytest.raises(AlphabetError):
            build_expanded_alphabet([bad])

    def test_indexes_consistent(self):
        alpha = build_expanded_alphabet(["A", "B"])
        for i, label in enumerate(alpha.expanded_labels):
            assert alpha.expanded_index[label] == i
        for i, label in enumerate(alpha.base_labels):
            assert alpha.base_index[label] == i


def labeled(*label_rows):
    return [Sentence.from_strings(["w"] * len(row), row) for row in label_rows]


class TestCorpusAlphabet:
    def test_types_from_entity_and_carrier_labels_sorted(self):
        train = labeled(["B-ORG", "I-ORG", "O"], ["O", "LOC[O]"])
        test = labeled(["B-DATE"], ["I-ORG", "ORG[O]"])
        alpha = corpus_alphabet(train, test)
        assert alpha == build_expanded_alphabet(["DATE", "LOC", "ORG"])

    def test_unlabeled_sentences_name_no_types(self):
        corpus = labeled(["B-PER"]) + [Sentence.from_strings(["w"])]
        assert corpus_alphabet(corpus).entity_types == ("PER",)

    @pytest.mark.parametrize("corpora", [(), ([],), (labeled(["O", "O"], ["O"]),)])
    def test_no_entity_types_rejected(self, corpora):
        with pytest.raises(AlphabetError, match="^no entity types found in the corpus$"):
            corpus_alphabet(*corpora)

    def test_first_bad_label_named(self):
        corpus = labeled(["B-A", "S-X", "O"], ["E-Y"])
        with pytest.raises(LabelError, match="not an IOB2 label: 'S-X'"):
            corpus_alphabet(corpus)


ALPHA2 = build_expanded_alphabet(["A", "B"])


class TestInduce:
    def test_gap_between_entities(self):
        assert induce(["B-A", "O", "O", "B-B"], ALPHA2) == ["B-A", "A[O]", "A[O]", "B-B"]

    def test_leading_outside_stays_plain(self):
        assert induce(["O", "O", "B-A", "O"], ALPHA2) == ["O", "O", "B-A", "A[O]"]

    def test_inside_tag_sets_memory(self):
        assert induce(["B-A", "I-A", "O", "B-A"], ALPHA2) == ["B-A", "I-A", "A[O]", "B-A"]

    def test_memory_updates_on_new_entity(self):
        got = induce(["B-A", "O", "B-B", "O"], ALPHA2)
        assert got == ["B-A", "A[O]", "B-B", "B[O]"]

    def test_all_outside(self):
        assert induce(["O", "O"], ALPHA2) == ["O", "O"]

    def test_empty(self):
        assert induce([], ALPHA2) == []

    def test_invalid_iob2_rejected(self):
        with pytest.raises(LabelError):
            induce(["O", "I-A"], ALPHA2)

    def test_unknown_type_rejected(self):
        with pytest.raises(LabelError):
            induce(["B-Z"], ALPHA2)

    @settings(max_examples=400, deadline=None)
    @given(label_lists)
    def test_equals_the_memory_loop(self, labels):
        """Taking a checked label's type as label[2:] gives the output, or
        the error message, of splitting every checked label again."""
        assert outcome(induce, labels, ALPHA2) == outcome(induce_loop, labels, ALPHA2)


class TestRevert:
    def test_carriers_to_outside(self):
        assert revert(["B-A", "A[O]", "A[O]", "B-B"], ALPHA2) == ["B-A", "O", "O", "B-B"]

    def test_base_labels_unchanged(self):
        labels = ["O", "B-A", "I-A", "O"]
        assert revert(labels, ALPHA2) == labels

    def test_idempotent(self):
        once = revert(["B-A", "A[O]", "B[O]", "O"], ALPHA2)
        assert revert(once, ALPHA2) == once

    def test_empty(self):
        assert revert([], ALPHA2) == []

    def test_unknown_label_rejected(self):
        with pytest.raises(AlphabetError) as err:
            revert(["B-A", "C[O]"], ALPHA2)
        assert "position 1" in str(err.value)


class TestRoundTrip:
    @settings(max_examples=300)
    @given(st.data())
    def test_revert_undoes_induce(self, data):
        n_types = data.draw(st.integers(1, 5))
        types = [chr(ord("A") + i) for i in range(n_types)]
        alpha = build_expanded_alphabet(types)
        length = data.draw(st.integers(0, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        labels = random_iob2(random.Random(seed), types, length)
        assert revert(induce(labels, alpha), alpha) == labels

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30))
    def test_induce_matches_rescanning_oracle(self, seed, length):
        types = ["A", "B", "C"]
        alpha = build_expanded_alphabet(types)
        labels = random_iob2(random.Random(seed), types, length)
        assert induce(labels, alpha) == expected_induced(labels)

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 30))
    def test_no_plain_outside_after_first_entity(self, seed, length):
        types = ["A", "B"]
        alpha = build_expanded_alphabet(types)
        labels = random_iob2(random.Random(seed), types, length)
        induced = induce(labels, alpha)
        seen_entity = False
        for label in induced:
            if label.startswith(("B-", "I-")):
                seen_entity = True
            elif seen_entity:
                assert label != "O"

    def test_length_preserved(self):
        labels = ["O", "B-A", "O", "O", "B-B", "I-B", "O"]
        assert len(induce(labels, ALPHA2)) == len(labels)


class TestStateCounts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_one_carrier_per_type(self, n):
        assert count_new_states(n) == n

    def test_report_includes_plain_outside_count(self):
        report = state_count_report(3)
        assert report.new_states == 3
        assert report.with_plain_outside == 4
        # the companion count is (N - 1) / 2 + 1 over N = 2E + 1 base labels
        n_base = 2 * 3 + 1
        assert report.with_plain_outside == (n_base - 1) // 2 + 1

    def test_rejects_zero(self):
        with pytest.raises(AlphabetError):
            count_new_states(0)
