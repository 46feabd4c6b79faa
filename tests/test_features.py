import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import counted_features, extract_features_loop, normalized
from picrf.corpus import Sentence
from picrf.crf import state_space, total_parameters
from picrf.crf_types import ModelOrder
from picrf.features import (
    AFFIX_LENGTHS,
    BIAS_FEATURE,
    BOS,
    EOS,
    WINDOW_OFFSETS,
    WINDOW_RADIUS,
    FeatureError,
    TemplateConfig,
    build_feature_index,
    extract_features,
    feature_id_matrix,
    make_feature_index,
    normalize_token,
)
from picrf.induction import build_expanded_alphabet
from picrf.model_io import Model, load_model, save_model

SET1 = TemplateConfig(set_id=1)
SET2 = TemplateConfig(set_id=2)


class TestNormalize:
    @pytest.mark.parametrize(
        "text,expected",
        [("IL-2", "il-0"), ("Gene", "gene"), ("123", "000"), ("A1b2", "a0b0")],
    )
    def test_cases(self, text, expected):
        assert normalize_token(text) == expected

    # non-ASCII decimal digits (Arabic-Indic, fullwidth, NKo), a numeral
    # that is not a decimal digit, a capital whose lowercase is longer,
    # the Kelvin sign (lowercases to ASCII k), and ASCII text
    @settings(max_examples=500, deadline=None)
    @given(st.text())
    @example("\u0663")
    @example("\uff13x")
    @example("\u07c1")
    @example("\xb2")
    @example("\u0130")
    @example("\u212a9")
    @example("A1b2-Z9")
    def test_equals_the_regex_definition(self, text):
        assert normalize_token(text) == normalized(text)


class TestTemplateConfig:
    def test_defaults(self):
        assert TemplateConfig() == TemplateConfig(set_id=1, min_feature_count=0)
        assert WINDOW_OFFSETS == (-1, 0, 1)
        assert AFFIX_LENGTHS == (2, 3, 4)
        assert WINDOW_RADIUS == 1

    def test_bad_set(self):
        with pytest.raises(FeatureError):
            TemplateConfig(set_id=3)

    @pytest.mark.parametrize(
        "field,value",
        [("window_offsets", (-1, 0, 1)), ("use_normalized", True), ("affix_lengths", (2, 3, 4))],
    )
    def test_fixed_settings_cannot_be_passed(self, field, value):
        """The window, the normalized words and the affix lengths are
        constants, refused as settings even at their values."""
        with pytest.raises(TypeError, match=field):
            TemplateConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("set_id", 2.0),
            ("min_feature_count", 1.5),
            ("min_feature_count", True),
            ("min_feature_count", -1),
        ],
    )
    def test_non_bool_or_non_integer_settings_rejected(self, field, value):
        with pytest.raises(FeatureError, match="^%s must be" % field):
            TemplateConfig(**{field: value})

    def test_feature_prefixes(self):
        window = {"W[-1]=", "W[0]=", "W[1]=", "NW[-1]=", "NW[0]=", "NW[1]="}
        assert SET1.feature_prefixes == window
        assert SET2.feature_prefixes == window | {
            "PRE[2]=", "PRE[3]=", "PRE[4]=", "SUF[2]=", "SUF[3]=", "SUF[4]="
        }

    @pytest.mark.parametrize("config", [SET1, SET2])
    def test_slots_in_extract_features_order(self, config):
        """The slots name the features of a token long enough for every
        affix, in the order extract_features emits them, BIAS last."""
        [features] = extract_features(Sentence.from_strings(["gene"]), config)
        names = ["%s[%d]" % slot for slot in config.slots] + [BIAS_FEATURE]
        assert [f.partition("=")[0] for f in features] == names


class TestExtractFeatures:
    def test_window_with_bos(self):
        feats = extract_features(Sentence.from_strings(["a", "b"]), SET1)
        assert feats[0] == [
            "W[-1]=" + BOS,
            "W[0]=a",
            "W[1]=b",
            "NW[-1]=" + BOS,
            "NW[0]=a",
            "NW[1]=b",
            BIAS_FEATURE,
        ]

    def test_window_with_eos(self):
        feats = extract_features(Sentence.from_strings(["a", "b"]), SET1)
        assert "W[1]=" + EOS in feats[1]

    def test_sentinels_cannot_collide_with_tokens(self):
        assert BOS[0] == "\x00" and EOS[0] == "\x00"

    def test_set1_has_no_affixes(self):
        feats = extract_features(Sentence.from_strings(["gene"]), SET1)
        assert not any(f.startswith(("PRE[", "SUF[")) for f in feats[0])

    def test_set2_affixes(self):
        feats = extract_features(Sentence.from_strings(["gene"]), SET2)
        for expected in (
            "PRE[2]=ge",
            "PRE[3]=gen",
            "PRE[4]=gene",
            "SUF[2]=ne",
            "SUF[3]=ene",
            "SUF[4]=gene",
        ):
            assert expected in feats[0]

    def test_short_token_skips_long_affixes(self):
        feats = extract_features(Sentence.from_strings(["ab"]), SET2)
        affixes = [f for f in feats[0] if f.startswith(("PRE[", "SUF["))]
        assert affixes == ["PRE[2]=ab", "SUF[2]=ab"]

    def test_bias_everywhere(self):
        feats = extract_features(Sentence.from_strings(["a", "b", "c"]), SET2)
        assert all(BIAS_FEATURE in position for position in feats)

    def test_normalized_window(self):
        feats = extract_features(Sentence.from_strings(["IL-2"]), SET1)
        assert "NW[0]=il-0" in feats[0]

    def test_empty_sentence_rejected(self):
        with pytest.raises(FeatureError):
            extract_features(Sentence.from_strings([]), SET1)

    def test_locality(self):
        base = ["t0", "t1", "t2", "t3", "t4"]
        edited = list(base)
        edited[2] = "zz"
        f_base = extract_features(Sentence.from_strings(base), SET2)
        f_edit = extract_features(Sentence.from_strings(edited), SET2)
        for j in range(len(base)):
            if abs(j - 2) > WINDOW_RADIUS:
                assert f_base[j] == f_edit[j]
            else:
                assert f_base[j] != f_edit[j]

    def test_no_duplicates(self):
        feats = extract_features(Sentence.from_strings(["aa", "aa", "aa"]), SET2)
        for position in feats:
            assert len(position) == len(set(position))

    # any text, so empty, short, non-ASCII and newline-holding tokens too
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.one_of(st.text(max_size=6), st.sampled_from(["\u0663", "\uff13x", "A\nB", "\u0130"])),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([SET1, SET2]),
    )
    @example(["a"], SET1)
    @example(["IL-2"], SET2)
    @example(["\u0663\u0664", "Ab", "abcde"], SET2)
    def test_equals_the_position_loop(self, tokens, config):
        """The slot columns give the strings, in the order, that spelling
        out every slot of every position gives."""
        sentence = Sentence(tuple(tokens))
        assert extract_features(sentence, config) == extract_features_loop(sentence, config)


ALPHA1 = build_expanded_alphabet(["A"])
ALPHA2 = build_expanded_alphabet(["A", "B"])


def _corpus(*rows):
    return [Sentence.from_strings(list(texts)) for texts in rows]


class TestFeatureIndex:
    def test_first_order_block_is_base_label_count(self):
        index = build_feature_index(_corpus(["a"]), SET1, ALPHA1, ModelOrder.FIRST)
        assert index.obs_labels == ALPHA1.base_labels
        assert index.block_size == 3
        assert not index.has_coarse

    def test_second_order_blocks_match_first(self):
        index = build_feature_index(_corpus(["a"]), SET1, ALPHA1, ModelOrder.SECOND)
        assert index.block_size == 3 and not index.has_coarse

    def test_pre_induced_block_adds_coarse_slot(self):
        index = build_feature_index(_corpus(["a"]), SET1, ALPHA2, ModelOrder.PRE_INDUCED)
        assert index.obs_labels == ALPHA2.expanded_labels
        assert index.block_size == 7 + 1

    def test_slot_blocks_do_not_overlap(self):
        index = build_feature_index(_corpus(["a", "b"]), SET2, ALPHA2, ModelOrder.PRE_INDUCED)
        starts = [index.block_start(i) for i in range(len(index.features))]
        assert starts == sorted(set(starts))
        assert all(b - a == index.block_size for a, b in zip(starts, starts[1:]))
        assert index.n_parameters == len(index.features) * index.block_size

    def test_first_occurrence_order(self):
        corpus = _corpus(["x"], ["y"])
        index = build_feature_index(corpus, SET1, ALPHA1, ModelOrder.FIRST)
        assert index.feature_ids["W[0]=x"] < index.feature_ids["W[0]=y"]

    def test_min_count_cutoff(self):
        corpus = _corpus(["x", "x"], ["y"])
        config = TemplateConfig(set_id=1, min_feature_count=2)
        index = build_feature_index(corpus, config, ALPHA1, ModelOrder.FIRST)
        assert "W[0]=x" in index.feature_ids
        assert "W[0]=y" not in index.feature_ids

    def test_empty_after_cutoff(self):
        config = TemplateConfig(set_id=1, min_feature_count=1000)
        with pytest.raises(FeatureError):
            build_feature_index(_corpus(["a"]), config, ALPHA1, ModelOrder.FIRST)

    def test_make_index_rejects_duplicates(self):
        for features in (["BIAS", "BIAS"], ["W[0]=a", "BIAS", "W[0]=a"]):
            with pytest.raises(FeatureError, match="^duplicate feature strings") as err:
                make_feature_index(features, SET1, ALPHA1, ModelOrder.FIRST)
            assert err.value.position is None

    @pytest.mark.parametrize(
        "features, config, position",
        [
            (["BIAS", "PRE[3]=ab"], SET2, 1),
            (["SUF[2]=abc"], SET2, 0),
            (["PRE[2]=ab"], SET1, 0),
            (["W[0]=a", "W[0]="], SET1, 1),
            (["W[0]"], SET1, 0),
            (["BIAS=", "BIAS"], SET1, 0),
            (["W[0]=a", "W[0]=a", "NW[0]=", "X=1"], SET1, 2),
            (["NW[-1]=" + BOS, "NW[1]=" + EOS, "NW[0]=a", "NW[0]=aB"], SET1, 3),
            (["NW[0]=a\nb", "NW[1]=a\nB"], SET1, 1),
            (["NW[1]=\u0663"], SET2, 0),
        ],
    )
    def test_make_index_refuses_features_the_template_cannot_emit(
        self, features, config, position
    ):
        """The first feature outside the template's slots, with an empty
        word, with an affix of the wrong length or with an NW word that is
        not normalized is named by its position, ahead of any duplicate."""
        with pytest.raises(FeatureError, match="^the template cannot emit feature") as err:
            make_feature_index(features, config, ALPHA1, ModelOrder.FIRST)
        assert err.value.position == position
        assert str(err.value).endswith(repr(features[position]))

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.text(min_size=1, max_size=4),
                st.sampled_from([BOS, EOS, BOS + "x", "a\nB", "a\n" + BOS, "\u03a3", "a\u03c2"]),
            ),
            unique=True,
            max_size=6,
        )
    )
    def test_make_index_accepts_nw_words_exactly_when_normalized(self, words):
        """An NW word other than BOS and EOS is accepted exactly when
        normalize_token, by its regex definition, leaves it unchanged."""
        features = ["NW[0]=" + word for word in words] + [BIAS_FEATURE]
        bad = [i for i, word in enumerate(words) if word not in (BOS, EOS) and normalized(word) != word]
        if bad:
            with pytest.raises(FeatureError, match="^the template cannot emit feature") as err:
                make_feature_index(features, SET1, ALPHA1, ModelOrder.FIRST)
            assert err.value.position == bad[0]
        else:
            make_feature_index(features, SET1, ALPHA1, ModelOrder.FIRST)

    def test_empty_token_rejected_naming_sentence_and_position(self):
        """A Sentence built directly may hold an empty token; its features
        could be saved but not loaded, so indexing refuses it."""
        corpus = [Sentence(("a", "b"), ("O", "O")), Sentence(("a", "b", ""), ("B-A", "O", "O"))]
        with pytest.raises(FeatureError, match="^sentence 1: empty token at position 2$"):
            build_feature_index(corpus, SET2, ALPHA1, ModelOrder.FIRST)

    def test_slot_tables_split_each_feature_at_its_first_equals(self):
        features = ["W[0]==", "W[0]=a=b", "NW[1]=w[0]=x", BIAS_FEATURE, "SUF[2]=b="]
        tables = make_feature_index(features, SET2, ALPHA1, ModelOrder.FIRST).slot_tables
        assert set(tables) == {"%s[%d]" % slot for slot in SET2.slots} | {BIAS_FEATURE}
        assert tables["W[0]"] == {"=": 0, "a=b": 1}
        assert tables["NW[1]"] == {"w[0]=x": 2}
        assert tables[BIAS_FEATURE] == {"": 3}
        assert tables["SUF[2]"] == {"b=": 4}
        assert not tables["W[1]"] and not tables["PRE[2]"]


class TestObservationSlots:
    def setup_method(self):
        self.index = build_feature_index(
            _corpus(["a"]), SET1, ALPHA2, ModelOrder.PRE_INDUCED
        )
        self.first = build_feature_index(_corpus(["a"]), SET1, ALPHA2, ModelOrder.FIRST)

    def test_entity_state_gets_fine_slot_only(self):
        slots = self.index.observation_slots(BIAS_FEATURE, "B-A")
        fid = self.index.feature_ids[BIAS_FEATURE]
        assert slots == [fid * 8 + 0]

    def test_outside_states_add_shared_coarse_slot(self):
        fid = self.index.feature_ids[BIAS_FEATURE]
        coarse = fid * 8 + 7
        assert self.index.observation_slots(BIAS_FEATURE, "O")[1] == coarse
        assert self.index.observation_slots(BIAS_FEATURE, "A[O]")[1] == coarse

    def test_two_carriers_share_exactly_one_slot(self):
        a = set(self.index.observation_slots(BIAS_FEATURE, "A[O]"))
        b = set(self.index.observation_slots(BIAS_FEATURE, "B[O]"))
        shared = a & b
        assert len(shared) == 1
        fid = self.index.feature_ids[BIAS_FEATURE]
        assert shared == {fid * 8 + self.index.n_fine}

    def test_first_order_has_single_slot(self):
        assert len(self.first.observation_slots(BIAS_FEATURE, "O")) == 1

    def test_unknown_feature_raises(self):
        with pytest.raises(FeatureError):
            self.index.observation_slots("W[0]=unseen", "O")

    def test_unknown_state_raises(self):
        with pytest.raises(FeatureError):
            self.index.observation_slots(BIAS_FEATURE, "Z[O]")

    def test_carrier_state_unknown_to_first_order_index(self):
        with pytest.raises(FeatureError):
            self.first.observation_slots(BIAS_FEATURE, "A[O]")


class TestEncode:
    def test_unknown_features_dropped(self):
        index = build_feature_index(_corpus(["a"]), SET1, ALPHA1, ModelOrder.FIRST)
        encoded = index.encode_positions([["W[0]=a", "W[0]=zz", BIAS_FEATURE]])
        known = {index.block_start(index.feature_ids[f]) for f in ("W[0]=a", BIAS_FEATURE)}
        assert set(encoded[0].tolist()) == known

    def test_encode_empty_position(self):
        index = build_feature_index(_corpus(["a"]), SET1, ALPHA1, ModelOrder.FIRST)
        encoded = index.encode_positions([["nothing-known"]])
        assert encoded[0].size == 0
        assert encoded[0].dtype == np.int64


# Words that collide under normalize_token (case, digits), words shorter
# than the affix lengths, a word spelled like the BOS sentinel, words
# holding "=" (where the slot tables split a feature), and non-ASCII
# words, with non-ASCII digits and a titlecase letter.
_WORDS = st.one_of(
    st.sampled_from(
        ["a", "A", "ab", "Ab", "a1", "A7", "x9y", "X0Y", "IL-2", "il-5", BOS]
        + ["=", "a=b", "W[0]=x"]
        + ["\xc4\u0663", "\xe40", "\uff13x", "\u01c5", "\u01c6"]
    ),
    st.text(alphabet="aAbB09-=", min_size=1, max_size=6),
)
_SENTENCES = st.lists(_WORDS, max_size=5).map(Sentence.from_strings)
_CONFIGS = st.builds(
    TemplateConfig,
    set_id=st.sampled_from([1, 2]),
    min_feature_count=st.sampled_from([0, 1, 2]),
)


def _non_empty(corpus):
    return [sentence for sentence in corpus if len(sentence)]


def _through_file(index, config):
    """The index of a model over index, saved with save_model and read
    back with load_model."""
    weights = np.zeros(total_parameters(index, state_space(ModelOrder.FIRST, ALPHA1)))
    buffer = io.StringIO()
    save_model(Model(ModelOrder.FIRST, ALPHA1, config, index, weights), buffer)
    return load_model(io.StringIO(buffer.getvalue())).index


class TestFeatureTables:
    """feature_id_matrix and the index built from it against the reference
    per-position strings of extract_features."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_SENTENCES, min_size=1, max_size=5),
        st.lists(_SENTENCES, max_size=5),
        _CONFIGS,
        st.booleans(),
    )
    @example([Sentence.from_strings(["gene"])], [Sentence.from_strings(["Gene"])], SET2, False)
    @example(
        [Sentence.from_strings(["a=b", "=", "W[0]=x", "ab=="])],
        [Sentence.from_strings(["W[0]=x", "==", "a=b", "=", "ab=="])],
        SET2,
        True,
    )
    def test_ids_equal_encoded_reference(self, seen, decoded, config, through_file):
        """Per position, the row's ids are the reference encoding of the
        same features, in the same order; features the index lacks (tokens
        unseen at decode time) are left out, and empty sentences give no
        rows. With through_file, the index decoded with is that of a model
        saved and loaded back, so its slot tables come from a model file."""
        features = counted_features(_non_empty(seen), config)
        if not features:
            return
        index = make_feature_index(features, config, ALPHA1, ModelOrder.FIRST)
        if through_file:
            index = _through_file(index, config)
        ids = feature_id_matrix(decoded, index)
        expected = [
            starts // index.block_size
            for sentence in _non_empty(decoded)
            for starts in index.encode_positions(extract_features(sentence, config))
        ]
        assert ids.shape[0] == len(expected)
        for row, want in zip(ids, expected):
            assert row[row >= 0].tolist() == want.tolist()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_SENTENCES.filter(len), min_size=1, max_size=6), _CONFIGS)
    @example([Sentence.from_strings(["A1", "a2", "a1"])], TemplateConfig(min_feature_count=2))
    def test_index_equals_counted_strings(self, corpus, config):
        """Same features in the same first-occurrence order, with the same
        min_feature_count cutoff, as counting the strings."""
        expected = counted_features(corpus, config)
        if not expected:
            with pytest.raises(FeatureError):
                build_feature_index(corpus, config, ALPHA1, ModelOrder.FIRST)
            return
        assert build_feature_index(corpus, config, ALPHA1, ModelOrder.FIRST).features == expected

    def test_empty_sentence_rejected_by_index(self):
        with pytest.raises(FeatureError, match="empty sentence"):
            build_feature_index(_corpus(["a"], []), SET1, ALPHA1, ModelOrder.FIRST)
