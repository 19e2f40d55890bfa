"""Tests for the textual substrate: documents, relevance, Zipf tooling."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import (
    KeywordDataset,
    RelevanceModel,
    ZipfSampler,
    empirical_percentile_frequency,
    fraction_at_most,
    predicted_percentile_frequency,
    weighted_sum_score,
    zipf_alpha_estimate,
)


@pytest.fixture
def paper_example():
    """The 8 objects of the paper's Figure 1."""
    return KeywordDataset(
        {
            1: ["italian", "restaurant"],
            2: ["takeaway", "thai"],
            3: ["grocer"],
            4: ["bakery", "grocer"],
            5: ["thai", "restaurant"],
            6: ["thai", "restaurant"],
            7: ["thai", "grocer"],
            8: ["italian", "takeaway", "restaurant"],
        }
    )


class TestKeywordDataset:
    def test_counts(self, paper_example):
        assert paper_example.num_objects == 8
        assert paper_example.num_keywords == 6
        assert paper_example.num_occurrences == 16

    def test_inverted_lists(self, paper_example):
        assert paper_example.inverted_list("thai") == (2, 5, 6, 7)
        assert paper_example.inverted_size("restaurant") == 4
        assert paper_example.inverted_list("sushi") == ()

    def test_frequency_counting(self):
        data = KeywordDataset({1: ["a", "a", "b"]})
        assert data.frequency(1, "a") == 2
        assert data.frequency(1, "b") == 1
        assert data.frequency(1, "z") == 0
        assert data.frequency(99, "a") == 0

    def test_mapping_documents(self):
        data = KeywordDataset({1: {"a": 3, "b": 1, "skip": 0}})
        assert data.frequency(1, "a") == 3
        assert not data.contains(1, "skip")

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError):
            KeywordDataset({1: []})

    def test_duplicate_object_rejected(self):
        # dict keys are unique; simulate via direct call
        data = KeywordDataset({})
        data._add_document(1, ["a"])
        with pytest.raises(ValueError):
            data._add_document(1, ["b"])

    def test_boolean_criteria(self, paper_example):
        assert paper_example.contains_all(6, ["thai", "restaurant"])
        assert not paper_example.contains_all(2, ["thai", "restaurant"])
        assert paper_example.contains_any(2, ["thai", "restaurant"])
        assert not paper_example.contains_any(3, ["thai", "restaurant"])
        assert not paper_example.contains_all(99, ["thai"])
        assert not paper_example.contains_any(99, ["thai"])

    def test_least_frequent_keyword(self, paper_example):
        assert paper_example.least_frequent_keyword(["thai", "italian"]) == "italian"
        with pytest.raises(ValueError):
            paper_example.least_frequent_keyword([])

    def test_frequency_rank_sorted(self, paper_example):
        rank = paper_example.frequency_rank()
        sizes = [s for _, s in rank]
        assert sizes == sorted(sizes, reverse=True)
        assert rank[0][1] == 4  # thai / restaurant / grocer tie region

    def test_memory_positive(self, paper_example):
        assert paper_example.memory_bytes() > 0


class TestRelevanceModel:
    def test_impacts_normalised(self, paper_example):
        model = RelevanceModel(paper_example)
        for o in paper_example.objects():
            total = sum(
                model.object_impact(o, t) ** 2 for t in paper_example.document(o)
            )
            assert total == pytest.approx(1.0)

    def test_max_impact_dominates(self, paper_example):
        model = RelevanceModel(paper_example)
        for t in paper_example.keywords():
            for o in paper_example.inverted_list(t):
                assert model.object_impact(o, t) <= model.max_impact(t) + 1e-12

    def test_idf_decreases_with_frequency(self, paper_example):
        model = RelevanceModel(paper_example)
        assert model.idf("bakery") > model.idf("thai")
        assert model.idf("unknown") == 0.0

    def test_relevance_zero_without_keywords(self, paper_example):
        model = RelevanceModel(paper_example)
        assert model.textual_relevance(["thai"], 3) == 0.0
        assert model.textual_relevance(["thai"], 12345) == 0.0

    def test_scores_are_floats_when_nothing_overlaps(self, paper_example):
        model = RelevanceModel(paper_example)
        impacts = model.query_impacts(["thai"])
        assert isinstance(model.textual_relevance(["thai"], 3), float)
        assert isinstance(model.relevance_from_document({"grocer": 1}, impacts), float)
        assert isinstance(model.max_textual_relevance([], {}), float)

    def test_relevance_bounded_by_max(self, paper_example):
        model = RelevanceModel(paper_example)
        keywords = ["thai", "restaurant"]
        ceiling = model.max_textual_relevance(keywords)
        for o in paper_example.objects():
            assert model.textual_relevance(keywords, o) <= ceiling + 1e-12

    def test_score_is_weighted_distance(self, paper_example):
        model = RelevanceModel(paper_example)
        keywords = ["thai"]
        tr = model.textual_relevance(keywords, 6)
        assert model.spatio_textual_score(4.0, keywords, 6) == pytest.approx(4.0 / tr)

    def test_score_infinite_for_irrelevant(self, paper_example):
        model = RelevanceModel(paper_example)
        assert model.spatio_textual_score(1.0, ["thai"], 3) == math.inf

    def test_query_impacts_cached_shape(self, paper_example):
        model = RelevanceModel(paper_example)
        impacts = model.query_impacts(["thai", "restaurant", "thai"])
        assert set(impacts) == {"thai", "restaurant"}
        norm = sum(w * w for w in impacts.values())
        assert norm == pytest.approx(1.0)

    def test_query_impacts_all_unknown(self, paper_example):
        model = RelevanceModel(paper_example)
        assert model.query_impacts(["nope"]) == {"nope": 0.0}

    def test_higher_frequency_higher_impact(self):
        data = KeywordDataset({1: ["a", "a", "a", "b"], 2: ["a", "b"]})
        model = RelevanceModel(data)
        assert model.object_impact(1, "a") > model.object_impact(1, "b")


class TestWeightedSum:
    def test_interpolates(self):
        assert weighted_sum_score(0.0, 1.0, alpha=0.5) == 0.0
        assert weighted_sum_score(1.0, 0.0, alpha=0.5) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            weighted_sum_score(1.0, 1.0, alpha=2.0)
        with pytest.raises(ValueError):
            weighted_sum_score(1.0, 1.0, max_distance=0.0)

    def test_distance_clamped(self):
        assert weighted_sum_score(99.0, 1.0, alpha=1.0, max_distance=1.0) == 1.0


class TestZipf:
    def test_sampler_validation(self):
        with pytest.raises(ValueError):
            ZipfSampler(0)
        with pytest.raises(ValueError):
            ZipfSampler(10, alpha=0.0)

    def test_sampler_rank_zero_most_common(self):
        sampler = ZipfSampler(100, seed=1)
        ranks = sampler.sample_ranks(5000)
        counts = [ranks.count(r) for r in range(3)]
        assert counts[0] > counts[1] > counts[2]

    def test_sampler_deterministic(self):
        a = ZipfSampler(50, seed=9).sample_ranks(100)
        b = ZipfSampler(50, seed=9).sample_ranks(100)
        assert a == b

    def test_alpha_estimate_recovers_zipf(self):
        # Build an exactly Zipfian corpus: f_r = 1000 / (r+1).
        frequencies = [max(1, round(1000 / (r + 1))) for r in range(200)]
        alpha = zipf_alpha_estimate(frequencies)
        assert 0.8 < alpha < 1.2

    def test_alpha_estimate_validation(self):
        with pytest.raises(ValueError):
            zipf_alpha_estimate([5])

    def test_percentile_prediction_matches_paper_form(self):
        # f_max / (0.2 |W|) with f_max=1000, |W|=1000 -> 5.
        assert predicted_percentile_frequency(1000, 1000, 0.8) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            predicted_percentile_frequency(1000, 1000, 1.5)
        with pytest.raises(ValueError):
            predicted_percentile_frequency(0, 10)

    def test_empirical_percentile(self):
        frequencies = list(range(1, 101))
        assert empirical_percentile_frequency(frequencies, 0.8) == 81
        with pytest.raises(ValueError):
            empirical_percentile_frequency([], 0.8)

    def test_fraction_at_most(self):
        assert fraction_at_most([1, 2, 3, 10], 3) == 0.75
        with pytest.raises(ValueError):
            fraction_at_most([], 1)

    def test_zipfian_corpus_has_long_tail(self):
        """Observation 1 end-to-end: a Zipf corpus is mostly tiny lists."""
        sampler = ZipfSampler(500, alpha=1.0, seed=3)
        ranks = sampler.sample_ranks(4000)
        counts: dict[int, int] = {}
        for r in ranks:
            counts[r] = counts.get(r, 0) + 1
        frequencies = list(counts.values())
        predicted = predicted_percentile_frequency(
            max(frequencies), len(frequencies), 0.8
        )
        # The 80% long tail sits at-or-below the predicted threshold
        # (allow slack for sampling noise).
        assert fraction_at_most(frequencies, max(5.0, predicted)) > 0.6


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=6),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_relevance_properties(documents):
    data = KeywordDataset(documents)
    model = RelevanceModel(data)
    rng = random.Random(0)
    keywords = rng.sample("abcdef", 3)
    ceiling = model.max_textual_relevance(keywords)
    for o in data.objects():
        tr = model.textual_relevance(keywords, o)
        assert 0.0 <= tr <= ceiling + 1e-9
        if tr == 0.0:
            assert not data.contains_any(o, keywords)
