"""Layer counts repeat exactly for a seed; layers a plan bypasses read 0."""

import workloads

#: Units of the metrics that are counts, not times.
COUNTED = ("/query", "/op", "count", "ratio", "bytes")


def _counts(layers):
    return {
        name: value
        for name, (value, unit) in layers.metrics.items()
        if unit in COUNTED and not name.startswith("bench.")
    }


def test_two_layer_passes_with_one_seed_count_the_same(smoke_settings):
    first = workloads.run_layer_pass("core_nvd", smoke_settings)
    again = workloads.run_layer_pass("core_nvd", smoke_settings)
    assert first.failed == again.failed == 0
    assert _counts(first) == _counts(again)
    assert first.metrics["core.heap_generator.us"][0] > 0
    assert first.metrics["lowerbound.alt.pairs_per_query"][0] > 0


def test_label_seeding_bypasses_alt_and_the_nvd_heaps(smoke_settings):
    layers = workloads.run_layer_pass("core_labels", smoke_settings)
    assert layers.failed == 0
    for name in (
        "core.label_seeding.fallback_ratio", "lowerbound.alt.us",
        "lowerbound.alt.pairs_per_query", "core.heap_generator.us",
        "core.heap_generator.insertions_per_query",
    ):
        assert layers.metrics[name][0] == 0
    assert layers.metrics["core.label_seeding.us"][0] > 0
    assert 0 <= layers.metrics["bench.untraced_share"][0] < 1


def test_update_mix_counts_repeat_and_fall_back_to_nvd(smoke_settings):
    first = workloads.run_layer_pass("engine_update_mix", smoke_settings)
    again = workloads.run_layer_pass("engine_update_mix", smoke_settings)
    assert first.failed == again.failed == 0
    assert _counts(first) == _counts(again)
    assert first.metrics["core.label_seeding.fallback_ratio"][0] > 0
    assert first.metrics["serve.cache.evicted_per_update"][0] > 0
