"""Preset construction: labels, config validity, crossover interpolation."""

import pytest

from qdnsim.errors import ConfigError
from qdnsim.presets import PRESETS, get_preset, interpolate_crossover


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_configs_validate(self, name):
        runs = PRESETS[name].build([1, 2])
        assert runs
        labels = [r.label for r in runs]
        assert len(labels) == len(set(labels))
        for preset_run in runs:
            preset_run.config.validate()

    def test_seed_count_scales_runs(self):
        one = PRESETS["appendix_e"].build([1])
        three = PRESETS["appendix_e"].build([1, 2, 3])
        assert len(three) == 3 * len(one)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            get_preset("bogus")


class TestRowOrder:
    @pytest.mark.parametrize("name, table, axis", [
        ("appendix_e", "summary", None),
        ("net_size_sweep", "runs", "n_infra"),
        ("workload_sweep", "runs", "n_sessions"),
    ])
    def test_runs_order_by_their_fields_with_numeric_seeds(self, name, table,
                                                           axis):
        # Labels order seed 10 before seed 2; the row fields do not.
        preset = PRESETS[name]
        rows = [{"run": run.label, **run.key,
                 "protocol": run.config.protocol.value,
                 "seed": run.config.seed, "delivered_total": 1}
                for run in preset.build([10, 2])]
        ordered = preset.summarize(rows)[table]
        keys = [(row.get(axis), row["protocol"], row["seed"])
                for row in ordered]
        assert keys == sorted(keys)
        assert len(ordered) == len(rows)
        if name == "appendix_e":
            assert [row["run"] for row in ordered] == [
                "tag_seed2", "tag_seed10", "tele_seed2", "tele_seed10"]


class TestCrossover:
    def test_interpolates_between_samples(self):
        assert interpolate_crossover([1, 2, 3], [-2, 0, 2]) == 2
        assert interpolate_crossover([1, 2], [-1, 1]) == pytest.approx(1.5)

    def test_no_crossing(self):
        assert interpolate_crossover([1, 2, 3], [-3, -2, -1]) is None

    def test_crossing_at_first_point(self):
        assert interpolate_crossover([1, 2], [0, 5]) == 1
