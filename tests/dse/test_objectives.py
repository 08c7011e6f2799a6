"""The batched PPA objectives against the per-design models — bit for bit."""

import pytest

from repro.dse import mix_weighted_cycles
from repro.dse.objectives import (BUFFERS_FACTOR, design_area_columns,
                                  design_power_columns)
from repro.dse.space import MixEntry, space_by_name
from repro.perf.area import core_area_mm2
from repro.perf.energy import EnergyModel
from repro.perf.predictor.features import config_feature_columns


def _rated_power_w(config, node_nm):
    em = EnergyModel(config, node_nm)
    return (em.cube_power_w() + em.vector_power_w()) \
        * (1.0 + em.static_fraction)


class TestVectorizedEqualsScalar:
    """The promotion loop must rank with exactly the numbers the scalar
    per-design PPA models produce — any drift silently reshuffles
    strata."""

    @pytest.fixture(scope="class")
    def smoke_configs(self):
        space = space_by_name("smoke")
        return [space.decode(p) for p in space.points()]

    def test_area_bit_identical(self, smoke_configs):
        columns = config_feature_columns(smoke_configs)
        areas = design_area_columns(columns, 7)
        for config, vec in zip(smoke_configs, areas):
            assert float(vec) == core_area_mm2(
                config, 7, buffers_factor=BUFFERS_FACTOR)

    def test_power_bit_identical(self, smoke_configs):
        columns = config_feature_columns(smoke_configs)
        powers = design_power_columns(columns, 7)
        for config, vec in zip(smoke_configs, powers):
            assert float(vec) == _rated_power_w(config, 7)

    def test_power_is_rated_not_average(self, smoke_configs):
        # Rated power is a design property: no utilization, no runtime.
        config = smoke_configs[0]
        em = EnergyModel(config, 7)
        [rated] = design_power_columns(config_feature_columns([config]), 7)
        assert float(rated) == _rated_power_w(config, 7)
        assert float(rated) > em.cube_power_w() + em.vector_power_w()


class TestMixWeighting:
    def test_weighted_sum_in_mix_order(self):
        mix = (MixEntry.of("a", weight=2.0), MixEntry.of("b", weight=0.5))
        assert mix_weighted_cycles(mix, [10.0, 4.0]) == 22.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mix_weighted_cycles((MixEntry.of("a"),), [1.0, 2.0])
