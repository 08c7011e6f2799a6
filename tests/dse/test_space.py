"""Declarative search spaces: enumeration, identity, and decoding."""

from collections import deque

import numpy as np
import pytest

from repro.config import core_config_by_name
from repro.dse import Knob, MixEntry, SearchSpace, space_by_name
from repro.dse.space import NAMED_SPACES
from repro.errors import ConfigError
from repro.models import build_model


def _space(**overrides):
    kwargs = dict(
        name="t",
        base_name="ascend-lite",
        knobs=(
            Knob("freq_factor", (0.75, 1.0)),
            Knob("l1a_factor", (0.5, 1.0)),
            Knob("ub_factor", (0.5, 1.0)),
        ),
        mix=(MixEntry.of("gesture"),),
    )
    kwargs.update(overrides)
    return SearchSpace(**kwargs)


class TestShape:
    def test_size_is_product_of_knob_values(self):
        assert _space().size() == 8
        assert space_by_name("smoke").size() == 288

    def test_points_enumerate_exactly_once_knob_major(self):
        space = _space()
        points = list(space.points())
        assert len(points) == space.size()
        keys = {space.candidate_key(p) for p in points}
        assert len(keys) == space.size()
        # Knob-major: the last knob varies fastest.
        assert points[0] == {"freq_factor": 0.75, "l1a_factor": 0.5,
                             "ub_factor": 0.5}
        assert points[1] == {"freq_factor": 0.75, "l1a_factor": 0.5,
                             "ub_factor": 1.0}

    def test_neighbors_are_every_one_knob_variation(self):
        space = _space()
        first = next(space.points())
        neighbors = list(space.neighbors(first))
        assert len(neighbors) == sum(len(k.values) - 1 for k in space.knobs)
        for n in neighbors:
            assert sum(n[k] != first[k] for k in first) == 1

    def test_random_ops_stay_inside_the_space(self):
        space = _space()
        rng = np.random.default_rng(0)
        values = {k.name: set(k.values) for k in space.knobs}
        a = space.random_assignment(rng)
        b = space.random_assignment(rng)
        for out in (a, b, space.mutate(a, rng), space.crossover(a, b, rng)):
            assert set(out) == set(values)
            for name, value in out.items():
                assert value in values[name]


class TestIdentity:
    def test_candidate_key_ignores_insertion_order(self):
        space = _space()
        point = next(space.points())
        scrambled = dict(reversed(list(point.items())))
        assert space.candidate_key(point) == space.candidate_key(scrambled)

    def test_candidate_key_depends_on_values_and_base(self):
        space = _space()
        a, b = list(space.points())[:2]
        assert space.candidate_key(a) != space.candidate_key(b)
        other = _space(base_name="ascend")
        assert space.candidate_key(a) != other.candidate_key(a)

    def test_round_trip_preserves_digest(self):
        space = space_by_name("smoke")
        clone = SearchSpace.from_dict(space.to_dict())
        assert clone == space
        assert clone.digest() == space.digest()

    def test_malformed_payload_is_a_config_error(self):
        with pytest.raises(ConfigError):
            SearchSpace.from_dict({"name": "x"})


class TestValidation:
    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError):
            Knob("warp_factor", (1.0,))

    def test_duplicate_knob_values_rejected(self):
        with pytest.raises(ConfigError):
            Knob("freq_factor", (1.0, 1.0))

    def test_llc_knob_needs_a_fabric_limit(self):
        # ascend-tiny's Table 5 row has no LLC bandwidth (N/A).
        with pytest.raises(ConfigError):
            _space(base_name="ascend-tiny",
                   knobs=(Knob("llc_factor", (1.0, 2.0)),))

    def test_unknown_named_space_rejected(self):
        with pytest.raises(ConfigError):
            space_by_name("galactic")


class TestDecode:
    def test_decode_applies_factors_to_the_base(self):
        space = space_by_name("smoke")
        base = core_config_by_name("ascend-lite")
        point = {"freq_factor": 0.75, "cube_m": 4, "l1a_factor": 0.25,
                 "l1b_factor": 1.0, "ub_factor": 1.0, "llc_factor": 2.0,
                 "l1_capacity_factor": 2.0}
        config = space.decode(point)
        assert config.frequency_hz == base.frequency_hz * 0.75
        assert (config.cube.m, config.cube.k, config.cube.n) \
            == (4, base.cube.k, base.cube.n)
        assert config.l1_to_l0a_bw == base.l1_to_l0a_bw * 0.25
        assert config.l1_to_l0b_bw == base.l1_to_l0b_bw
        assert config.llc_bw_per_core == base.llc_bw_per_core * 2.0
        assert config.l1_bytes == base.l1_bytes * 2
        assert config.cube_dtypes == base.cube_dtypes

    def test_decoded_name_embeds_the_content_key(self):
        space = _space()
        point = next(space.points())
        config = space.decode(point)
        assert config.name \
            == f"ascend-lite-dse-{space.candidate_key(point)[:10]}"


class TestNamedSpaces:
    @pytest.mark.parametrize("name,size", [
        ("smoke", 288), ("edge", 82_944), ("datacenter", 5_184)])
    def test_every_named_space_builds_and_decodes(self, name, size):
        assert set(NAMED_SPACES) == {"smoke", "edge", "datacenter"}
        space = space_by_name(name)
        assert space.size() == size == int(np.prod(
            [len(k.values) for k in space.knobs]))
        points = space.points()
        first = next(points)
        last = deque(points, maxlen=1)[0]
        assert first == {k.name: k.values[0] for k in space.knobs}
        assert last == {k.name: k.values[-1] for k in space.knobs}
        for point in (first, last):
            config = space.decode(point)
            assert config.cube_dtypes == space.base.cube_dtypes
        # Every mix model runs on the base core (hence on every point).
        for entry in space.mix:
            graph = build_model(entry.model, **entry.kwargs_dict)
            for _, work in graph.grouped_workloads():
                for gemm in work.gemms:
                    assert space.base.supports_dtype(gemm.dtype), entry.label
