"""Unit tests for frequency tables and the configuration space."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, FrequencyError
from repro.hardware.frequency import ConfigurationSpace, FrequencyTable
from repro.types import DvfsConfiguration


class TestFrequencyTable:
    def test_linspaced_endpoints_and_steps(self):
        table = FrequencyTable.linspaced("cpu", 0.42, 2.26, 25)
        assert len(table) == 25
        assert table.min == pytest.approx(0.42)
        assert table.max == pytest.approx(2.26)

    def test_requires_strictly_ascending(self):
        with pytest.raises(ConfigurationError):
            FrequencyTable("cpu", [1.0, 1.0, 2.0])
        with pytest.raises(ConfigurationError):
            FrequencyTable("cpu", [2.0, 1.0])

    def test_rejects_unknown_unit(self):
        with pytest.raises(ConfigurationError):
            FrequencyTable("npu", [1.0, 2.0])

    def test_rejects_too_few_steps(self):
        with pytest.raises(ConfigurationError):
            FrequencyTable("cpu", [1.0])

    def test_contains_with_float_tolerance(self):
        table = FrequencyTable("gpu", [0.5, 1.0])
        assert 0.5 + 1e-12 in table
        assert 0.75 not in table

    def test_index_of_and_error(self):
        table = FrequencyTable("mem", [0.5, 1.0, 1.5])
        assert table.index_of(1.0) == 1
        with pytest.raises(FrequencyError):
            table.index_of(0.75)

    def test_nearest_snaps_and_breaks_ties_down(self):
        table = FrequencyTable("cpu", [1.0, 2.0])
        assert table.nearest(1.2) == 1.0
        assert table.nearest(1.5) == 1.0  # ties go to the lower frequency
        assert table.nearest(1.51) == 2.0

    def test_nearest_rejects_nan(self):
        with pytest.raises(FrequencyError):
            FrequencyTable("cpu", [1.0, 2.0]).nearest(float("nan"))

    def test_normalize_denormalize_roundtrip(self):
        table = FrequencyTable.linspaced("gpu", 0.2, 1.2, 6)
        for freq in table:
            assert table.denormalize(table.normalize(freq)) == pytest.approx(freq)

    def test_equality_and_hash(self):
        a = FrequencyTable("cpu", [1.0, 2.0])
        b = FrequencyTable("cpu", [1.0, 2.0])
        c = FrequencyTable("cpu", [1.0, 2.5])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestConfigurationSpace:
    @pytest.fixture()
    def space(self):
        return ConfigurationSpace(
            FrequencyTable("cpu", [0.5, 1.0, 2.0]),
            FrequencyTable("gpu", [0.25, 0.75]),
            FrequencyTable("mem", [1.0, 1.5]),
        )

    def test_size_is_product(self, space):
        assert len(space) == 3 * 2 * 2
        assert space.shape == (3, 2, 2)

    def test_requires_canonical_table_order(self):
        with pytest.raises(ConfigurationError):
            ConfigurationSpace(
                FrequencyTable("gpu", [0.25, 0.75]),
                FrequencyTable("cpu", [0.5, 1.0]),
                FrequencyTable("mem", [1.0, 1.5]),
            )

    def test_enumeration_is_unique_and_in_space(self, space):
        configs = space.all_configurations()
        assert len(configs) == len(space)
        assert len(set(configs)) == len(space)
        assert all(c in space for c in configs)

    def test_flat_index_roundtrip(self, space):
        for i, config in enumerate(space.all_configurations()):
            assert space.flat_index_of(config) == i

    def test_at_and_indices_of(self, space):
        config = space.at(2, 1, 0)
        assert config == DvfsConfiguration(2.0, 0.75, 1.0)
        assert space.indices_of(config) == (2, 1, 0)

    def test_max_min_configurations(self, space):
        assert space.max_configuration() == DvfsConfiguration(2.0, 0.75, 1.5)
        assert space.min_configuration() == DvfsConfiguration(0.5, 0.25, 1.0)

    def test_contains_rejects_off_grid(self, space):
        assert DvfsConfiguration(0.6, 0.25, 1.0) not in space

    def test_normalize_bounds(self, space):
        top = space.normalize(space.max_configuration())
        bottom = space.normalize(space.min_configuration())
        assert np.allclose(top, 1.0)
        assert np.allclose(bottom, 0.0)

    def test_normalize_many_shape(self, space):
        arr = space.normalize_many(space.all_configurations()[:5])
        assert arr.shape == (5, 3)
        assert space.normalize_many([]).shape == (0, 3)

    def test_snap_returns_grid_point(self, space):
        snapped = space.snap(0.7, 0.5, 1.2)
        assert snapped in space

    def test_as_array_matches_enumeration(self, space):
        arr = space.as_array()
        assert arr.shape == (len(space), 3)
        assert tuple(arr[0]) == space.all_configurations()[0].as_tuple()


class TestSharedEnumeration:
    """Spaces with the same tables share one read-only enumeration."""

    def test_equal_tables_share_one_list_and_array(self):
        from repro.hardware.devices import get_device

        first, second = get_device("agx").space, get_device("agx").space
        assert first is not second
        assert first.all_configurations() is second.all_configurations()
        assert first.as_array() is second.as_array()
        assert get_device("tx2").space.as_array() is not first.as_array()

    @pytest.mark.parametrize("device", ["agx", "tx2"])
    def test_array_is_read_only_and_bit_equal_to_the_list(self, device):
        from repro.hardware.devices import get_device

        space = get_device(device).space
        coords = space.as_array()
        assert not coords.flags.writeable
        with pytest.raises(ValueError):
            coords[0, 0] = 1.0
        expected = np.array([c.as_tuple() for c in space.all_configurations()])
        assert coords.dtype == expected.dtype
        assert coords.shape == expected.shape == (len(space), 3)
        assert coords.tobytes() == expected.tobytes()

    def test_array_and_picks_build_no_whole_list(self, monkeypatch):
        built = []
        original = DvfsConfiguration.__post_init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(DvfsConfiguration, "__post_init__", counting)
        # Tables no other test uses, so nothing is cached for them yet.
        space = ConfigurationSpace(
            FrequencyTable("cpu", [0.31, 0.67, 1.13]),
            FrequencyTable("gpu", [0.29, 0.71]),
            FrequencyTable("mem", [0.37, 0.83, 1.41, 1.97]),
        )
        assert space.as_array().shape == (24, 3)
        assert built == []
        picked = space.configurations_at([0, 5, 23])
        assert len(built) == 3
        assert picked == [space.all_configurations()[i] for i in (0, 5, 23)]
        assert len(built) == 3 + 24
