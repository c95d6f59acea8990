"""Unit tests for configuration objects and their validation."""

from __future__ import annotations

import pytest

from repro.common import (
    ConfigurationError,
    LoggingConfig,
    LSMerkleConfig,
    PlacementConfig,
    Region,
    SecurityConfig,
    SystemConfig,
    WorkloadConfig,
)
from repro.common.config import validate_regions


class TestLSMerkleConfig:
    def test_paper_default_matches_section_vi(self):
        config = LSMerkleConfig.paper_default()
        assert config.level_thresholds == (10, 10, 100, 1000)
        assert config.num_levels == 4

    def test_exposition_example_matches_figure3(self):
        config = LSMerkleConfig.exposition_example()
        assert config.level_thresholds == (2, 2, 4)

    def test_rejects_single_level(self):
        with pytest.raises(ConfigurationError):
            LSMerkleConfig(level_thresholds=(10,))

    def test_rejects_non_positive_threshold(self):
        with pytest.raises(ConfigurationError):
            LSMerkleConfig(level_thresholds=(10, 0))


class TestLoggingConfig:
    def test_defaults(self):
        config = LoggingConfig()
        assert config.block_size == 100

    def test_rejects_non_positive_block_size(self):
        with pytest.raises(ConfigurationError):
            LoggingConfig(block_size=0)

    def test_rejects_negative_timeout(self):
        with pytest.raises(ConfigurationError):
            LoggingConfig(block_timeout_s=-1.0)


class TestSecurityConfig:
    def test_defaults_are_valid(self):
        config = SecurityConfig()
        assert config.signature_scheme == "hmac"
        assert config.freshness_window_s is None

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            SecurityConfig(signature_scheme="rsa")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dispute_timeout_s": 0},
            {"gossip_interval_s": 0},
            {"freshness_window_s": -1.0},
        ],
    )
    def test_rejects_non_positive_intervals(self, kwargs):
        with pytest.raises(ConfigurationError):
            SecurityConfig(**kwargs)


class TestWorkloadConfig:
    def test_defaults_match_paper(self):
        config = WorkloadConfig()
        assert config.batch_size == 100
        assert config.value_size == 100
        assert config.key_space == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_clients": 0},
            {"batch_size": -1},
            {"value_size": 0},
            {"read_fraction": 1.5},
            {"read_fraction": -0.1},
            {"key_space": 0},
            {"key_distribution": "pareto"},
            {"operations_per_client": 0},
        ],
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(**kwargs)

    def test_with_overrides_returns_new_object(self):
        config = WorkloadConfig()
        changed = config.with_overrides(batch_size=500)
        assert changed.batch_size == 500
        assert config.batch_size == 100


class TestSystemConfig:
    def test_paper_default_placement(self):
        config = SystemConfig.paper_default()
        assert config.placement.client_region is Region.CALIFORNIA
        assert config.placement.edge_region is Region.CALIFORNIA
        assert config.placement.cloud_region is Region.VIRGINIA

    def test_with_overrides_replaces_nested_config(self):
        config = SystemConfig.paper_default()
        changed = config.with_overrides(
            placement=PlacementConfig(cloud_region=Region.MUMBAI)
        )
        assert changed.placement.cloud_region is Region.MUMBAI
        assert config.placement.cloud_region is Region.VIRGINIA

    def test_rejects_zero_edge_nodes(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(num_edge_nodes=0)


class TestRegions:
    def test_short_codes_match_paper(self):
        assert Region.CALIFORNIA.short_code == "C"
        assert Region.OREGON.short_code == "O"
        assert Region.VIRGINIA.short_code == "V"
        assert Region.IRELAND.short_code == "I"
        assert Region.MUMBAI.short_code == "M"

    def test_from_short_code_roundtrip(self):
        for region in Region:
            assert Region.from_short_code(region.short_code) is region

    def test_from_short_code_unknown(self):
        with pytest.raises(ValueError):
            Region.from_short_code("X")

    def test_validate_regions_rejects_duplicates(self):
        with pytest.raises(ConfigurationError):
            validate_regions([Region.CALIFORNIA, Region.CALIFORNIA])

    def test_validate_regions_accepts_distinct(self):
        validate_regions([Region.CALIFORNIA, Region.MUMBAI])
