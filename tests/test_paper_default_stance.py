"""Regression pin for the permanent default stance (settled in PR 7).

**Paper-exact by default, fast by config.** Every throughput or
robustness feature added since the seed defaults OFF so the committed
figure-4/5 metrics stay byte-identical to the paper-calibrated protocol.
This test is the tripwire: flipping any of these defaults is a figure
recalibration (re-measure, re-commit, re-document in ROADMAP), not a
tweak — whoever changes them must consciously edit this file too.
"""

from repro.common.config import ShardingConfig, StorageConfig, SystemConfig


class TestPaperDefaultStance:
    def test_batch_certification_defaults_off(self):
        config = SystemConfig.paper_default()
        assert config.logging.certify_batch_size == 1

    def test_gossip_batching_defaults_off(self):
        config = SystemConfig.paper_default()
        assert config.security.gossip_batch is False

    def test_certify_pipeline_defaults_off(self):
        config = SystemConfig.paper_default()
        assert config.logging.certify_pipeline_depth == 1

    def test_storage_defaults_in_memory(self):
        config = SystemConfig.paper_default()
        assert config.storage.backend == "memory"
        assert not config.storage.is_durable
        # The zero-arg constructor (what tests and examples reach for)
        # matches paper_default() — there is exactly one default.
        assert SystemConfig() == config

    def test_storage_config_defaults(self):
        # The knobs a disk deployment inherits unless it says otherwise.
        storage = StorageConfig()
        assert storage.fsync == "on_seal"
        assert storage.truncate_on_snapshot is True

    def test_observability_defaults_off(self):
        # Observability (PR 8) is opt-in: a default deployment carries no
        # tracer, no metrics registries, and never imports repro.obs —
        # the hot-path cost of the instrumentation is one attribute check.
        config = SystemConfig.paper_default()
        assert config.observability.enabled is False
        assert SystemConfig() == config

    def test_replication_defaults_off(self):
        # Replica groups (PR 9) are opt-in: the default fleet has one
        # certifying writer per shard and no read replicas, the signed
        # shard map carries no replica sets (byte-identical to the
        # unreplicated map), and no lease/shipping/failover machinery
        # ever starts.
        sharding = ShardingConfig()
        assert sharding.replication_factor == 1
        assert sharding.replica_lease_s == 2.0
        assert sharding.failover_timeout_s == 3.0

    def test_freshness_window_defaults_off(self):
        # The freshness window (§V-D) is opt-in: the default client accepts
        # a root of any age, and the default edge never arms its
        # root-refresh timer, so no refresh crosses the WAN.
        config = SystemConfig.paper_default()
        assert config.security.freshness_window_s is None
        assert SystemConfig() == config
