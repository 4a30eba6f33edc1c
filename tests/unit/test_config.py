"""Unit tests for SimConfig (Table 2 defaults and design selection)."""

import warnings

import pytest

from repro.common.errors import ConfigurationError
from repro.htm.design import DESIGN_REGISTRY
from repro.sim.config import ORACLE_MODES, SimConfig


class TestTable2Defaults:
    def test_core_count(self):
        assert SimConfig().num_cores == 32

    def test_cache_sizes(self):
        config = SimConfig()
        assert config.l1_size == 48 * 1024 and config.l1_assoc == 12
        assert config.l2_size == 512 * 1024 and config.l2_assoc == 8
        assert config.l3_size == 4 * 1024 * 1024 and config.l3_assoc == 16

    def test_latencies(self):
        config = SimConfig()
        assert (config.l1_latency, config.l2_latency) == (1, 10)
        assert (config.l3_latency, config.mem_latency) == (45, 80)

    def test_speculative_window(self):
        config = SimConfig()
        assert config.rob_entries == 352
        assert config.lq_entries == 128
        assert config.sq_entries == 72

    def test_clear_table_sizes(self):
        config = SimConfig()
        assert config.ert_entries == 16
        assert config.alt_entries == 32
        assert config.crt_entries == 64
        assert config.crt_assoc == 8


class TestDesignSelection:
    @pytest.mark.parametrize(
        "design, letter, powertm, clear",
        [
            ("baseline", "B", False, False),
            ("powertm", "P", True, False),
            ("clear", "C", False, True),
            ("clear+powertm", "W", True, True),
        ],
    )
    def test_design_round_trip(self, design, letter, powertm, clear):
        config = SimConfig.for_design(design)
        assert config.design == design
        assert config.design_class.powertm == powertm
        assert config.design_class.clear == clear
        assert config.config_letter == letter

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(design="nonesuch")
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("nonesuch")

    def test_new_designs_registered(self):
        assert "lrw" in DESIGN_REGISTRY
        assert "bigatomics" in DESIGN_REGISTRY
        assert SimConfig.for_design("lrw").design == "lrw"

    def test_new_design_letter_falls_back_to_name(self):
        assert SimConfig.for_design("lrw").config_letter == "lrw"
        assert SimConfig.for_design("bigatomics").config_letter == "bigatomics"

    def test_design_knob_validation(self):
        for knob in ("lrw_read_lines", "lrw_write_lines",
                     "bigatomics_lines", "bigatomics_commit_cycles"):
            with pytest.raises(ConfigurationError):
                SimConfig(**{knob: 0})


class TestRemovedSpellings:
    """The deprecated spellings are gone, not silently accepted."""

    def test_boolean_design_flags_rejected(self):
        with pytest.raises(TypeError):
            SimConfig(powertm=True, clear=True)

    def test_boolean_oracle_rejected(self):
        for legacy in (True, False):
            with pytest.raises(ConfigurationError, match="oracle"):
                SimConfig(oracle=legacy)

    def test_letter_constructor_gone(self):
        assert not hasattr(SimConfig, "for_letter")
        with pytest.raises(ConfigurationError):
            SimConfig.for_design("C")

    def test_boolean_read_properties_gone(self):
        config = SimConfig.for_design("clear+powertm")
        for name in ("powertm", "clear", "htm_policy"):
            assert not hasattr(config, name)

    def test_replaced_rejects_boolean_flags(self):
        with pytest.raises(TypeError):
            SimConfig().replaced(clear=True)


class TestOracleModes:
    def test_modes_accepted(self):
        for mode in ORACLE_MODES:
            config = SimConfig(oracle=mode)
            assert config.oracle == mode

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="oracle"):
            SimConfig(oracle="sometimes")

    def test_mode_properties(self):
        from repro.sim.machine import Machine
        from repro.workloads import make_workload

        assert ORACLE_MODES == ("off", "online")
        assert SimConfig(oracle="online").online_monitor is True
        assert SimConfig(oracle="off").online_monitor is False
        assert SimConfig().oracle == "online"
        workload = make_workload("mwobject", ops_per_thread=1)
        assert Machine(SimConfig(num_cores=2, oracle="off"),
                       workload).monitor is None

    @pytest.mark.parametrize("removed", ["shadow", "cross-check"])
    def test_removed_modes_rejected(self, removed):
        with pytest.raises(ConfigurationError, match="oracle"):
            SimConfig(oracle=removed)

    def test_reading_mode_properties_does_not_warn(self):
        config = SimConfig(oracle="online")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config.online_monitor


class TestValidation:
    def test_rejects_no_cores(self):
        with pytest.raises(ConfigurationError):
            SimConfig(num_cores=0)

    def test_rejects_zero_retries(self):
        with pytest.raises(ConfigurationError):
            SimConfig(retry_threshold=0)

    def test_rejects_empty_tables(self):
        with pytest.raises(ConfigurationError):
            SimConfig(alt_entries=0)


class TestReplaced:
    def test_override_applied(self):
        config = SimConfig().replaced(retry_threshold=7)
        assert config.retry_threshold == 7

    def test_other_fields_preserved(self):
        config = SimConfig.for_design("clear", num_cores=8).replaced(
            retry_threshold=7
        )
        assert config.num_cores == 8
        assert config.design == "clear"

    def test_replaced_keeps_design(self):
        config = SimConfig.for_design("lrw").replaced(num_cores=2)
        assert config.design == "lrw"

    def test_original_unchanged(self):
        original = SimConfig()
        original.replaced(num_cores=2)
        assert original.num_cores == 32


class TestDictMigration:
    """Payloads must spell the current fields; nothing is migrated."""

    def test_round_trip_serializes_design(self):
        config = SimConfig.for_design("lrw", num_cores=4)
        data = config.to_dict()
        assert data["design"] == "lrw"
        assert "powertm" not in data and "clear" not in data
        assert SimConfig.from_dict(data) == config

    @pytest.mark.parametrize(
        "powertm, clear, design",
        [
            (False, False, "baseline"),
            (True, False, "powertm"),
            (False, True, "clear"),
            (True, True, "clear+powertm"),
        ],
    )
    def test_v2_payloads_rejected(self, powertm, clear, design):
        data = SimConfig.for_design(design, num_cores=4).to_dict()
        del data["design"]
        data["powertm"] = powertm
        data["clear"] = clear
        with pytest.raises(ConfigurationError, match="unknown"):
            SimConfig.from_dict(data)

    def test_v3_payload_rejected(self):
        data = SimConfig.for_design("baseline", num_cores=4).to_dict()
        data["oracle"] = False
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    def test_removed_field_rejected(self):
        data = SimConfig().to_dict()
        data["oracle_validate_interval"] = 4096
        with pytest.raises(ConfigurationError, match="unknown"):
            SimConfig.from_dict(data)

    def test_conflicting_legacy_keys_rejected(self):
        data = SimConfig.for_design("baseline").to_dict()
        data["clear"] = True
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)

    def test_unknown_keys_rejected(self):
        data = SimConfig().to_dict()
        data["mystery"] = 1
        with pytest.raises(ConfigurationError):
            SimConfig.from_dict(data)
