"""Unit tests for the repro.api facade.

Pins the facade's contract: input resolution (names/factories, design
names, seeds), report conveniences, serialization round-trips, the
tracing hooks, and the removal of the deprecated spellings (paper
letters, boolean and replay-based oracle modes, ``run_seeds``).
"""

import pytest

from repro import api
from repro.api import SimulationReport, simulate
from repro.common.errors import ConfigurationError
from repro.obs.trace import EventTrace
from repro.sim import runner
from repro.sim.config import SimConfig
from repro.workloads import make_workload

CORES = 4
OPS = 4


@pytest.fixture
def config():
    return SimConfig.for_design("baseline", num_cores=CORES)


def factory():
    return make_workload("arrayswap", ops_per_thread=OPS)


class TestInputResolution:
    def test_config_letter(self):
        report = simulate("arrayswap", "baseline", seeds=1, ops_per_thread=OPS)
        assert report.config.config_letter == "B"

    def test_config_none_defaults(self):
        report = simulate(factory, seeds=1)
        assert isinstance(report.config, SimConfig)

    def test_bad_letter_rejected(self):
        with pytest.raises(ConfigurationError, match="registered design"):
            simulate("arrayswap", "Z", seeds=1)

    def test_bad_config_type_rejected(self):
        with pytest.raises(TypeError, match="config must be"):
            simulate("arrayswap", 42, seeds=1)

    def test_bad_workload_type_rejected(self):
        with pytest.raises(TypeError, match="workload must be"):
            simulate(123, "baseline")

    def test_seeds_int_or_iterable(self, config):
        single = simulate(factory, config, seeds=7)
        assert single.seeds == (7,)
        multi = simulate(factory, config, seeds=(1, 2))
        assert multi.seeds == (1, 2)

    def test_empty_seeds_rejected(self, config):
        with pytest.raises(ValueError, match="at least one seed"):
            simulate(factory, config, seeds=())

    def test_ops_per_thread_rejected_for_factories(self, config):
        with pytest.raises(ValueError, match="named workloads"):
            simulate(factory, config, seeds=1, ops_per_thread=8)

    def test_oracle_mode_applies(self):
        report = simulate("arrayswap", "baseline", seeds=1, ops_per_thread=OPS,
                          oracle="online")
        assert report.config.oracle == "online"

    def test_oracle_none_keeps_config_mode(self):
        config = SimConfig.for_design("baseline", oracle="online")
        report = simulate("arrayswap", config, seeds=1, ops_per_thread=OPS)
        assert report.config.oracle == "online"

    def test_oracle_kwarg_overrides_config_mode(self):
        config = SimConfig.for_design("baseline", oracle="online")
        report = simulate("arrayswap", config, seeds=1, ops_per_thread=OPS,
                          oracle="off")
        assert report.config.oracle == "off"

    @pytest.mark.parametrize("oracle", [True, False, "shadow", "cross-check"])
    def test_removed_oracle_spellings_rejected(self, oracle):
        with pytest.raises(ConfigurationError, match="oracle"):
            simulate("arrayswap", "baseline", seeds=1, ops_per_thread=OPS,
                     oracle=oracle)

    @pytest.mark.parametrize("letter", ["B", "P", "C", "W"])
    def test_config_letters_rejected(self, letter):
        with pytest.raises(ConfigurationError, match="registered design"):
            simulate("arrayswap", letter, seeds=1, ops_per_thread=OPS)

    def test_named_and_factory_agree(self, config):
        named = simulate("arrayswap", config, seeds=1, ops_per_thread=OPS)
        inline = simulate(factory, config, seeds=1)
        assert named.run.to_dict() == inline.run.to_dict()


class TestSimulationReport:
    def test_single_seed_conveniences(self, config):
        report = simulate(factory, config, seeds=1)
        assert report.run is report.runs[0]
        assert report.workload_name == "arrayswap"
        assert report.cycles == report.run.cycles
        assert report.aborts_per_commit == report.run.aborts_per_commit
        assert report.stats is report.run.stats
        assert report.trace is None
        assert report.traces == {}

    def test_multi_seed_uses_aggregate(self, config):
        report = simulate(factory, config, seeds=(1, 2, 3), trim=0)
        assert report.cycles == report.aggregate().cycles
        assert report.aggregate().to_dict() == report.aggregate().to_dict()

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            SimulationReport([])

    def test_dict_roundtrip_with_trace(self, config):
        report = simulate(factory, config, seeds=(1, 2), trace=True, trim=0)
        rebuilt = SimulationReport.from_dict(report.to_dict())
        assert rebuilt.to_dict() == report.to_dict()
        assert rebuilt.trace.to_dicts() == report.trace.to_dicts()

    def test_json_roundtrip(self, config):
        report = simulate(factory, config, seeds=1)
        assert SimulationReport.from_json(report.to_json()).to_dict() \
            == report.to_dict()

    def test_trace_required_for_exports(self, config, tmp_path):
        report = simulate(factory, config, seeds=1)
        with pytest.raises(ValueError, match="no trace"):
            report.forensic_report()
        with pytest.raises(ValueError, match="no trace"):
            report.write_chrome_trace(tmp_path / "t.json")

    def test_repr(self, config):
        assert "arrayswap" in repr(simulate(factory, config, seeds=1))


class TestTracing:
    def test_trace_true_attaches_per_run(self, config):
        report = simulate(factory, config, seeds=(1, 2), trace=True, trim=0)
        assert set(report.traces) == {1, 2}
        for trace in report.traces.values():
            assert isinstance(trace, EventTrace)
            assert len(trace) > 0

    def test_results_identical_with_and_without_trace(self, config):
        plain = simulate(factory, config, seeds=1)
        traced = simulate(factory, config, seeds=1, trace=True)
        assert plain.run.stats.to_dict() == traced.run.stats.to_dict()
        assert plain.run.cycles == traced.run.cycles

    def test_custom_sink_single_seed_only(self, config):
        sink = EventTrace()
        report = simulate(factory, config, seeds=1, trace=sink)
        assert len(sink) > 0
        with pytest.raises(ValueError, match="single seed"):
            simulate(factory, config, seeds=(1, 2), trace=sink)

    def test_chrome_and_forensic_exports(self, config, tmp_path):
        report = simulate(factory, config, seeds=1, trace=True)
        payload = report.write_chrome_trace(tmp_path / "t.json")
        assert (tmp_path / "t.json").exists()
        assert any(e.get("ph") == "X" for e in payload["traceEvents"])
        text = report.forensic_report()
        assert "AR " in text


class TestEnginePath:
    def test_engine_matches_inline(self, config, tmp_path):
        from repro.sim.engine import ExperimentEngine

        engine = ExperimentEngine(jobs=1, cache_dir=str(tmp_path / "cache"))
        inline = simulate("arrayswap", config, seeds=(1, 2), trim=0,
                          ops_per_thread=OPS, trace=True)
        fanned = simulate("arrayswap", config, seeds=(1, 2), trim=0,
                          ops_per_thread=OPS, trace=True, engine=engine)
        assert fanned.aggregate().to_dict() == inline.aggregate().to_dict()
        assert fanned.trace.to_dicts() == inline.trace.to_dicts()

    def test_engine_requires_named_workload(self, config):
        from repro.sim.engine import ExperimentEngine

        with pytest.raises(ValueError, match="by name"):
            simulate(factory, config, seeds=1,
                     engine=ExperimentEngine(jobs=1, cache_dir=None))

    def test_engine_rejects_custom_sink_and_energy_model(self, config):
        from repro.energy.model import EnergyModel
        from repro.sim.engine import ExperimentEngine

        engine = ExperimentEngine(jobs=1, cache_dir=None)
        with pytest.raises(ValueError, match="custom sink"):
            simulate("arrayswap", config, seeds=1, trace=EventTrace(),
                     engine=engine)
        with pytest.raises(ValueError, match="inline-only"):
            simulate("arrayswap", config, seeds=1, engine=engine,
                     energy_model=EnergyModel())


class TestRemovedEntryPoints:
    def test_run_seeds_wrapper_gone(self):
        assert not hasattr(api, "run_seeds")
        assert "run_seeds" not in api.__all__

    def test_runner_trio_gone(self):
        for stale in ("run_workload", "run_seeds"):
            assert not hasattr(runner, stale)


class TestJournalParameter:
    def test_journal_without_engine_raises(self, tmp_path):
        config = SimConfig.for_design("baseline", num_cores=2)
        with pytest.raises(ValueError, match="engine-only"):
            simulate("mwobject", config, seeds=1, ops_per_thread=3,
                     journal=str(tmp_path / "job"))

    def test_journal_with_engine_records_and_replays(self, tmp_path):
        from repro.sim.engine import ExperimentEngine
        from repro.sim.journal import SweepJournal

        config = SimConfig.for_design("baseline", num_cores=2)
        engine = ExperimentEngine(jobs=1, cache_dir=None)
        job = str(tmp_path / "job")
        first = simulate("mwobject", config, seeds=(1, 2), trim=0,
                         ops_per_thread=3, engine=engine, journal=job)
        assert SweepJournal(job).exists()
        again = simulate("mwobject", config, seeds=(1, 2), trim=0,
                         ops_per_thread=3, engine=engine, journal=job)
        assert again.to_dict() == first.to_dict()
