"""Unit tests for the engine chaos harness (repro.sim.enginefaults)."""

import os

import pytest

from repro.sim.enginefaults import (
    EngineFaultPlan,
    FaultyIO,
    _roll,
    should_kill,
)


class TestRoll:
    def test_deterministic(self):
        assert _roll(1, "kill", "cell-a", 0) == _roll(1, "kill", "cell-a", 0)

    def test_in_unit_interval(self):
        for occurrence in range(20):
            draw = _roll(3, "corrupt", "x.json", occurrence)
            assert 0.0 <= draw < 1.0

    @pytest.mark.parametrize(
        "a,b",
        [
            ((1, "kill", "c", 0), (2, "kill", "c", 0)),
            ((1, "kill", "c", 0), (1, "corrupt", "c", 0)),
            ((1, "kill", "c", 0), (1, "kill", "d", 0)),
            ((1, "kill", "c", 0), (1, "kill", "c", 1)),
        ],
    )
    def test_every_component_matters(self, a, b):
        assert _roll(*a) != _roll(*b)


class TestEngineFaultPlan:
    def test_defaults_inject_nothing(self):
        plan = EngineFaultPlan()
        assert plan.worker_kill_rate == 0.0
        assert plan.corrupt_rate == 0.0

    @pytest.mark.parametrize("field", [
        "worker_kill_rate", "corrupt_rate", "enospc_rate",
    ])
    @pytest.mark.parametrize("rate", [-0.1, 1.5])
    def test_rates_validated(self, field, rate):
        with pytest.raises(ValueError):
            EngineFaultPlan(**{field: rate})

    def test_hashable_and_picklable(self):
        import pickle

        plan = EngineFaultPlan(seed=3, corrupt_rate=0.5)
        assert hash(plan) == hash(EngineFaultPlan(seed=3, corrupt_rate=0.5))
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_roll_uses_plan_seed(self):
        assert (EngineFaultPlan(seed=1).roll("kill", "c")
                != EngineFaultPlan(seed=2).roll("kill", "c"))


class TestFaultyIO:
    def test_rate_zero_is_clean_passthrough(self, tmp_path):
        io = FaultyIO(EngineFaultPlan(seed=1))
        target = str(tmp_path / "entry.json")
        io.write_atomic(target, b'{"ok": 1}')
        assert open(target, "rb").read() == b'{"ok": 1}'
        assert io.injected == {"corrupt": 0, "enospc": 0}

    def test_corrupt_rate_one_garbles_every_write(self, tmp_path):
        io = FaultyIO(EngineFaultPlan(seed=1, corrupt_rate=1.0))
        target = str(tmp_path / "entry.json")
        io.write_atomic(target, b'{"ok": 1}')
        assert open(target, "rb").read().startswith(b"\x00CHAOS")
        assert io.injected["corrupt"] == 1

    def test_enospc_rate_one_raises(self, tmp_path):
        import errno

        io = FaultyIO(EngineFaultPlan(seed=1, enospc_rate=1.0))
        with pytest.raises(OSError) as excinfo:
            io.write_atomic(str(tmp_path / "entry.json"), b"data")
        assert excinfo.value.errno == errno.ENOSPC
        assert io.injected["enospc"] == 1

    def test_retries_get_fresh_draws(self, tmp_path):
        # With a sub-1 rate, repeating the same operation must not repeat
        # the same decision forever — that is what guarantees chaos runs
        # converge. Find a seed where the first write is corrupted, then
        # check a later retry of the same path comes through clean.
        target = str(tmp_path / "entry.json")
        for seed in range(100):
            io = FaultyIO(EngineFaultPlan(seed=seed, corrupt_rate=0.5))
            io.write_atomic(target, b'{"ok": 1}')
            if io.injected["corrupt"] == 0:
                continue
            for _ in range(40):
                io.write_atomic(target, b'{"ok": 1}')
                if open(target, "rb").read() == b'{"ok": 1}':
                    return
            pytest.fail("40 retries never drew a clean write at rate 0.5")
        pytest.fail("no seed in 0..99 corrupted the first write at rate 0.5")

    def test_two_instances_same_plan_inject_identically(self, tmp_path):
        plan = EngineFaultPlan(seed=9, corrupt_rate=0.5, enospc_rate=0.3)
        outputs = []
        for run in ("a", "b"):
            root = tmp_path / run
            root.mkdir()
            io = FaultyIO(plan)
            written = []
            for i in range(10):
                try:
                    io.write_atomic(str(root / "e.json"), b"payload-%d" % i)
                except OSError:
                    written.append(None)
                    continue
                written.append(open(str(root / "e.json"), "rb").read())
            outputs.append((written, dict(io.injected)))
        assert outputs[0] == outputs[1]


class TestShouldKill:
    def test_rate_zero_never_kills(self, tmp_path):
        marker_dir = str(tmp_path / "kills")
        assert not should_kill("cell", rate=0.0, seed=1,
                               marker_dir=marker_dir)
        assert not os.path.exists(marker_dir)

    def test_rate_one_kills_exactly_once(self, tmp_path):
        marker_dir = str(tmp_path / "kills")
        assert should_kill("cell", rate=1.0, seed=1, marker_dir=marker_dir)
        # Marker claimed: every later call (any process) declines.
        for _ in range(3):
            assert not should_kill("cell", rate=1.0, seed=1,
                                   marker_dir=marker_dir)
        assert os.path.exists(os.path.join(marker_dir, "cell"))

    def test_cells_claim_independent_markers(self, tmp_path):
        marker_dir = str(tmp_path / "kills")
        assert should_kill("cell-a", rate=1.0, seed=1, marker_dir=marker_dir)
        assert should_kill("cell-b", rate=1.0, seed=1, marker_dir=marker_dir)

    def test_selection_is_seeded(self, tmp_path):
        marker_dir = str(tmp_path / "kills")
        decisions = {
            seed: should_kill("cell", rate=0.5, seed=seed,
                              marker_dir=os.path.join(marker_dir, str(seed)))
            for seed in range(30)
        }
        assert True in decisions.values()
        assert False in decisions.values()
