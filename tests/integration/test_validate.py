"""Tests for the whole-machine invariant validator."""

import pytest

from repro.common.errors import ProtocolError
from repro.sim.validate import validate_machine


class TestCleanMachines:
    @pytest.mark.parametrize("letter", ("B", "P", "C", "W"))
    def test_post_run_machines_validate(self, micro_machine, letter):
        for name in ("mwobject", "bitcoin", "bst", "labyrinth"):
            machine = micro_machine(name, letter, cores=4, seed=4,
                                    ops_per_thread=5)
            machine.run()
            assert validate_machine(machine)

    def test_fresh_machine_validates(self, micro_machine):
        machine = micro_machine("mwobject", "C", ops_per_thread=1)
        assert validate_machine(machine)


class TestViolationsDetected:
    @pytest.fixture
    def machine(self, micro_machine):
        return micro_machine("mwobject", "C", ops_per_thread=1)

    def test_unpinned_lock_detected(self, machine):
        machine.memsys.acquire_line_lock(0, 100)
        machine.memsys.l1[0].unpin(100)  # corrupt: lock without pin
        with pytest.raises(ProtocolError):
            validate_machine(machine)

    def test_pin_without_lock_detected(self, machine):
        machine.memsys.access(0, 100, is_write=True)
        machine.memsys.l1[0].pin(100)  # corrupt: pin without lock
        with pytest.raises(ProtocolError):
            validate_machine(machine)

    def test_lock_without_ownership_detected(self, machine):
        machine.memsys.acquire_line_lock(0, 100)
        machine.memsys.directory.drop(0, 100)  # corrupt the directory
        with pytest.raises(ProtocolError):
            validate_machine(machine)

    def test_writer_and_reader_coexistence_detected(self, machine):
        machine.fallback.try_acquire_write(0)
        machine.fallback._readers.add(1)  # corrupt: reader sneaks in
        with pytest.raises(ProtocolError):
            validate_machine(machine)

    def test_l1_line_outside_l2_detected(self, machine):
        machine.memsys.access(1, 100, is_write=False)
        machine.memsys.l2[1].invalidate(100)  # corrupt: break inclusion
        with pytest.raises(ProtocolError, match="core 1 L1 line 100"):
            validate_machine(machine)

    def test_clean_lock_state_passes(self, machine):
        machine.memsys.acquire_line_lock(0, 100)
        assert validate_machine(machine)
        machine.memsys.release_all_locks(0)
        assert validate_machine(machine)
