"""Unit tests for the AR body patterns (via the characterization probe)."""

from repro.analysis.characterize import probe_body
from repro.memory.shared import Allocator, SharedMemory
from repro.workloads.patterns import (
    counter_increment,
    direct_multi_rmw,
    direct_swap,
    dynamic_scatter,
    indirect_rmw,
    indirect_transfer,
    list_traverse_count,
)


def fresh_memory():
    return SharedMemory(), Allocator()


class TestDirectPatterns:
    def test_counter_increment_effect(self):
        memory, alloc = fresh_memory()
        addr = alloc.alloc_lines(1)
        memory.poke(addr, 10)
        result = probe_body(counter_increment(addr, delta=3), memory, commit=True)
        assert memory.peek(addr) == 13
        assert not result.indirection_seen

    def test_direct_swap_effect_and_footprint(self):
        memory, alloc = fresh_memory()
        a = alloc.alloc_lines(1)
        b = alloc.alloc_lines(1)
        memory.poke(a, 1)
        memory.poke(b, 2)
        result = probe_body(direct_swap(a, b), memory, commit=True)
        assert memory.peek(a) == 2 and memory.peek(b) == 1
        assert result.footprint_size == 2
        assert not result.indirection_seen

    def test_direct_multi_rmw(self):
        memory, alloc = fresh_memory()
        addrs = [alloc.alloc_lines(1) for _ in range(3)]
        probe_body(direct_multi_rmw(addrs, delta=2), memory, commit=True)
        assert all(memory.peek(addr) == 2 for addr in addrs)


class TestIndirectPatterns:
    def test_indirect_transfer_conserves_and_taints(self):
        memory, alloc = fresh_memory()
        table = alloc.alloc(2, align_line=True)
        wallet_a = alloc.alloc_lines(1)
        wallet_b = alloc.alloc_lines(1)
        memory.poke(table, wallet_a)
        memory.poke(table + 1, wallet_b)
        memory.poke(wallet_a, 100)
        memory.poke(wallet_b, 100)
        result = probe_body(
            indirect_transfer(table, table + 1, 30), memory, commit=True
        )
        assert memory.peek(wallet_a) == 70
        assert memory.peek(wallet_b) == 130
        assert result.indirection_seen  # Listing 2 classification

    def test_indirect_rmw_taints(self):
        memory, alloc = fresh_memory()
        index_addr = alloc.alloc_lines(1)
        base = alloc.alloc_lines(4)
        memory.poke(index_addr, 2)
        result = probe_body(indirect_rmw(index_addr, base), memory, commit=True)
        assert result.indirection_seen
        assert memory.peek(base + 2 * 8) == 1


class TestTraversalPatterns:
    def _build_list(self, memory, alloc, values):
        previous = 0
        for value in reversed(values):
            node = alloc.alloc_lines(1)
            memory.poke(node + 0, value)
            memory.poke(node + 1, previous)
            previous = node
        head = alloc.alloc_lines(1)
        memory.poke(head, previous)
        return head

    def test_traverse_counts_matches(self):
        memory, alloc = fresh_memory()
        head = self._build_list(memory, alloc, [1, 2, 2, 3])
        count_addr = alloc.alloc_lines(1)
        probe_body(
            list_traverse_count(head, 2, count_addr=count_addr),
            memory,
            commit=True,
        )
        assert memory.peek(count_addr) == 2

    def test_traverse_is_tainted(self):
        memory, alloc = fresh_memory()
        head = self._build_list(memory, alloc, [1])
        result = probe_body(list_traverse_count(head, 1), memory)
        assert result.indirection_seen

    def test_traverse_footprint_tracks_length(self):
        memory, alloc = fresh_memory()
        short_head = self._build_list(memory, alloc, [1])
        long_head = self._build_list(memory, alloc, list(range(6)))
        short = probe_body(list_traverse_count(short_head, 9), memory)
        long = probe_body(list_traverse_count(long_head, 9), memory)
        assert long.footprint_size > short.footprint_size

    def test_traverse_bounded_on_cycle(self):
        memory, alloc = fresh_memory()
        node = alloc.alloc_lines(1)
        memory.poke(node + 0, 1)
        memory.poke(node + 1, node)  # self-loop
        head = alloc.alloc_lines(1)
        memory.poke(head, node)
        result = probe_body(
            list_traverse_count(head, 1, max_steps=10), memory
        )
        assert result.loads <= 2 * 10 + 2


class TestDynamicScatter:
    def test_footprint_moves_with_cursor(self):
        memory, alloc = fresh_memory()
        cursor = alloc.alloc_lines(1)
        pool = alloc.alloc_lines(32)
        body = dynamic_scatter(cursor, pool, 32, count=4)
        first = probe_body(body, memory, commit=True)   # advances cursor
        second = probe_body(body, memory, commit=True)
        assert first.footprint != second.footprint
        assert first.indirection_seen

    def test_touch_count(self):
        memory, alloc = fresh_memory()
        cursor = alloc.alloc_lines(1)
        pool = alloc.alloc_lines(32)
        result = probe_body(dynamic_scatter(cursor, pool, 32, count=5), memory)
        # 5 pool lines + the cursor line.
        assert result.footprint_size == 6
