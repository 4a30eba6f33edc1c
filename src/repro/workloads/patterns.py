"""Reusable atomic-region body patterns.

Bodies are generator functions over :mod:`repro.sim.program` ops. The
patterns here cover the three mutability archetypes of paper §3:

- *direct* patterns (Listing 1, arrayswap): addresses known before the
  AR → immutable footprint;
- *indirect* patterns (Listing 2, bitcoin): addresses loaded from
  tables inside the AR → likely immutable when the tables are stable;
- *traversal* patterns (Listing 3, sorted-list): pointer chasing with
  data-dependent branches → mutable footprint.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.sim.program import Branch, Compute, Load, Store


def counter_increment(addr, delta=1):
    """Immutable: read-modify-write one fixed word."""

    def body():
        value = yield Load(addr)
        yield Store(addr, value + delta)

    return body


def direct_swap(addr_a, addr_b):
    """Immutable: Listing 1 — swap two pre-computed locations."""

    def body():
        value_a = yield Load(addr_a)
        value_b = yield Load(addr_b)
        yield Store(addr_a, value_b)
        yield Store(addr_b, value_a)

    return body


def direct_multi_rmw(addrs, delta=1, compute_between=0):
    """Immutable: increment several pre-computed locations."""

    def body():
        for addr in addrs:
            value = yield Load(addr)
            if compute_between:
                yield Compute(compute_between)
            yield Store(addr, value + delta)

    return body


def indirect_transfer(ptr_from_addr, ptr_to_addr, amount, field_offset=0):
    """Likely immutable: Listing 2 — transfer through pointer table.

    Loads two pointers from stable table slots and moves ``amount``
    between the records they point to. The record addresses are tainted
    (loaded inside the AR), so discovery sees an indirection; the
    footprint only mutates if some concurrent AR rewrites the table.
    """

    def body():
        ptr_from = yield Load(ptr_from_addr)
        ptr_to = yield Load(ptr_to_addr)
        balance_from = yield Load(ptr_from + field_offset)
        balance_to = yield Load(ptr_to + field_offset)
        yield Store(ptr_from + field_offset, balance_from - amount)
        yield Store(ptr_to + field_offset, balance_to + amount)

    return body


def indirect_rmw(index_addr, base, stride=WORDS_PER_LINE, delta=1):
    """Likely immutable: update a slot selected by an in-memory index."""

    def body():
        index = yield Load(index_addr)
        slot = base + index * stride
        value = yield Load(slot)
        yield Store(slot, value + delta)

    return body


def list_traverse_count(head_addr, match_value, max_steps=64,
                        next_offset=1, data_offset=0, count_addr=None):
    """Mutable: Listing 3 — walk a null-terminated list counting matches."""

    def body():
        matches = 0
        current = yield Load(head_addr)
        yield Branch(current)
        steps = 0
        while current != 0 and steps < max_steps:
            data = yield Load(current + data_offset)
            yield Branch(data)
            if data == match_value:
                matches += 1
            current = yield Load(current + next_offset)
            yield Branch(current)
            steps += 1
        if count_addr is not None:
            total = yield Load(count_addr)
            yield Store(count_addr, total + matches)

    return body


def dynamic_scatter(cursor_addr, base, pool_lines, count,
                    stride=WORDS_PER_LINE, step=7):
    """Mutable: touch ``count`` lines selected by an in-memory cursor.

    The cursor advances on every commit, so a retried execution walks a
    *different* window of the pool — a genuinely mutating footprint, the
    signature of labyrinth/yada-style regions.
    """

    def body():
        cursor = yield Load(cursor_addr)
        yield Branch(cursor)
        position = int(cursor)
        for index in range(count):
            slot = base + ((position + index * step) % pool_lines) * stride
            value = yield Load(slot)
            yield Store(slot, value + 1)
        yield Store(cursor_addr, cursor + count)

    return body
