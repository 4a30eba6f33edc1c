"""Simulated shared memory and a bump allocator.

`SharedMemory` is the architectural state of the machine: a sparse map
from word address to 64-bit integer value. All workload data structures
(arrays, linked lists, trees, hash tables) live here, so atomic-region
bodies perform *real* loads and stores and their footprints genuinely
mutate as the structures mutate.
"""

from repro.common.constants import WORDS_PER_LINE


class SharedMemory:
    """Word-addressed shared memory with zero-initialized contents."""

    def __init__(self):
        self._words = {}
        self.load_count = 0
        self.store_count = 0
        # Optional (addr, value) callback observing every poke. The
        # online monitor mirrors workload-level initialization writes
        # (e.g. node-pool refills issued outside any AR) into its value
        # map through this; None outside monitored runs.
        self.poke_mirror = None

    def load(self, word_addr):
        """Architectural load of one word."""
        self.load_count += 1
        return self._words.get(word_addr, 0)

    def store(self, word_addr, value):
        """Architectural store of one word."""
        self.store_count += 1
        self._words[word_addr] = value

    def peek(self, word_addr):
        """Read without counting as an access (for tests and debugging)."""
        return self._words.get(word_addr, 0)

    def poke(self, word_addr, value):
        """Write without counting as an access (workload initialization)."""
        self._words[word_addr] = value
        if self.poke_mirror is not None:
            self.poke_mirror(word_addr, value)

    def snapshot(self):
        """Copy of the current contents (for invariant checks in tests)."""
        return dict(self._words)


class Allocator:
    """Bump allocator handing out word-addressed regions of memory.

    Workloads use it to lay out their data structures. ``align_line=True``
    starts the allocation at a cacheline boundary, which several of the
    paper's benchmarks rely on (e.g. mwobject puts four counters in one
    cacheline; arrayswap spreads elements over distinct lines).
    """

    def __init__(self, base=WORDS_PER_LINE):
        if base <= 0:
            raise ValueError("allocator base must be positive (0 is reserved)")
        self._next = base

    def alloc(self, num_words, align_line=False):
        """Allocate ``num_words`` words, returning the base word address."""
        if num_words <= 0:
            raise ValueError("allocation size must be positive")
        if align_line and self._next % WORDS_PER_LINE != 0:
            self._next += WORDS_PER_LINE - (self._next % WORDS_PER_LINE)
        addr = self._next
        self._next += num_words
        return addr

    def alloc_lines(self, num_lines):
        """Allocate whole cachelines, returning the base word address."""
        return self.alloc(num_lines * WORDS_PER_LINE, align_line=True)

    @property
    def high_water(self):
        """First unallocated word address."""
        return self._next
