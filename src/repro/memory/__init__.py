"""Memory substrate: addresses, shared memory, caches, directory, locking.

This package models the parts of the gem5/Ruby memory system that CLEAR's
behaviour depends on, at cacheline granularity:

- :mod:`repro.memory.address` — word/cacheline/directory-set mapping.
- :mod:`repro.memory.shared` — the simulated shared memory and allocator.
- :mod:`repro.memory.cache` — set-associative caches with LRU and pinning
  (pinning models cacheline locking residency).
- :mod:`repro.memory.directory` — ownership/sharer tracking (MESI-like)
  used for conflict detection and cache-to-cache transfer latencies.
- :mod:`repro.memory.locking` — the cacheline lock manager with the
  NACK and directory-retry deadlock-avoidance rules of the paper.
- :mod:`repro.memory.system` — ties the above into a `MemorySystem` with
  Table 2 latencies.
"""

from repro.memory.address import line_of_word, word_of_line, directory_set_of_line
from repro.memory.shared import SharedMemory, Allocator
from repro.memory.cache import SetAssocCache
from repro.memory.directory import Directory
from repro.memory.locking import LockManager, LockDenied, NackError
from repro.memory.system import MemorySystem, AccessResult

__all__ = [
    "line_of_word",
    "word_of_line",
    "directory_set_of_line",
    "SharedMemory",
    "Allocator",
    "SetAssocCache",
    "Directory",
    "LockManager",
    "LockDenied",
    "NackError",
    "MemorySystem",
    "AccessResult",
]
