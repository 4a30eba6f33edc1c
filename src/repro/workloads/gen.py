"""Seeded parametric workload generator — the ``gen:`` namespace.

A :class:`GenSpec` is a frozen description of a synthetic benchmark
sweeping the axes Table 1 fixes per hand-written kernel: footprint size
(lines touched per atomic region), mutability class (§3 taxonomy),
contention/sharing degree, read/write mix, and AR nesting depth. It
compiles into :class:`GeneratedWorkload`, a real
:class:`~repro.workloads.base.Workload` whose per-seed behaviour is
deterministic and whose stores are all commutative increments — so the
final shared-memory state is schedule-invariant and generated workloads
pass the state-equality oracle on every explored schedule.

A generated kernel is named by its spec string:
``make_workload("gen:footprint=8,mutability=mutable")``; omitted keys
take their defaults, and the empty string is the default spec. A spec
has two identities, and neither reads a file or any process state:

- the canonical string (:meth:`GenSpec.canonical`: non-default fields
  in declaration order) is the workload's name and what the experiment
  engine ships to worker processes;
- the fingerprint (:meth:`GenSpec.fingerprint`: a SHA-256 over every
  field plus the format version) is the token the engine folds into
  cache keys, stable across processes and machines.
"""

import dataclasses

from repro.common.constants import WORDS_PER_LINE
from repro.common.errors import ConfigurationError, UnknownWorkloadError
from repro.common.serialize import canonical_digest
from repro.sim.program import Branch, Load, Store
from repro.workloads.base import Mutability, RegionSpec, Workload

# Both go into every fingerprint; changing either re-keys every cached
# gen: result.
GENSPEC_FORMAT = "repro-genspec"
GENSPEC_VERSION = 1

#: Legal values of :attr:`GenSpec.mutability`. ``"mixed"`` cycles the
#: three §3 classes across the spec's regions.
MUTABILITY_CLASSES = ("immutable", "likely_immutable", "mutable", "mixed")

_MIXED_CYCLE = (
    Mutability.IMMUTABLE, Mutability.LIKELY_IMMUTABLE, Mutability.MUTABLE,
)

#: Stride of the mutable regions' moving window (coprime with the pool
#: sizes in practice, so successive windows genuinely move).
_WINDOW_STEP = 3


@dataclasses.dataclass(frozen=True)
class GenSpec:
    """Frozen description of one generated benchmark.

    ``regions``          static ARs the workload exposes.
    ``footprint``        cachelines each sub-body touches.
    ``mutability``       §3 class of every region, or ``"mixed"``.
    ``contention``       probability a sub-body targets the shared hot
                         pool instead of the invoking thread's private
                         pool.
    ``read_fraction``    fraction of touched lines that are read-only.
    ``nesting``          flattened sub-bodies per AR invocation.
    ``hot_lines``        size of the shared hot pool (cachelines).
    ``private_lines``    size of each thread-private pool (cachelines).
    """

    regions: int = 2
    footprint: int = 4
    mutability: str = "mixed"
    contention: float = 0.5
    read_fraction: float = 0.25
    nesting: int = 1
    hot_lines: int = 8
    private_lines: int = 16

    def __post_init__(self):
        # Normalize numeric types up front so equal-valued specs have
        # identical canonical strings and fingerprints regardless of
        # whether the caller spelled 1 or 1.0.
        for name in ("regions", "footprint", "nesting", "hot_lines",
                     "private_lines"):
            object.__setattr__(self, name, int(getattr(self, name)))
        for name in ("contention", "read_fraction"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.regions < 1:
            raise ConfigurationError("gen spec needs regions >= 1")
        if self.footprint < 1:
            raise ConfigurationError("gen spec needs footprint >= 1")
        if self.mutability not in MUTABILITY_CLASSES:
            raise ConfigurationError(
                "gen spec mutability must be one of {}, not {!r}".format(
                    "/".join(MUTABILITY_CLASSES), self.mutability
                )
            )
        if not 0.0 <= self.contention <= 1.0:
            raise ConfigurationError("gen spec contention must be in [0, 1]")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ConfigurationError("gen spec read_fraction must be in [0, 1]")
        if self.nesting < 1:
            raise ConfigurationError("gen spec needs nesting >= 1")
        if self.hot_lines < self.footprint:
            raise ConfigurationError(
                "gen spec needs hot_lines >= footprint ({} < {})".format(
                    self.hot_lines, self.footprint
                )
            )
        if self.private_lines < self.footprint:
            raise ConfigurationError(
                "gen spec needs private_lines >= footprint ({} < {})".format(
                    self.private_lines, self.footprint
                )
            )

    # -- identities ----------------------------------------------------------

    def canonical(self):
        """Self-contained spec string: non-default fields, declaration order.

        ``parse_gen_spec(spec.canonical())`` reconstructs an equal spec,
        and equal specs produce identical canonical strings — this is
        the spelling the engine ships across process boundaries.
        """
        parts = []
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value != field.default:
                parts.append("{}={}".format(field.name, value))
        return ",".join(parts)

    def fingerprint(self):
        """Stable SHA-256 content address of this spec (every field)."""
        return canonical_digest(
            {"format": GENSPEC_FORMAT, "version": GENSPEC_VERSION,
             "spec": dataclasses.asdict(self)}
        )


def parse_gen_spec(text):
    """Resolve a ``gen:`` argument, a spec string, to a :class:`GenSpec`.

    ``text`` is comma-separated ``key=value`` entries; omitted keys
    take their defaults and the empty string is the default spec.
    """
    fields = {field.name: field for field in dataclasses.fields(GenSpec)}
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, raw = part.partition("=")
        key = key.strip()
        if not sep or key not in fields:
            raise UnknownWorkloadError(
                "bad gen spec entry {!r}; expected key=value with keys "
                "{}".format(part, "/".join(sorted(fields)))
            )
        try:
            values[key] = type(fields[key].default)(raw.strip())
        except ValueError:
            raise UnknownWorkloadError(
                "bad gen spec value {!r} for key {!r}".format(raw.strip(), key)
            ) from None
    return GenSpec(**values)


def make_generated(arg, **kwargs):
    """``make_workload`` entry point for ``gen:<arg>``."""
    return GeneratedWorkload(parse_gen_spec(arg), **kwargs)


class GeneratedWorkload(Workload):
    """A :class:`GenSpec` compiled to a runnable benchmark.

    Memory layout (per :meth:`setup`): one shared hot pool, one private
    pool per thread, a stable indirection table per pool (slot ``i``
    holds line ``i``'s base word address — the Listing 2 shape), and one
    private cursor word per thread driving the mutable regions' moving
    windows. Every store is a ``+1`` increment (cursors advance by the
    window size), so generated workloads commute: the final memory
    state is identical across schedules and engine fan-out —
    the property the determinism suites pin.
    """

    def __init__(self, spec=None, ops_per_thread=30, think_cycles=(40, 160)):
        super().__init__(ops_per_thread=ops_per_thread,
                         think_cycles=think_cycles)
        self.spec = spec if spec is not None else GenSpec()
        self.name = "gen:" + self.spec.canonical()
        self._regions = [
            RegionSpec(
                "r{:02d}".format(index),
                self._region_mutability(index),
                "generated {} region".format(
                    self._region_mutability(index).value
                ),
            )
            for index in range(self.spec.regions)
        ]

    def _region_mutability(self, index):
        if self.spec.mutability == "mixed":
            return _MIXED_CYCLE[index % len(_MIXED_CYCLE)]
        return Mutability(self.spec.mutability)

    def region_specs(self):
        return list(self._regions)

    def setup(self, memory, allocator, num_threads, rng):
        self.base_setup(num_threads)
        spec = self.spec
        self._hot_base = allocator.alloc_lines(spec.hot_lines)
        self._hot_table = allocator.alloc(spec.hot_lines, align_line=True)
        for line in range(spec.hot_lines):
            memory.poke(
                self._hot_table + line,
                self._hot_base + line * WORDS_PER_LINE,
            )
        self._private_bases = []
        self._private_tables = []
        for thread in range(num_threads):
            base = allocator.alloc_lines(spec.private_lines)
            table = allocator.alloc(spec.private_lines, align_line=True)
            for line in range(spec.private_lines):
                memory.poke(table + line, base + line * WORDS_PER_LINE)
            self._private_bases.append(base)
            self._private_tables.append(table)
        cursor_base = allocator.alloc_lines(num_threads)
        self._cursors = [
            cursor_base + thread * WORDS_PER_LINE
            for thread in range(num_threads)
        ]

    def make_invocation(self, thread_id, rng):
        spec = self.spec
        index = rng.randint(0, spec.regions - 1)
        mutability = self._regions[index].mutability
        subs = [
            self._make_sub_body(thread_id, mutability, rng)
            for _ in range(spec.nesting)
        ]

        def body():
            for sub in subs:
                yield from sub()

        return self.invoke(self._regions[index].name, body)

    def _pool_for(self, thread_id, rng):
        spec = self.spec
        if rng.random() < spec.contention:
            return self._hot_base, self._hot_table, spec.hot_lines
        return (
            self._private_bases[thread_id],
            self._private_tables[thread_id],
            spec.private_lines,
        )

    def _make_sub_body(self, thread_id, mutability, rng):
        spec = self.spec
        base, table, pool_lines = self._pool_for(thread_id, rng)
        reads = [
            rng.random() < spec.read_fraction for _ in range(spec.footprint)
        ]
        if mutability is Mutability.IMMUTABLE:
            # Listing 1 shape: addresses fixed before the AR begins.
            addrs = [
                base + line * WORDS_PER_LINE
                for line in rng.sample(range(pool_lines), spec.footprint)
            ]

            def sub():
                for addr, read_only in zip(addrs, reads):
                    value = yield Load(addr)
                    if not read_only:
                        yield Store(addr, value + 1)

            return sub
        if mutability is Mutability.LIKELY_IMMUTABLE:
            # Listing 2 shape: targets loaded from a stable table, so
            # the record addresses are tainted indirections.
            slots = rng.sample(range(pool_lines), spec.footprint)

            def sub():
                for slot, read_only in zip(slots, reads):
                    target = yield Load(table + slot)
                    value = yield Load(target)
                    if not read_only:
                        yield Store(target, value + 1)

            return sub
        # Listing 3 shape: a cursor-driven window that moves on every
        # commit, behind a tainted branch — a genuinely mutating
        # footprint. The cursor is thread-private, so the window
        # sequence is schedule-independent and the stores still commute.
        cursor = self._cursors[thread_id]
        count = spec.footprint

        def sub():
            position = yield Load(cursor)
            yield Branch(position)
            start = int(position)
            for index in range(count):
                line = (start + index * _WINDOW_STEP) % pool_lines
                addr = base + line * WORDS_PER_LINE
                value = yield Load(addr)
                if not reads[index]:
                    yield Store(addr, value + 1)
            yield Store(cursor, position + count)

        return sub
