"""Recorded-trace workloads — the ``trace:`` namespace.

:func:`record_trace` runs any workload once and captures the run's
per-thread action stream — think times, atomic-region invocations with
their committed operation sequences, and the runtime initialization
pokes issued between ARs — to a versioned on-disk kernel folder:

``manifest.json``
    format/version, the source workload's name and region table, the
    recording config fingerprint and seed, the allocator high-water
    mark, per-file SHA-256 digests, and the folder's content digest.
``memory.json``
    the post-setup architectural memory snapshot (sorted
    ``[addr, value]`` pairs).
``thread-NN.jsonl``
    one compact JSON record per thread-level action: ``{"t": cycles}``
    for think time, ``{"r": region, "pokes": [[a, v], ...], "ops":
    [...]}`` for an invocation. Ops are ``["L", addr, taint]``,
    ``["S", addr, value, taint]``, ``["C", cycles, ops]``,
    ``["B", taint]``, or ``["A"]``.

One folder per kernel with a manifest naming versioned data files is
the ESL-CGRA corpus convention; the data files are written first and
the manifest (carrying their digests) last, so a torn recording is
detected rather than replayed.

:class:`TraceWorkload` replays a folder through the unchanged executor:
each recorded invocation becomes an AR whose body yields the recorded
ops with their taint reconstructed, so discovery, conflict detection,
retry policy, and the online monitor all operate on the replay exactly
as they would on a live run.

Recording captures the *committed* attempt of every invocation: the
executor creates one body generator per attempt, and instrumentation
replays (Fig. 1 footprint comparisons) always run strictly between
attempts, so the last generator created for an invocation is the one
that committed. The online monitor does not replay, so it may stay
armed while recording.
"""

import functools
import hashlib
import json
import os

from repro.common.errors import ConfigurationError, UnknownWorkloadError
from repro.core.indirection import TaintedValue
from repro.sim.program import (
    AbortOp,
    Branch,
    Compute,
    Invoke,
    Load,
    Store,
    Think,
)
from repro.workloads.base import Mutability, RegionSpec, Workload

TRACE_FORMAT = "repro-trace"
TRACE_VERSION = 1
MANIFEST_FILENAME = "manifest.json"
MEMORY_FILENAME = "memory.json"


class TraceFormatError(ConfigurationError):
    """The folder is not a readable trace of this format/version."""


class TraceIntegrityError(TraceFormatError):
    """A trace data file is torn, truncated, or corrupt.

    Raised when a file's bytes do not match the digest the manifest
    recorded for it, or when a JSONL record fails to parse — the
    manifest is written last, so a mismatch means the folder was
    damaged after a complete recording.
    """


def _encode_op(op):
    kind = type(op)
    if kind is Load:
        return ["L", op.word_addr, 1 if op.addr_tainted else 0]
    if kind is Store:
        return ["S", op.word_addr, op.store_value, 1 if op.addr_tainted else 0]
    if kind is Compute:
        return ["C", op.cycles, op.ops]
    if kind is Branch:
        return ["B", 1 if op.condition_tainted else 0]
    if kind is AbortOp:
        return ["A"]
    raise TraceFormatError(
        "cannot record unsupported AR operation {!r}".format(op)
    )


def _recording_body(gen, ops):
    """Drive ``gen`` transparently, appending each yielded op to ``ops``."""
    send = None
    while True:
        try:
            op = gen.send(send)
        except StopIteration:
            return
        ops.append(_encode_op(op))
        send = yield op


class _RecordingWorkload:
    """Transparent wrapper capturing a workload's action stream.

    Proxies every attribute to the wrapped workload; overrides
    ``setup`` (to snapshot post-setup memory and the allocator
    high-water mark) and ``next_action`` (to log think times, capture
    runtime pokes, and wrap invocation body factories). Per-invocation
    op streams are kept per generator; the last-created generator's
    stream is the committed record (see the module docstring).
    """

    def __init__(self, inner):
        self._inner = inner
        self.records = None
        self._pending = None
        self._memory = None
        self.snapshot = None
        self.high_water = None

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def setup(self, memory, allocator, num_threads, rng):
        self._inner.setup(memory, allocator, num_threads, rng)
        self._memory = memory
        self.snapshot = memory.snapshot()
        self.high_water = allocator.high_water
        self.records = [[] for _ in range(num_threads)]
        self._pending = [None] * num_threads

    def next_action(self, thread_id, rng):
        self._flush(thread_id)
        pokes = []
        memory = self._memory
        previous = memory.poke_mirror

        def mirror(addr, value):
            pokes.append([addr, value])
            if previous is not None:
                previous(addr, value)

        memory.poke_mirror = mirror
        try:
            action = self._inner.next_action(thread_id, rng)
        finally:
            memory.poke_mirror = previous
        if action is None:
            return None
        if isinstance(action, Think):
            self.records[thread_id].append({"t": action.cycles})
            return action
        region = action.region_id
        record = {
            "r": list(region) if isinstance(region, tuple) else region,
            "pokes": pokes,
            "streams": [],
        }
        self._pending[thread_id] = record
        inner_factory = action.body_factory

        def recording_factory():
            ops = []
            record["streams"].append(ops)
            return _recording_body(inner_factory(), ops)

        return Invoke(region, recording_factory)

    def _flush(self, thread_id):
        record = self._pending[thread_id]
        if record is None:
            return
        self._pending[thread_id] = None
        if not record["streams"]:
            raise TraceFormatError(
                "invocation of region {!r} finished without any attempt "
                "stream; cannot record".format(record["r"])
            )
        self.records[thread_id].append({
            "r": record["r"],
            "pokes": record["pokes"],
            "ops": record["streams"][-1],
        })

    def finish(self):
        """Flush every thread's pending invocation; returns the records."""
        for thread_id in range(len(self.records)):
            self._flush(thread_id)
        return self.records


def record_trace(workload, out_dir, *, config=None, seed=1,
                 ops_per_thread=None, io=None):
    """Run ``workload`` once and write its trace folder to ``out_dir``.

    ``workload`` is a registry name (any namespace) or a
    :class:`~repro.workloads.base.Workload` instance; ``config`` is a
    :class:`~repro.sim.config.SimConfig`, a design name, or ``None``
    for defaults; the online monitor may stay armed. Returns the
    manifest dict.
    """
    from repro.api import _resolve_config
    from repro.sim.machine import build_machine

    if io is None:
        from repro.common.diskio import DiskIO

        io = DiskIO()
    if isinstance(workload, str):
        from repro.workloads.registry import make_workload

        kwargs = {}
        if ops_per_thread is not None:
            kwargs["ops_per_thread"] = ops_per_thread
        inner = make_workload(workload, **kwargs)
    else:
        inner = workload
    config = _resolve_config(config)
    recorder = _RecordingWorkload(inner)
    machine = build_machine(config, recorder, seed=seed)
    stats = machine.run()
    records = recorder.finish()

    os.makedirs(out_dir, exist_ok=True)
    words = sorted([addr, value] for addr, value in recorder.snapshot.items())
    memory_bytes = (
        json.dumps(
            {"format": TRACE_FORMAT, "version": TRACE_VERSION, "words": words},
            separators=(",", ":"),
        ).encode("utf-8") + b"\n"
    )
    io.write_atomic(os.path.join(out_dir, MEMORY_FILENAME), memory_bytes)
    file_digests = [hashlib.sha256(memory_bytes).hexdigest()]
    threads = []
    for thread_id, actions in enumerate(records):
        filename = "thread-{:02d}.jsonl".format(thread_id)
        lines = [
            json.dumps(action, separators=(",", ":")) for action in actions
        ]
        data = ("\n".join(lines) + "\n").encode("utf-8") if lines else b""
        io.write_atomic(os.path.join(out_dir, filename), data)
        digest = hashlib.sha256(data).hexdigest()
        file_digests.append(digest)
        threads.append({
            "file": filename,
            "sha256": digest,
            "actions": len(actions),
            "invocations": sum(1 for action in actions if "r" in action),
        })
    content = hashlib.sha256(
        "".join(file_digests).encode("utf-8")
    ).hexdigest()
    manifest = {
        "format": TRACE_FORMAT,
        "version": TRACE_VERSION,
        "workload": inner.name,
        "num_threads": len(records),
        "seed": seed,
        "ops_per_thread": inner.ops_per_thread,
        "think_cycles": list(inner.think_cycles),
        "config_fingerprint": config.fingerprint(),
        "design": config.design,
        "region_specs": [
            {"name": spec.name, "mutability": spec.mutability.value}
            for spec in inner.region_specs()
        ],
        "alloc_high_water": recorder.high_water,
        "total_commits": stats.total_commits,
        "memory": {
            "file": MEMORY_FILENAME,
            "sha256": file_digests[0],
            "words": len(words),
        },
        "threads": threads,
        "content_digest": content,
    }
    io.write_atomic(
        os.path.join(out_dir, MANIFEST_FILENAME),
        json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8"),
    )
    return manifest


def read_manifest(path):
    """Load and format-check a trace folder's manifest."""
    manifest_path = os.path.join(path, MANIFEST_FILENAME)
    try:
        with open(manifest_path) as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise UnknownWorkloadError(
            "no recorded trace at {!r} (missing {})".format(
                path, MANIFEST_FILENAME
            )
        ) from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(
            "trace manifest {!r} is not valid JSON: {}".format(
                manifest_path, exc
            )
        ) from None
    if manifest.get("format") != TRACE_FORMAT:
        raise TraceFormatError(
            "{!r} is not a recorded trace (format {!r})".format(
                path, manifest.get("format")
            )
        )
    if manifest.get("version") != TRACE_VERSION:
        raise TraceFormatError(
            "trace {!r} has version {!r}; this build replays version "
            "{}".format(path, manifest.get("version"), TRACE_VERSION)
        )
    return manifest


@functools.lru_cache(maxsize=None)
def manifest_digest(path):
    """The folder's recorded content digest (the trace's cache token).

    Cached per path: trace folders are immutable once recorded (the
    manifest is the write commit point), and the engine asks for the
    token on every cache-key computation.
    """
    return read_manifest(path)["content_digest"]


def _verified_bytes(path, filename, expected_sha):
    file_path = os.path.join(path, filename)
    try:
        with open(file_path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise TraceIntegrityError(
            "trace file {!r} is missing from {!r}".format(filename, path)
        ) from None
    actual = hashlib.sha256(data).hexdigest()
    if actual != expected_sha:
        raise TraceIntegrityError(
            "trace file {!r} is torn or corrupt: digest {} does not match "
            "the manifest's {}".format(filename, actual, expected_sha)
        )
    return data


class TraceWorkload(Workload):
    """Replay a recorded trace folder as atomic regions.

    ``ops_per_thread`` is accepted (the experiment scripts pass it to
    every workload) but ignored: a recorded trace has a fixed length.
    ``num_threads`` at setup may exceed the recorded thread count
    (extra threads finish immediately) but not undercut it.
    """

    def __init__(self, path, ops_per_thread=None, think_cycles=None):
        self.path = path
        manifest = read_manifest(path)
        self._manifest = manifest
        self._recorded_threads = manifest["num_threads"]
        self._actions = []
        for entry in manifest["threads"]:
            data = _verified_bytes(path, entry["file"], entry["sha256"])
            actions = []
            for line_no, line in enumerate(data.splitlines(), start=1):
                try:
                    actions.append(json.loads(line))
                except json.JSONDecodeError:
                    raise TraceIntegrityError(
                        "trace file {!r} line {} is not valid JSON".format(
                            entry["file"], line_no
                        )
                    ) from None
            if len(actions) != entry["actions"]:
                raise TraceIntegrityError(
                    "trace file {!r} holds {} action(s); the manifest "
                    "recorded {}".format(
                        entry["file"], len(actions), entry["actions"]
                    )
                )
            self._actions.append(actions)
        memory_entry = manifest["memory"]
        data = _verified_bytes(
            path, memory_entry["file"], memory_entry["sha256"]
        )
        try:
            payload = json.loads(data)
        except json.JSONDecodeError:
            raise TraceIntegrityError(
                "trace memory file {!r} is not valid JSON".format(
                    memory_entry["file"]
                )
            ) from None
        self._memory_words = payload["words"]
        self._high_water = manifest["alloc_high_water"]
        # The recorded per-thread action count bounds the replay; the
        # base-class counters are bookkeeping only (next_action is
        # fully overridden).
        super().__init__(
            ops_per_thread=max(
                (entry["invocations"] for entry in manifest["threads"]),
                default=0,
            ),
            think_cycles=tuple(manifest["think_cycles"]),
        )
        self.name = "trace:" + manifest["workload"]
        self._memory = None
        self._cursors = None

    @property
    def manifest(self):
        """The trace folder's manifest dict (read-only use)."""
        return self._manifest

    def region_specs(self):
        return [
            RegionSpec(entry["name"], Mutability(entry["mutability"]))
            for entry in self._manifest["region_specs"]
        ]

    def setup(self, memory, allocator, num_threads, rng):
        self.base_setup(num_threads)
        if num_threads < self._recorded_threads:
            raise ConfigurationError(
                "trace {!r} was recorded with {} thread(s); the config "
                "provides only {}".format(
                    self.path, self._recorded_threads, num_threads
                )
            )
        for addr, value in self._memory_words:
            memory.poke(addr, value)
        delta = self._high_water - allocator.high_water
        if delta > 0:
            allocator.alloc(delta)
        self._memory = memory
        self._cursors = [0] * num_threads

    def make_invocation(self, thread_id, rng):
        raise NotImplementedError(
            "TraceWorkload drives next_action directly"
        )

    def next_action(self, thread_id, rng):
        if thread_id >= self._recorded_threads:
            return None
        actions = self._actions[thread_id]
        cursor = self._cursors[thread_id]
        if cursor >= len(actions):
            return None
        self._cursors[thread_id] = cursor + 1
        record = actions[cursor]
        if "t" in record:
            return Think(record["t"])
        for addr, value in record["pokes"]:
            self._memory.poke(addr, value)
        region = record["r"]
        region_id = tuple(region) if isinstance(region, list) else region
        return Invoke(region_id, _replay_factory(record["ops"]))


def _replay_factory(ops):
    """Body factory yielding the recorded ops with taint reconstructed."""

    def body():
        for op in ops:
            kind = op[0]
            if kind == "L":
                addr = TaintedValue(op[1], True) if op[2] else op[1]
                yield Load(addr)
            elif kind == "S":
                addr = TaintedValue(op[1], True) if op[3] else op[1]
                yield Store(addr, op[2])
            elif kind == "C":
                yield Compute(op[1], op[2])
            elif kind == "B":
                yield Branch(TaintedValue(1, True) if op[1] else 0)
            elif kind == "A":
                yield AbortOp()
            else:
                raise TraceFormatError(
                    "unknown recorded op kind {!r}".format(kind)
                )

    return body
