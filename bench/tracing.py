"""Per-layer host timing for the benchmark's traced pass.

The :class:`Tracer` patches the public methods of each layer's classes
from outside the program (the table :data:`LAYERS`), times every call,
and restores the originals on :meth:`Tracer.uninstall`. A layer's
*self time* is its calls' duration minus the time spent in timed calls
they made, so the self times of all layers add up to the time spent
inside the outermost timed call.

Calls inside ``Machine.run`` happen millions of times per run, so they
are kept only as in-memory totals (count and self time per call site).
Cells and engine phases are kept as full spans and exported as a
Chrome/Perfetto ``trace_event`` file when the run ends.

Sweeps fan cells out to forked engine workers. The workers inherit the
patched classes, so :func:`execute_traced` (the ``execute=`` hook the
traced sweep passes to the engine) returns ``execute_spec``'s result
unchanged and appends one span line per cell, with the worker-side
layer totals of that cell, to a file per worker process.
"""

import functools
import importlib
import json
import os
import time

from repro.sim import engine
from repro.sim.program import Invoke

#: layer -> ((module, class, public methods timed), ...). A method is
#: only patched where the class itself defines it; anything missing
#: (renamed or removed by a later change) is listed in the layer
#: report instead of failing the run.
LAYERS = (
    ("sim.machine", (
        ("repro.sim.machine", "Machine", ("run",)),
    )),
    ("sim.executor", (
        ("repro.sim.executor", "CoreExecutor", ("step",)),
    )),
    # Machine.next_action is the executor's only way into the workload;
    # the Invoke it returns gets a body factory whose generators time
    # every resume (see Tracer._next_action).
    ("workloads", (
        ("repro.sim.machine", "Machine", ("next_action",)),
    )),
    ("htm.arbiter", (
        ("repro.htm.arbiter", "ConflictArbiter", ("resolve_line", "resolve")),
    )),
    ("htm.rwset", (
        ("repro.htm.rwset", "ReadWriteSets", (
            "record_read", "record_write", "buffer_store", "forwarded_load",
            "drain_to", "discard", "detach_index",
        )),
        ("repro.htm.sharer_index", "SharerIndex", (
            "get", "add_reader", "add_writer", "drop_core",
        )),
    )),
    ("memory", (
        ("repro.memory.system", "MemorySystem", (
            "access", "acquire_line_lock", "release_all_locks",
            "probe_exclusive_hit", "evict_core_state",
        )),
        ("repro.memory.locking", "LockManager", (
            "check_access", "try_lock", "unlock", "unlock_all",
        )),
        ("repro.memory.directory", "Directory", (
            "lock_set", "unlock_set", "set_lock_holder",
        )),
    )),
    ("core", (
        ("repro.core.controller", "ClearController", (
            "begin_invocation", "note_conflict", "conclude_failed_discovery",
            "conclude_committed_discovery", "prepare_lock_plan",
            "note_scl_conflicting_read", "mark_non_discoverable",
        )),
        ("repro.core.discovery", "DiscoveryState", (
            "enter_failed_mode", "on_load", "on_store", "on_branch",
            "on_compute", "assess",
        )),
    )),
    ("sim.stats", (
        ("repro.sim.stats", "MachineStats", (
            "record_begin", "record_commit", "record_abort", "record_access",
            "record_compute", "record_branch", "record_lock_acquired",
            "record_lock_hold", "record_fallback_hold", "record_first_retry",
            "add_busy", "add_wait",
        )),
    )),
    ("sim.monitor", (
        ("repro.sim.monitor", "OnlineMonitor", (
            "record_commit", "note_fallback_store", "note_fallback_load",
            "note_fallback_abort", "finalize",
        )),
    )),
    ("sim.engine", (
        ("repro.sim.engine", "ExperimentEngine", (
            "run_specs", "run_specs_report",
        )),
        ("repro.sim.engine", "DiskCache", ("load", "store")),
        ("repro.sim.engine", "RunSpec", ("cache_key",)),
    )),
    ("sim.journal", (
        ("repro.sim.journal", "SweepJournal", ("record_result", "replay")),
    )),
    ("sim.runner", (
        ("repro.sim.runner", "RunResult", ("from_dict", "to_dict")),
    )),
    # run_config_matrix and figure_payload are called by the benchmark
    # itself, which times them through Tracer.call.
    ("analysis", ()),
)

LAYER_NAMES = tuple(layer for layer, _ in LAYERS)

#: Calls that also leave a span (engine phases), not just totals.
SPAN_CALLS = frozenset({
    "ExperimentEngine.run_specs", "ExperimentEngine.run_specs_report",
    "SweepJournal.replay",
})

# The tracer installed in this process. Forked engine workers inherit it
# together with the patched classes, which is how execute_traced finds
# the totals its cell's calls were added to.
_ACTIVE = None


class Tracer:
    """Per-layer call totals plus cell/phase spans for one traced pass."""

    def __init__(self):
        self.pid = os.getpid()
        self.totals = {}  # (layer, call) -> [calls, self seconds]
        self.events = 0  # Machine.event_count summed over timed runs
        self.spans = []  # (name, category, pid, start, end, args)
        self.missing = []
        self._stack = [0.0]  # child-time accumulator per open timed call
        self._patched = []

    # -- timing ----------------------------------------------------------------

    def timed(self, layer, call, fn, span=False):
        """``fn`` wrapped to add its calls and self time to ``layer``."""
        cell = self.totals.setdefault((layer, call), [0, 0.0])
        stack = self._stack
        spans = self.spans
        pid = self.pid
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                cell[0] += 1
                cell[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                if span:
                    spans.append((call, layer, pid, start, end, None))
        return wrapper

    def call(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` once as a timed ``layer`` call that leaves a span."""
        return self.timed(layer, name, fn, span=True)(*args, **kwargs)

    def span(self, name, category, start, end, pid=None, args=None):
        self.spans.append((name, category, pid or self.pid, start, end, args))

    def snapshot(self):
        totals = {key: tuple(value) for key, value in self.totals.items()}
        return totals, self.events

    def delta(self, snapshot):
        """Totals added since ``snapshot`` as ``{"layer|call": [n, s]}``."""
        before, events = snapshot
        changed = {}
        for key, (calls, seconds) in self.totals.items():
            old_calls, old_seconds = before.get(key, (0, 0.0))
            if calls != old_calls:
                changed["|".join(key)] = [calls - old_calls,
                                          seconds - old_seconds]
        return changed, self.events - events

    def merge(self, changed, events):
        """Add totals recorded in another process (see :meth:`delta`)."""
        for joined, (calls, seconds) in changed.items():
            cell = self.totals.setdefault(tuple(joined.split("|", 1)), [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
        self.events += events

    # -- patching --------------------------------------------------------------

    def install(self):
        """Patch every layer's public calls; undo with :meth:`uninstall`."""
        global _ACTIVE
        for layer, owners in LAYERS:
            for module_name, class_name, methods in owners:
                try:
                    owner = getattr(importlib.import_module(module_name),
                                    class_name)
                except (ImportError, AttributeError):
                    self.missing.append("{}.{}".format(module_name, class_name))
                    continue
                for method in methods:
                    self._patch(layer, owner, method)
        _ACTIVE = self
        return self

    def _patch(self, layer, owner, method):
        raw = owner.__dict__.get(method)
        call = "{}.{}".format(owner.__name__, method)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(layer, call, raw.__func__))
        elif callable(raw):
            replacement = self._wrap(layer, call, raw)
        else:
            self.missing.append(call)
            return
        self._patched.append((owner, method, raw))
        setattr(owner, method, replacement)

    def _wrap(self, layer, call, fn):
        if call == "Machine.run":
            fn = self._counting_run(fn)
        elif call == "Machine.next_action":
            fn = self._next_action(fn)
        return self.timed(layer, call, fn, span=call in SPAN_CALLS)

    def _counting_run(self, run):
        tracer = self

        def counted(machine):
            try:
                return run(machine)
            finally:
                tracer.events += machine.event_count
        return counted

    def _next_action(self, next_action):
        resume = self.timed("workloads", "body.send",
                            lambda gen, value: gen.send(value))

        def timed_invocations(machine, core):
            action = next_action(machine, core)
            if isinstance(action, Invoke):
                factory = action.body_factory
                action = Invoke(action.region_id,
                                lambda: _TimedBody(factory(), resume))
            return action
        return timed_invocations

    def uninstall(self):
        global _ACTIVE
        for owner, method, raw in reversed(self._patched):
            setattr(owner, method, raw)
        self._patched = []
        _ACTIVE = None

    # -- reporting -------------------------------------------------------------

    def layer_report(self, wall):
        """``{layer: {calls, self_s, share, by_call}}`` over ``wall`` s."""
        report = {
            layer: {"calls": 0, "self_s": 0.0, "share": 0.0, "by_call": {}}
            for layer in LAYER_NAMES
        }
        for (layer, call), (calls, seconds) in sorted(self.totals.items()):
            if not calls:
                continue
            entry = report[layer]
            entry["calls"] += calls
            entry["self_s"] += seconds
            entry["by_call"][call] = {"calls": calls, "self_s": seconds}
        for entry in report.values():
            entry["share"] = entry["self_s"] / wall if wall > 0 else 0.0
        return report

    def chrome_trace(self):
        """The spans as a Chrome/Perfetto ``trace_event`` document."""
        if not self.spans:
            return {"traceEvents": []}
        origin = min(span[3] for span in self.spans)
        events = []
        for pid in sorted({span[2] for span in self.spans}):
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": "benchmark" if pid == self.pid
                         else "engine worker {}".format(pid)},
            })
        for name, category, pid, start, end, args in self.spans:
            event = {
                "name": name, "cat": category, "ph": "X", "pid": pid,
                "tid": 0, "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
            }
            if args:
                event["args"] = args
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _TimedBody:
    """A body generator whose every resume is a timed ``workloads`` call.

    Supports what the executor and the replay helpers use of a
    generator: ``send``, ``close``, ``throw`` and iteration.
    """

    __slots__ = ("_gen", "_resume")

    def __init__(self, gen, resume):
        self._gen = gen
        self._resume = resume

    def send(self, value):
        return self._resume(self._gen, value)

    def __next__(self):
        return self._resume(self._gen, None)

    def __iter__(self):
        return self

    def close(self):
        self._gen.close()

    def throw(self, *args):
        return self._gen.throw(*args)


def execute_traced(spec, span_dir):
    """``execute_spec`` for a traced sweep: same result, plus a span line.

    Module-level so the engine can pickle it. In a forked worker the
    inherited tracer holds the cell's layer totals; a worker started
    without it (another start method) records the span alone. On the
    engine's in-process path the parent's tracer already holds the
    totals, so none are written.
    """
    tracer = _ACTIVE
    start = time.perf_counter()
    if tracer is None:
        result = engine.execute_spec(spec)
        layers, events = None, None
    else:
        before = tracer.snapshot()
        result = tracer.timed("sim.engine", "execute_spec",
                              engine.execute_spec)(spec)
        layers, events = tracer.delta(before)
        if tracer.pid == os.getpid():
            layers = events = None
    end = time.perf_counter()
    line = {
        "pid": os.getpid(), "key": spec.cache_key(), "start": start,
        "end": end, "layers": layers, "events": events,
        "name": "{}/{}/s{}".format(spec.workload, spec.config.design,
                                   spec.seed),
    }
    path = os.path.join(span_dir, "spans-{}.jsonl".format(os.getpid()))
    with open(path, "a") as handle:
        handle.write(json.dumps(line) + "\n")
    return result


def collect_worker_spans(tracer, span_dir):
    """Fold the span files :func:`execute_traced` wrote into ``tracer``.

    Returns the summed worker-side execute seconds (for the engine's
    pool efficiency).
    """
    execute_s = 0.0
    for name in sorted(os.listdir(span_dir)):
        if not name.startswith("spans-"):
            continue
        with open(os.path.join(span_dir, name)) as handle:
            for text in handle:
                line = json.loads(text)
                execute_s += line["end"] - line["start"]
                tracer.span(line["name"], "cell", line["start"], line["end"],
                            pid=line["pid"], args={"key": line["key"][:12]})
                if line["layers"] is not None:
                    tracer.merge(line["layers"], line["events"])
    return execute_s
