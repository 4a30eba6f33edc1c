"""Side-effect-free replay of an AR body against current memory.

Used in two places:

- the Fig. 1 instrumentation replays a region at its first abort and
  again at the start of its retry, comparing the *complete* footprints
  (this is how the paper's motivation measurement is defined — an AR is
  counted when its full cacheline set is unchanged on the first retry);
- the characterizer (:mod:`repro.analysis.characterize`) probes bodies
  for taint and footprint stability.

Stores are buffered locally (reads see them), so a replay never touches
architectural memory unless ``commit=True``.
"""

from repro.common.constants import WORDS_PER_LINE
from repro.core.indirection import TaintedValue
from repro.sim.program import AbortOp, Branch, Compute, Load, Store


class ReplayResult:
    """Footprint and taint observations from one replayed execution."""

    __slots__ = ("footprint", "indirection_seen", "loads", "stores")

    def __init__(self, footprint, indirection_seen, loads, stores):
        self.footprint = footprint
        self.indirection_seen = indirection_seen
        self.loads = loads
        self.stores = stores

    @property
    def footprint_size(self):
        """Number of distinct cachelines touched."""
        return len(self.footprint)


def replay_body(body_factory, memory, commit=False, stop_on_abort=False):
    """Execute an AR body against ``memory``, tracking taint/footprint.

    With ``commit=False`` stores stay in a local buffer (reads see it),
    leaving memory untouched; with ``commit=True`` the buffered stores
    are applied at the end, like a committing transaction.

    ``stop_on_abort=True`` ends the replay at the first
    :class:`~repro.sim.program.AbortOp`, mirroring the executor's
    fallback-path semantics (an XAbort there simply ends the region, so
    only the stores issued before it are architectural). A commit-order
    replay of committed regions needs this enabled.
    """
    footprint = set()
    buffered = {}
    indirection_seen = False
    loads = 0
    stores = 0
    gen = body_factory()
    send = gen.send
    send_value = None
    # Replays run complete bodies op-by-op with zero simulated time, so
    # they are pure interpreter overhead; the loop dispatches on exact
    # class and strips taint inline instead of going through the
    # word_addr/addr_tainted properties (value_of/taint_of per op).
    add_line = footprint.add
    words = memory._words
    tv = TaintedValue
    tv_new = TaintedValue.__new__
    while True:
        try:
            op = send(send_value)
        except StopIteration:
            break
        send_value = None
        kind = op.__class__
        if kind is Load:
            addr = op.addr
            if addr.__class__ is tv:
                word_addr = addr.value
                indirection_seen = indirection_seen or addr.tainted
            else:
                word_addr = int(addr)
            add_line(word_addr // WORDS_PER_LINE)
            loads += 1
            # Buffered values are plain ints (taint stripped on store),
            # so None means "not buffered" — no second membership probe.
            raw = buffered.get(word_addr)
            if raw is None:
                raw = words.get(word_addr, 0)
            send_value = value = tv_new(tv)
            value.value = raw
            value.tainted = True
        elif kind is Store:
            addr = op.addr
            if addr.__class__ is tv:
                word_addr = addr.value
                indirection_seen = indirection_seen or addr.tainted
            else:
                word_addr = int(addr)
            add_line(word_addr // WORDS_PER_LINE)
            stores += 1
            stored = op.value
            buffered[word_addr] = (
                stored.value if stored.__class__ is tv else int(stored)
            )
        elif kind is Branch:
            if not indirection_seen:
                condition = op.condition
                indirection_seen = (
                    condition.__class__ is tv and condition.tainted
                )
        elif kind is AbortOp:
            if stop_on_abort:
                gen.close()
                break
        elif kind is Compute:
            pass
        else:
            raise TypeError("unknown op {!r}".format(op))
    if commit:
        for word_addr, value in buffered.items():
            memory.poke(word_addr, value)
    return ReplayResult(frozenset(footprint), indirection_seen, loads, stores)
