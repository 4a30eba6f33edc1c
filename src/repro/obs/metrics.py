"""Named counters and histograms backing the measurement surface.

:class:`MetricRegistry` is always on — unlike tracing it costs only the
increments themselves, and every observation is a pure function of
simulated state (cycle counts, retry counts), so results are identical
whether or not a trace sink is attached.

Histograms use power-of-two buckets: an observation ``v`` lands in
bucket ``v.bit_length()`` (bucket ``k`` holds ``2**(k-1) <= v <
2**k``; bucket 0 holds exactly 0). That keeps ``observe()`` to one
integer op on the hot path while preserving the order-of-magnitude
shape that latency distributions are read for.
"""

_new = object.__new__


class MetricCounter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name, value=0):
        self.name = name
        self.value = value

    def inc(self, amount=1):
        self.value += amount

    def __repr__(self):
        return "MetricCounter({!r}, {})".format(self.name, self.value)


class Histogram:
    """A named power-of-two-bucket histogram of non-negative integers."""

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self.buckets = {}

    def observe(self, value):
        """Record one observation (clamped below at 0)."""
        if value < 0:
            value = 0
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self):
        """Arithmetic mean of every observation (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def to_dict(self):
        """JSON-serializable form (bucket keys stringified)."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(bucket): count
                for bucket, count in sorted(self.buckets.items())
            },
        }

    @classmethod
    def from_dict(cls, name, data):
        """Rebuild a histogram from :meth:`to_dict` output.

        Fills the slots directly instead of running ``__init__``'s
        defaults first: a warm sweep decodes four histograms per cell.
        """
        histogram = _new(cls)
        histogram.name = name
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram.min = data["min"]
        histogram.max = data["max"]
        histogram.buckets = {
            int(bucket): count for bucket, count in data["buckets"].items()
        }
        return histogram

    def __repr__(self):
        return "Histogram({!r}, count={}, mean={:.1f})".format(
            self.name, self.count, self.mean
        )


class MetricRegistry:
    """A flat namespace of counters and histograms.

    ``counter(name)``/``histogram(name)`` return the existing metric or
    create it, so callers bind metrics once at construction time and
    pay plain attribute access afterwards.
    """

    __slots__ = ("_counters", "_histograms")

    def __init__(self):
        self._counters = {}
        self._histograms = {}

    def counter(self, name):
        """The counter registered under ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = MetricCounter(name)
        return counter

    def histogram(self, name):
        """The histogram registered under ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def counters(self):
        """Name-sorted list of every registered counter."""
        return [self._counters[name] for name in sorted(self._counters)]

    def histograms(self):
        """Name-sorted list of every registered histogram."""
        return [self._histograms[name] for name in sorted(self._histograms)]

    def counter_value(self, name, default=0):
        """Current value of a counter (``default`` if never registered)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else default

    def to_dict(self):
        """The whole registry as a JSON-serializable dict."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_dict(cls, data):
        """Rebuild a registry from :meth:`to_dict` output.

        Builds every counter with slot stores rather than an
        ``__init__`` call per counter.
        """
        registry = _new(cls)
        counters = registry._counters = {}
        for name, value in data.get("counters", {}).items():
            counter = counters[name] = _new(MetricCounter)
            counter.name = name
            counter.value = value
        from_dict = Histogram.from_dict
        registry._histograms = {
            name: from_dict(name, histogram)
            for name, histogram in data.get("histograms", {}).items()
        }
        return registry
