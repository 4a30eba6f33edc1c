"""Shared dict/JSON round-trip contract for result and config types.

Every serializable value object in the library (configs, per-run stats,
run/aggregate results, sweep reports) speaks the same two-method
protocol — ``to_dict()`` producing a JSON-serializable dict and
``from_dict()`` rebuilding an equivalent object — and inherits the JSON
conveniences from one place instead of hand-rolling them. The on-disk
experiment cache, the process-pool result transport, and every script's
``--out`` file are all ``to_dict()`` output, so "round-trips through
:class:`Serializable`" is the single compatibility contract a schema
bump has to preserve.
"""

import hashlib
import json


def canonical_digest(obj):
    """SHA-256 hex digest of ``obj``'s canonical JSON encoding.

    The one digest convention shared by gen-spec fingerprints and the
    determinism test suites: keys sorted, separators minimal, UTF-8
    bytes hashed.
    """
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class Serializable:
    """Mixin deriving JSON round-trips from ``to_dict``/``from_dict``.

    Subclasses implement :meth:`to_dict` (JSON-serializable dict out)
    and :meth:`from_dict` (equivalent object back); the mixin supplies
    ``to_json``/``from_json`` strings on top. ``from_dict(to_dict())``
    must reconstruct an object whose ``to_dict()`` is equal — tests
    assert exactly that.
    """

    def to_dict(self):
        """This object as a JSON-serializable dict."""
        raise NotImplementedError(
            "{} must implement to_dict()".format(type(self).__name__)
        )

    @classmethod
    def from_dict(cls, data):
        """Rebuild an equivalent object from :meth:`to_dict` output."""
        raise NotImplementedError(
            "{} must implement from_dict()".format(cls.__name__)
        )

    def to_json(self, *, indent=None, sort_keys=False):
        """This object as a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=sort_keys)

    @classmethod
    def from_json(cls, text):
        """Rebuild an equivalent object from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
