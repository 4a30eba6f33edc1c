"""Crash-safe sweeps: a job folder is the sweep's only result store.

The engine's in-memory :class:`~repro.sim.engine.SweepReport` dies with
the process; a ``kill -9`` mid-sweep used to lose every completed cell
that had not reached the cache (and, with ``--no-cache``, everything).
:class:`SweepJournal` gives a sweep the same contract the source paper
gives an atomic region — bounded rework, guaranteed forward progress —
by making every finished cell durable the moment it finishes, written
once:

``<job dir>/<key[:2]>/<key>.json``
    The job folder *is* a :class:`~repro.sim.engine.DiskCache` root.
    Every finished cell is stored there (temp file + fsync + rename),
    keyed by its content-addressed cache key — not list position — so
    a resumed sweep may reorder, extend, or subset the spec list and
    still serve exactly the cells it shares. A resume is an ordinary
    cached run against the folder, whatever the engine's own cache
    setting. A corrupt entry, or one that stores another
    configuration, is quarantined (``<job dir>/quarantine/``) and only
    that cell runs again; a full disk degrades the folder to off.

``<job dir>/manifest.json``
    Written atomically. Records the journal format version, the
    engine's result ``schema_version``, a ``cells`` map from cache key
    to a human-readable spec summary (the job-folder/run-manifest
    convention of ErdosLab's experiment runner), and a ``failures``
    map from cache key to every quarantined cell's failure report, so
    a resume remembers deterministic failures instead of retrying
    them. Re-opening a folder validates both versions — serving
    results that mean something else is worse than re-executing — and
    merges any new cells in, so one folder can hold a sweep made of
    several engine calls.

The folder is single-sweep: two sweeps sharing one could each rewrite
the manifest and lose the other's cells or failures (entries are
safe — they are deterministic bytes placed by an atomic rename).
"""

import json
import os

from repro.common.errors import JournalError, JournalSchemaError
from repro.sim.engine import DiskCache

#: Bump when the job folder's layout changes shape. v2: results are
#: cache entries in the folder, no longer lines of an append-only log.
JOURNAL_VERSION = 2

MANIFEST_NAME = "manifest.json"


def spec_summary(spec):
    """The manifest's human-readable description of one cell."""
    return {
        "workload": spec.workload,
        "seed": spec.seed,
        "ops_per_thread": spec.ops_per_thread,
        "trace": spec.trace,
        "config": spec.config.fingerprint(),
    }


class SweepJournal(DiskCache):
    """One crash-safe job folder: a result store plus its manifest.

    All filesystem writes go through the injectable ``io`` seam, so the
    chaos harness can corrupt entries and fill the disk.
    """

    def __init__(self, path, io=None):
        super().__init__(os.fspath(path), io=io)
        self.manifest = None

    @property
    def path(self):
        return self.root

    @property
    def manifest_path(self):
        return os.path.join(self.root, MANIFEST_NAME)

    def exists(self):
        """True when the folder already holds a manifest (resumable)."""
        return os.path.exists(self.manifest_path)

    def ensure(self, specs, schema_version, keys=None):
        """Create the job folder, or validate and extend an existing one.

        ``schema_version`` is the engine's result schema
        (:data:`repro.sim.engine.SCHEMA_VERSION`), pinned into the
        manifest so a resume against incompatible result payloads
        raises :class:`~repro.common.errors.JournalSchemaError` instead
        of silently serving them. ``keys``, when given, are the specs'
        cache keys, already computed by the caller. Returns the
        manifest.
        """
        if keys is None:
            keys = [spec.cache_key() for spec in specs]
        cells = {key: spec_summary(spec) for key, spec in zip(keys, specs)}
        if self.exists():
            manifest = self._load_manifest()
            if manifest.get("journal_version") != JOURNAL_VERSION:
                raise JournalSchemaError(
                    "job folder {} has journal_version {!r}; this build "
                    "writes {} — start a fresh job folder".format(
                        self.path, manifest.get("journal_version"),
                        JOURNAL_VERSION,
                    )
                )
            if manifest.get("schema_version") != schema_version:
                raise JournalSchemaError(
                    "job folder {} holds schema_version {!r} results; "
                    "this build produces {} — its results cannot be "
                    "served, start a fresh job folder".format(
                        self.path, manifest.get("schema_version"),
                        schema_version,
                    )
                )
            known = manifest.setdefault("cells", {})
            manifest.setdefault("failures", {})
            new = {key: cells[key] for key in cells if key not in known}
            if new:
                known.update(new)
                self._write_manifest(manifest)
            else:
                self.manifest = manifest
        else:
            self._write_manifest({
                "journal_version": JOURNAL_VERSION,
                "schema_version": schema_version,
                "cells": cells,
                "failures": {},
            })
        return self.manifest

    def _load_manifest(self):
        data = self.io.read_bytes(self.manifest_path)
        try:
            manifest = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise JournalError(
                "job folder {} has an unreadable manifest; it was "
                "written atomically, so this is disk corruption — "
                "start a fresh job folder".format(self.path)
            )
        if not isinstance(manifest, dict):
            raise JournalError(
                "job folder {} manifest is not an object".format(self.path)
            )
        return manifest

    def _write_manifest(self, manifest):
        self.manifest = manifest
        self._write(
            self.manifest_path,
            json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8"),
        )

    def record_failure(self, failure):
        """Durably remember one quarantined cell (a ``CellFailure``)."""
        self.manifest["failures"][failure.spec.cache_key()] = failure.to_dict()
        self._write_manifest(self.manifest)


__all__ = [
    "JOURNAL_VERSION",
    "MANIFEST_NAME",
    "SweepJournal",
    "spec_summary",
]
