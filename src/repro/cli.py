"""Shared command-line flag layer for the repro scripts.

``scripts/run_experiments.py`` and ``scripts/bench_perf.py`` (and any
future tool) get their common knobs from here, so ``--jobs``,
``--cache-dir``/``--no-cache``, ``--scale`` and the tracing flags parse
and validate identically everywhere instead of drifting per script.

Usage::

    parser = argparse.ArgumentParser(...)
    cli.add_engine_flags(parser)           # --jobs/--cache-dir/--no-cache
    cli.add_scale_flag(parser, ("micro", "full"), default="full")
    cli.add_trace_flags(parser)            # --trace/--trace-report
    args = parser.parse_args(argv)
    cli.validate_engine_flags(parser, args)
    engine = cli.build_engine(args, progress=..., cell_timeout=...)
"""

import argparse
import os

from repro.htm.design import DESIGN_REGISTRY
from repro.sim.engine import DEFAULT_CACHE_DIR, ExperimentEngine


def add_engine_flags(parser, cache_default=DEFAULT_CACHE_DIR):
    """Attach the experiment-engine knobs every script shares."""
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (default: all cores; 1 = serial)",
    )
    parser.add_argument(
        "--cache-dir", default=cache_default, metavar="DIR",
        help="on-disk result cache root (default: %(default)s)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk cache entirely",
    )
    return parser


def add_design_flag(parser, default="baseline"):
    """Attach the shared ``--design`` knob selecting the HTM design.

    Choices are the paper's four designs, the keys of
    :data:`~repro.htm.design.DESIGN_REGISTRY`.
    """
    parser.add_argument(
        "--design", choices=sorted(DESIGN_REGISTRY), default=default,
        help="HTM design (default: %(default)s)",
    )
    return parser


def add_oracle_flag(parser, default=None):
    """Attach the shared ``--oracle`` checker-mode knob.

    Choices come from :data:`~repro.sim.config.ORACLE_MODES`. A bare
    ``--oracle`` (no value) arms the online monitor, the same as
    ``--oracle online``; ``--oracle off`` disarms it. The default of
    None means "leave the script's config untouched" (where the
    monitor is on unless the script turned it off).
    """
    from repro.sim.config import ORACLE_MODES

    parser.add_argument(
        "--oracle", nargs="?", const="online", default=default,
        choices=ORACLE_MODES, metavar="MODE",
        help="checker mode: online (the monitor of serializability "
             "and the single-retry bound; the bare-flag default) or off",
    )
    return parser


def add_journal_flags(parser):
    """Attach the crash-safe job-folder knobs.

    ``--journal DIR`` makes DIR the sweep's only result store: every
    finished cell is written into it once and every quarantine is
    remembered in its manifest (created on first use, served from when
    it already exists). ``--cache-dir`` does not apply to a journaled
    sweep. ``--resume DIR`` is the explicit resume spelling — the
    folder must already hold a manifest, so a typo'd path fails loudly
    instead of silently starting a fresh sweep.
    """
    parser.add_argument(
        "--journal", metavar="DIR", default=None,
        help="crash-safe job folder, the sweep's only result store in "
             "place of --cache-dir: finished cells and quarantines are "
             "kept there and served on restart (created if missing)",
    )
    parser.add_argument(
        "--resume", metavar="DIR", default=None,
        help="resume a previous --journal job folder (must already "
             "contain a manifest); implies --journal DIR, and "
             "--cache-dir does not apply",
    )
    return parser


def validate_journal_flags(parser, args):
    """Shared post-parse validation for :func:`add_journal_flags`.

    Folds ``--resume`` into ``args.journal`` after checking the folder
    is actually resumable.
    """
    if getattr(args, "resume", None) is not None:
        if args.journal is not None and args.journal != args.resume:
            parser.error(
                "--journal {} and --resume {} disagree; pass one".format(
                    args.journal, args.resume
                )
            )
        from repro.sim.journal import SweepJournal

        if not SweepJournal(args.resume).exists():
            parser.error(
                "--resume {}: no journal manifest found (was this sweep "
                "started with --journal?)".format(args.resume)
            )
        args.journal = args.resume
    return args


def resolve_journal(args):
    """The job folder's :class:`~repro.sim.journal.SweepJournal`, or None."""
    path = getattr(args, "journal", None)
    if not path:
        return None
    from repro.sim.journal import SweepJournal

    return SweepJournal(path)


def add_scale_flag(parser, choices, default):
    """Attach the shared ``--scale`` knob (same name in every script)."""
    parser.add_argument(
        "--scale", choices=tuple(choices), default=default,
        help="experiment scale (default: %(default)s)",
    )
    return parser


def add_trace_flags(parser):
    """Attach the shared observability flags.

    ``--trace OUT.json`` exports a Chrome/Perfetto ``trace_event`` file
    for a representative traced run; ``--trace-report OUT.txt`` writes
    the per-region forensic text report of the same run. Tracing never
    changes simulated results.
    """
    parser.add_argument(
        "--trace", metavar="OUT.json", default=None,
        help="export a Chrome/Perfetto trace of a representative run",
    )
    parser.add_argument(
        "--trace-report", metavar="OUT.txt", default=None,
        help="write the per-region forensic abort report of the traced run",
    )
    return parser


def add_explore_flags(parser):
    """Attach the schedule-exploration knobs (``scripts/verify_schedules.py``).

    ``--explore N`` sets how many schedules each workload/config cell
    explores (for the exhaustive mode it is the tree-size cap instead),
    ``--explore-mode`` picks the explorer, ``--explore-cores`` shrinks
    the simulated machine to a micro core count, and ``--explore-seed``
    seeds the fuzzing schedulers.
    """
    parser.add_argument(
        "--explore", type=int, default=20, metavar="N",
        help="schedules to explore per cell (exhaustive: max tree size; "
             "default: %(default)s)",
    )
    parser.add_argument(
        "--explore-mode", choices=("random", "pct", "exhaustive"),
        default="random",
        help="schedule explorer (default: %(default)s)",
    )
    parser.add_argument(
        "--explore-cores", type=int, default=2, metavar="N",
        help="cores in the explored machine (default: %(default)s)",
    )
    parser.add_argument(
        "--explore-seed", type=int, default=0, metavar="S",
        help="base seed for the fuzzing schedulers (default: %(default)s)",
    )
    return parser


def validate_explore_flags(parser, args):
    """Shared post-parse validation for :func:`add_explore_flags`."""
    if args.explore < 1:
        parser.error("--explore must be >= 1, not {}".format(args.explore))
    if args.explore_cores < 2:
        parser.error(
            "--explore-cores must be >= 2 (schedule choice needs at least "
            "two cores), not {}".format(args.explore_cores)
        )
    return args


def resolve_workload_names(parser, text):
    """Canonicalize a comma-separated workload list, or exit cleanly.

    Entries are built-in benchmark names and ``gen:<spec>`` names. A
    multi-axis spec has commas of its own, so every ``key=value`` token
    joins the ``gen:`` entry before it: built-in names never contain
    ``=``, so the split is unambiguous. Returns the canonical names. An
    unknown or malformed name, or a ``key=value`` token with no ``gen:``
    entry before it, becomes ``parser.error`` (a one-line message and
    exit status 2) instead of a traceback.
    """
    from repro.common.errors import ConfigurationError
    from repro.workloads import GEN_PREFIX, canonical_workload_name

    names = []
    for token in text.split(","):
        if "=" in token and not token.startswith(GEN_PREFIX):
            if not names or not names[-1].startswith(GEN_PREFIX):
                parser.error(
                    "gen spec entry {!r} has no gen: workload before "
                    "it".format(token)
                )
            names[-1] += "," + token
        else:
            names.append(token)
    resolved = []
    for name in names:
        try:
            resolved.append(canonical_workload_name(name))
        except ConfigurationError as exc:
            parser.error(str(exc))
    return resolved


def validate_engine_flags(parser, args):
    """Shared post-parse validation for :func:`add_engine_flags`."""
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1, not {}".format(args.jobs))
    return args


def resolve_jobs(args):
    """The effective worker count (``--jobs`` or every core)."""
    if args.jobs is not None:
        return args.jobs
    return os.cpu_count() or 1


def resolve_cache_dir(args):
    """The effective cache root, or None when caching is off."""
    if getattr(args, "no_cache", False):
        return None
    return args.cache_dir


def build_engine(args, *, progress=None, cell_timeout=None, profile_dir=None,
                 **extra):
    """An :class:`ExperimentEngine` wired from the shared flags."""
    return ExperimentEngine(
        jobs=resolve_jobs(args),
        cache_dir=resolve_cache_dir(args),
        progress=progress,
        cell_timeout=cell_timeout,
        profile_dir=profile_dir,
        **extra,
    )


def wants_trace(args):
    """True when any tracing output was requested."""
    return bool(
        getattr(args, "trace", None) or getattr(args, "trace_report", None)
    )


__all__ = [
    "add_engine_flags",
    "add_design_flag",
    "add_oracle_flag",
    "add_journal_flags",
    "validate_journal_flags",
    "resolve_journal",
    "add_scale_flag",
    "add_trace_flags",
    "add_explore_flags",
    "validate_explore_flags",
    "validate_engine_flags",
    "resolve_jobs",
    "resolve_cache_dir",
    "build_engine",
    "wants_trace",
    "argparse",
]
