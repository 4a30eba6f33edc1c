#!/usr/bin/env python3
"""Grow an on-disk workload corpus of generated kernels.

Sweeps the generator axes (footprint, mutability class, contention;
optionally regions/nesting/read mix) into one kernel folder per spec —
``OUT_DIR/<fingerprint12>/genspec.json`` plus a ``corpus.json`` index.
Each kernel is then addressable as ``gen:OUT_DIR/<fingerprint12>``
from any script, or by fingerprint after
``repro.workloads.gen.load_corpus(OUT_DIR)``.

``--check`` runs every kernel through ``api.simulate`` (one run under
``--design``/``--cores``/``--seed``) with the online serializability
monitor armed and reports commits/cycles — a corpus that passes is
safe to commit.

Exit status: 0 on success, 2 on a bad spec axis or a failed check.
"""

import itertools
import json
import sys

from repro import api, cli
from repro.cli import argparse
from repro.common.errors import ConfigurationError, ReproError
from repro.sim.config import SimConfig
from repro.workloads.gen import GenSpec, save_gen_spec


def _floats(text):
    return [float(part) for part in text.split(",") if part.strip()]


def _ints(text):
    return [int(part) for part in text.split(",") if part.strip()]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="corpus directory (created if missing)")
    parser.add_argument(
        "--footprints", default="2,4,8", metavar="N,N,...", type=_ints,
        help="footprint axis in cachelines (default: %(default)s)",
    )
    parser.add_argument(
        "--mutability", default="immutable,likely_immutable,mutable",
        metavar="C,C,...",
        help="mutability-class axis (default: %(default)s)",
    )
    parser.add_argument(
        "--contention", default="0.2,0.8", metavar="F,F,...", type=_floats,
        help="contention axis in [0,1] (default: %(default)s)",
    )
    parser.add_argument(
        "--regions", default="2", metavar="N,N,...", type=_ints,
        help="regions axis (default: %(default)s)",
    )
    parser.add_argument(
        "--nesting", default="1", metavar="N,N,...", type=_ints,
        help="AR-nesting axis (default: %(default)s)",
    )
    parser.add_argument(
        "--read-fraction", default="0.25", metavar="F,F,...", type=_floats,
        help="read-only fraction axis (default: %(default)s)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="run every kernel through api.simulate with the online "
             "monitor armed",
    )
    cli.add_design_flag(parser, default="clear")
    parser.add_argument(
        "--cores", type=int, default=4, metavar="N",
        help="cores for --check runs (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=1, metavar="S",
        help="seed for --check runs (default: %(default)s)",
    )
    parser.add_argument(
        "--ops", type=int, default=8, metavar="N",
        help="ops per thread for --check runs (default: %(default)s)",
    )
    return parser.parse_args(argv)


def build_specs(args):
    specs = []
    axes = itertools.product(
        args.footprints, args.mutability.split(","), args.contention,
        args.regions, args.nesting, args.read_fraction,
    )
    for footprint, mutability, contention, regions, nesting, read in axes:
        specs.append(GenSpec(
            regions=regions, footprint=footprint,
            mutability=mutability.strip(), contention=contention,
            read_fraction=read, nesting=nesting,
            hot_lines=max(8, footprint), private_lines=max(16, footprint),
        ))
    return specs


def main(argv=None):
    args = parse_args(argv if argv is not None else sys.argv[1:])
    config = SimConfig(num_cores=args.cores, design=args.design,
                       oracle="online")
    try:
        specs = build_specs(args)
    except ConfigurationError as exc:
        print("bad spec axis: {}".format(exc), file=sys.stderr)
        return 2
    index = {}
    failures = 0
    for spec in specs:
        fingerprint = spec.fingerprint()
        folder = "{}/{}".format(args.out.rstrip("/"), fingerprint[:12])
        save_gen_spec(spec, folder)
        name = "gen:" + spec.canonical()
        if args.check:
            try:
                report = api.simulate(
                    name, config, seeds=args.seed, ops_per_thread=args.ops,
                )
            except ReproError as exc:
                failures += 1
                print("FAIL {}: {}".format(name, exc))
            else:
                print("ok   {:60s} commits={:<5d} cycles={:,.0f}".format(
                    name[:60], report.stats.total_commits, report.cycles,
                ))
        index[fingerprint] = {"folder": folder, "spec": spec.canonical()}
    from repro.common.diskio import DiskIO

    DiskIO().write_atomic(
        "{}/corpus.json".format(args.out.rstrip("/")),
        json.dumps(index, indent=1, sort_keys=True).encode("utf-8"),
    )
    print("wrote {} kernel folder(s) under {} (index: corpus.json)".format(
        len(index), args.out,
    ))
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
