"""Unit tests for the shared command-line flag layer (repro.cli)."""

import pytest

from repro import cli
from repro.sim.engine import DEFAULT_CACHE_DIR, ExperimentEngine


def make_parser(**flags):
    parser = cli.argparse.ArgumentParser()
    cli.add_engine_flags(parser, **flags)
    cli.add_trace_flags(parser)
    return parser


class TestEngineFlags:
    def test_defaults(self):
        args = make_parser().parse_args([])
        assert args.jobs is None
        assert args.cache_dir == DEFAULT_CACHE_DIR
        assert not args.no_cache
        assert args.trace is None
        assert args.trace_report is None

    def test_parse(self):
        args = make_parser().parse_args(
            ["--jobs", "4", "--cache-dir", "/tmp/c", "--no-cache",
             "--trace", "out.json", "--trace-report", "out.txt"]
        )
        assert args.jobs == 4
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache
        assert args.trace == "out.json"
        assert args.trace_report == "out.txt"

    def test_jobs_validated(self):
        parser = make_parser()
        args = parser.parse_args(["--jobs", "0"])
        with pytest.raises(SystemExit):
            cli.validate_engine_flags(parser, args)

    def test_valid_jobs_pass_through(self):
        parser = make_parser()
        args = parser.parse_args(["--jobs", "1"])
        assert cli.validate_engine_flags(parser, args) is args

    def test_resolve_jobs(self):
        parser = make_parser()
        assert cli.resolve_jobs(parser.parse_args(["--jobs", "3"])) == 3
        assert cli.resolve_jobs(parser.parse_args([])) >= 1

    def test_resolve_cache_dir(self):
        parser = make_parser()
        assert cli.resolve_cache_dir(parser.parse_args([])) == DEFAULT_CACHE_DIR
        assert cli.resolve_cache_dir(parser.parse_args(["--no-cache"])) is None
        assert cli.resolve_cache_dir(
            parser.parse_args(["--cache-dir", "/tmp/x"])
        ) == "/tmp/x"

    def test_build_engine(self, tmp_path):
        parser = make_parser()
        args = parser.parse_args(
            ["--jobs", "2", "--cache-dir", str(tmp_path / "cache")]
        )
        engine = cli.build_engine(args)
        assert isinstance(engine, ExperimentEngine)
        assert engine.jobs == 2
        args = parser.parse_args(["--jobs", "1", "--no-cache"])
        engine = cli.build_engine(args)
        assert engine.jobs == 1


class TestScaleFlag:
    def test_default_and_choices(self):
        parser = cli.argparse.ArgumentParser()
        cli.add_scale_flag(parser, ("micro", "full"), default="full")
        assert parser.parse_args([]).scale == "full"
        assert parser.parse_args(["--scale", "micro"]).scale == "micro"
        with pytest.raises(SystemExit):
            parser.parse_args(["--scale", "galactic"])


class TestOracleFlag:
    def make(self, **kwargs):
        parser = cli.argparse.ArgumentParser()
        cli.add_oracle_flag(parser, **kwargs)
        return parser

    def test_default_leaves_config_alone(self):
        assert self.make().parse_args([]).oracle is None

    def test_bare_flag_means_online(self):
        assert self.make().parse_args(["--oracle"]).oracle == "online"

    def test_mode_names_accepted(self):
        parser = self.make()
        for mode in ("off", "online"):
            assert parser.parse_args(["--oracle", mode]).oracle == mode

    def test_invalid_mode_rejected(self):
        for mode in ("sometimes", "shadow", "cross-check"):
            with pytest.raises(SystemExit):
                self.make().parse_args(["--oracle", mode])

    def test_custom_default(self):
        assert self.make(default="online").parse_args([]).oracle == "online"


class TestWantsTrace:
    def test_wants_trace(self):
        parser = make_parser()
        assert not cli.wants_trace(parser.parse_args([]))
        assert cli.wants_trace(parser.parse_args(["--trace", "t.json"]))
        assert cli.wants_trace(parser.parse_args(["--trace-report", "t.txt"]))


class TestJournalFlags:
    def make_parser(self):
        parser = cli.argparse.ArgumentParser()
        cli.add_journal_flags(parser)
        return parser

    def test_defaults_off(self):
        parser = self.make_parser()
        args = cli.validate_journal_flags(parser, parser.parse_args([]))
        assert args.journal is None
        assert cli.resolve_journal(args) is None

    def test_journal_dir_resolves(self, tmp_path):
        parser = self.make_parser()
        args = parser.parse_args(["--journal", str(tmp_path / "job")])
        cli.validate_journal_flags(parser, args)
        journal = cli.resolve_journal(args)
        assert journal is not None
        assert journal.path == str(tmp_path / "job")

    def test_resume_requires_existing_manifest(self, tmp_path):
        parser = self.make_parser()
        args = parser.parse_args(["--resume", str(tmp_path / "nope")])
        with pytest.raises(SystemExit):
            cli.validate_journal_flags(parser, args)

    def test_resume_folds_into_journal(self, tmp_path):
        from repro.sim.engine import SCHEMA_VERSION
        from repro.sim.journal import SweepJournal

        job = str(tmp_path / "job")
        SweepJournal(job).ensure([], SCHEMA_VERSION)
        parser = self.make_parser()
        args = parser.parse_args(["--resume", job])
        cli.validate_journal_flags(parser, args)
        assert args.journal == job

    def test_help_says_cache_dir_does_not_apply(self):
        text = " ".join(self.make_parser().format_help().split())
        assert "--cache-dir does not apply" in text

    def test_conflicting_journal_and_resume_error(self, tmp_path):
        parser = self.make_parser()
        args = parser.parse_args(
            ["--journal", str(tmp_path / "a"), "--resume", str(tmp_path / "b")]
        )
        with pytest.raises(SystemExit):
            cli.validate_journal_flags(parser, args)
