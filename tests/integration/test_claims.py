"""The paper's claims table (``repro.analysis.claims``) and its renderer.

The fast tests evaluate the micro rows against the committed micro
golden, the sweep rows against the committed ``.exp_results.json``, and
Table 1 exactly; they also pin the renderer's strictness and its output.
The slow test evaluates the quick rows on a fresh quick matrix, and the
ablation rows on the ablation runs built here.
"""

import importlib.util
import json
import pathlib

import pytest

from repro.analysis import claims
from repro.analysis.experiments import (
    figure_payload,
    run_config_matrix,
    settings_for,
)
from repro.sim.config import SimConfig
from repro.sim.engine import ExperimentEngine, RunSpec
from repro.sim.runner import AggregateResult
from repro.workloads import ALL_NAMES

ROOT = pathlib.Path(__file__).resolve().parents[2]
MICRO_GOLDEN = ROOT / "tests" / "goldens" / "figures_micro.json"
SWEEP_RESULTS = ROOT / ".exp_results.json"


def load(path):
    return json.loads(path.read_text())


def statuses(outcomes):
    return {outcome.claim.id: outcome.status for outcome in outcomes}


def broken(outcomes):
    return ["{} {}: {}".format(outcome.claim.id, outcome.status,
                               claims.show(outcome.measured, outcome.claim.fmt))
            for outcome in outcomes if outcome.broken]


@pytest.fixture(scope="module")
def table1():
    return claims.measure_table1()


@pytest.fixture
def renderer(monkeypatch, table1):
    """``scripts/render_experiments.py`` as a module, with Table 1
    measured once per module instead of once per render."""
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(claims, "measure_table1", lambda: table1)
    import render_experiments

    return render_experiments


class TestTable:
    def test_ids_are_unique_and_scales_named(self):
        ids = [claim.id for claim in claims.CLAIMS]
        assert len(ids) == len(set(ids))
        for claim in claims.CLAIMS:
            assert claim.scales, claim.id
            assert set(claim.scales) <= set(claims.SCALES), claim.id
            assert claim.over in ("figures", "table1", "ablations"), claim.id

    def test_every_row_is_evaluated_somewhere(self, table1):
        """Each row is evaluated here (micro golden, committed sweep,
        Table 1) or is a quick row, which the slow test evaluates."""
        here = set()
        for path, scale in ((MICRO_GOLDEN, "micro"), (SWEEP_RESULTS, "sweep")):
            outcomes = claims.evaluate(load(path), scale, table1=table1)
            here |= {claim_id for claim_id, status in statuses(outcomes).items()
                     if status != claims.NOT_EVALUATED}
        slow = {claim.id for claim in claims.CLAIMS if "quick" in claim.scales}
        assert {claim.id for claim in claims.CLAIMS} - here - slow == set()

    def test_benchmark_copy_of_the_headline_matches(self, monkeypatch):
        """``bench/workloads.py`` keeps its own copy of the headline
        values (the benchmark's tree is not edited from here); it must
        equal the table's."""
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.PAPER_HEADLINE == claims.PAPER_HEADLINE


class TestCommittedData:
    @pytest.mark.parametrize("path, scale", [(MICRO_GOLDEN, "micro"),
                                             (SWEEP_RESULTS, "sweep")])
    def test_rows_of_the_scale_hold(self, path, scale, table1):
        outcomes = claims.evaluate(load(path), scale, table1=table1)
        assert broken(outcomes) == []
        skipped = [outcome.claim.id for outcome in outcomes
                   if scale in outcome.claim.scales
                   and outcome.status == claims.NOT_EVALUATED]
        assert skipped == []

    def test_table1_matches_the_paper_exactly(self, table1):
        assert table1 == claims.PAPER_TABLE_1
        outcomes = claims.evaluate(None, "micro", table1=table1)
        held = [outcome for outcome in outcomes
                if outcome.claim.over == "table1"
                and outcome.status == claims.HOLDS]
        assert len(held) == len(claims.PAPER_TABLE_1) == 19
        # One of bst's mutable ARs measured likely immutable: its row fails.
        moved = dict(table1, bst=(3, 0, 1, 2))
        found = statuses(claims.evaluate(None, "micro", table1=moved))
        assert found["table1.bst"] == claims.FAILS

    def test_a_failed_claim_is_reported(self):
        payload = load(SWEEP_RESULTS)
        headline = payload["headline"]
        headline["fallback_share_C"] = headline["fallback_share_B"] + 0.01
        found = statuses(claims.evaluate(payload, "sweep"))
        assert found["fig13.fallback-c-below-b"] == claims.FAILS
        assert found["headline.fallback_share_C"] == claims.FAILS

    def test_a_deviation_that_holds_is_reported(self):
        payload = load(SWEEP_RESULTS)
        headline = payload["headline"]
        headline["aborts_per_commit_C"] = 0.5 * headline["aborts_per_commit_B"]
        found = statuses(claims.evaluate(payload, "sweep"))
        assert found["fig9.c-below-0.6b-at-sweep"] == claims.UNEXPECTED
        assert found["fig9.c-below-b"] == claims.HOLDS


class TestRenderer:
    def render(self, renderer, payload, tmp_path):
        src = tmp_path / "results.json"
        dst = tmp_path / "EXPERIMENTS.md"
        src.write_text(json.dumps(payload))
        status = renderer.main([str(src), str(dst)])
        return status, dst.read_text()

    def test_committed_experiments_md_is_current(self, renderer, tmp_path):
        status, text = self.render(renderer, load(SWEEP_RESULTS), tmp_path)
        assert status == 0
        assert text == (ROOT / "EXPERIMENTS.md").read_text()

    def test_a_moved_value_fails_and_names_its_row(self, renderer, tmp_path,
                                                  capsys):
        payload = load(SWEEP_RESULTS)
        headline = payload["headline"]
        headline["fallback_share_C"] = headline["fallback_share_B"] + 0.01
        status, text = self.render(renderer, payload, tmp_path)
        assert status == 1
        assert "claim fig13.fallback-c-below-b FAILS" in capsys.readouterr().err
        assert "**Broken:**" in text

    def test_a_deviation_that_holds_fails_the_render(self, renderer, tmp_path,
                                                    capsys):
        payload = load(SWEEP_RESULTS)
        headline = payload["headline"]
        headline["aborts_per_commit_C"] = 0.5 * headline["aborts_per_commit_B"]
        status, _ = self.render(renderer, payload, tmp_path)
        assert status == 1
        err = capsys.readouterr().err
        assert "claim fig9.c-below-0.6b-at-sweep UNEXPECTEDLY HOLDS" in err

    def test_a_subset_of_a_scale_evaluates_nothing(self, renderer, tmp_path):
        payload = load(SWEEP_RESULTS)
        payload["num_cores"] = 8
        status, text = self.render(renderer, payload, tmp_path)
        assert status == 0
        assert "**holds**" not in text and "**not evaluated**" in text


#: The ablation studies: {study: (design, benchmarks, {variant: SimConfig
#: overrides})}, run at the quick scale's cores, ops and seeds.
STUDIES = {
    "failed_mode": ("clear", ("mwobject", "arrayswap", "queue", "bitcoin",
                              "intruder", "bst"),
                    {"on": {"failed_mode_discovery": True},
                     "off": {"failed_mode_discovery": False}}),
    "scl_policy": ("clear", ("bitcoin", "queue", "stack", "deque", "intruder"),
                   {"writes": {"scl_lock_policy": "writes"},
                    "all": {"scl_lock_policy": "all"}}),
    "crt": ("clear", ("bitcoin", "queue", "deque", "vacation-h"),
            {"on": {"crt_enabled": True}, "off": {"crt_enabled": False}}),
    "retry_threshold": ("baseline", ALL_NAMES,
                        {threshold: {"retry_threshold": threshold}
                         for threshold in (1, 2, 4, 6, 8, 10)}),
    "substrate": ("clear", ("mwobject", "labyrinth"),
                  {"htm": {"speculation": "htm"},
                   "sle": {"speculation": "sle"},
                   "sle_sq20": {"speculation": "sle", "sq_entries": 20}}),
}


def build_ablations(jobs=2):
    """{study: {benchmark: {variant: AggregateResult}}} for the rows."""
    settings = settings_for("quick")
    cells = [
        (study, name, variant,
         SimConfig.for_design(design, num_cores=settings.num_cores, **overrides))
        for study, (design, names, variants) in STUDIES.items()
        for name in names
        for variant, overrides in variants.items()
    ]
    results = ExperimentEngine(jobs=jobs, cache_dir=None).run_specs([
        RunSpec(workload=name, config=config, seed=seed,
                ops_per_thread=settings.ops_per_thread)
        for _, name, _, config in cells
        for seed in settings.seeds
    ])
    per_cell = len(settings.seeds)
    ablations = {}
    for index, (study, name, variant, config) in enumerate(cells):
        runs = results[index * per_cell:(index + 1) * per_cell]
        ablations.setdefault(study, {}).setdefault(name, {})[variant] = (
            AggregateResult(name, config, runs, settings.trim))
    return ablations


@pytest.mark.slow
def test_quick_and_ablation_rows_hold(table1):
    payload = figure_payload(run_config_matrix(settings_for("quick"), jobs=2))
    outcomes = claims.evaluate(payload, "quick", table1=table1,
                               ablations=build_ablations())
    skipped = [outcome.claim.id for outcome in outcomes
               if "quick" in outcome.claim.scales
               and outcome.status == claims.NOT_EVALUATED]
    assert skipped == []
    assert broken(outcomes) == []
