"""The paper's claims as one table, checked against measured data.

Every claim this reproduction makes about the paper is a row of
:data:`CLAIMS`, in the idiom of a table of named lambdas: the row gives
its source in the paper and the paper's value, a ``measure`` that reads
the measured value from the data, a ``holds`` predicate over that
value (a direction, an ordering, a tolerance against the paper, or an
exact match), and the scales at which the claim must hold. A row
marked ``deviation`` records a claim this reproduction is known to miss
at its scales: it is expected to fail there, and one that holds is
reported like a strict expected failure.

Rows read one of three sources (their ``over`` field):

- ``figures``: a :func:`~repro.analysis.experiments.figure_payload`
  dict, which is what ``scripts/run_experiments.py`` writes;
- ``table1``: :func:`measure_table1`, the characterizer's Table 1;
- ``ablations``: ``{study: {benchmark: {variant: AggregateResult}}}``,
  the ablation runs that ``tests/integration/test_claims.py`` builds at
  quick-scale settings.

:func:`evaluate` returns one :class:`Outcome` per row. The claims are
checked in three places: the fast test suite checks the micro rows
against ``tests/goldens/figures_micro.json``, the sweep rows against
the committed ``.exp_results.json``, and Table 1; the slow claims test
checks the quick and ablation rows; ``scripts/render_experiments.py``
renders EXPERIMENTS.md from the outcomes and exits non-zero when one
breaks.
"""

from operator import itemgetter
from statistics import fmean
from typing import Callable, NamedTuple

from repro.analysis.characterize import characterization_table
from repro.htm.abort import AbortReason
from repro.workloads import make_workload

SCALES = ("micro", "quick", "sweep")
MICRO_QUICK = ("micro", "quick")
QUICK_SWEEP = ("quick", "sweep")
QUICK = ("quick",)
SWEEP = ("sweep",)

HOLDS = "holds"
FAILS = "FAILS"
DEVIATES = "known deviation"
UNEXPECTED = "UNEXPECTEDLY HOLDS"
NOT_EVALUATED = "not evaluated"

#: A headline row holds when the measured value is within this
#: fraction of the paper's.
TOLERANCE = 0.25

#: The paper's headline numbers (abstract and §7), keyed like
#: ``figure_payload()["headline"]``.
PAPER_HEADLINE = {
    "time_reduction_W_vs_B": 0.350,
    "time_reduction_C_vs_B": 0.274,
    "time_reduction_W_vs_P": 0.233,
    "energy_reduction_C_vs_B": 0.264,
    "energy_reduction_W_vs_B": 0.306,
    "aborts_per_commit_B": 7.9,
    "aborts_per_commit_C": 1.6,
    "aborts_per_commit_W": 2.3,
    "first_retry_share_B": 0.354,
    "first_retry_share_P": 0.464,
    "first_retry_share_C": 0.642,
    "first_retry_share_W": 0.644,
    "fallback_share_B": 0.372,
    "fallback_share_C": 0.155,
    "fallback_share_W": 0.154,
}

#: Headline values the sweep misses by more than :data:`TOLERANCE`.
#: This substrate's baseline runs hotter than the paper's (synthetic
#: kernels with short think times, DESIGN.md §6-7): B and P commit less
#: often on the first retry and B falls back more, and every
#: configuration aborts more often per commit.
SWEEP_DEVIATIONS = frozenset({
    "aborts_per_commit_B", "aborts_per_commit_C", "aborts_per_commit_W",
    "first_retry_share_B", "first_retry_share_P", "fallback_share_B",
})

#: Table 1 of the paper: (#ARs, immutable, likely immutable, mutable).
PAPER_TABLE_1 = {
    "arrayswap": (2, 2, 0, 0),
    "bitcoin": (1, 0, 1, 0),
    "bst": (3, 0, 0, 3),
    "deque": (2, 0, 1, 1),
    "hashmap": (3, 0, 0, 3),
    "mwobject": (1, 1, 0, 0),
    "queue": (2, 0, 1, 1),
    "stack": (2, 0, 1, 1),
    "sorted-list": (3, 1, 0, 2),
    "bayes": (14, 0, 5, 9),
    "genome": (5, 0, 0, 5),
    "intruder": (3, 0, 2, 1),
    "kmeans-h": (3, 1, 2, 0),
    "kmeans-l": (3, 1, 2, 0),
    "labyrinth": (3, 0, 0, 3),
    "ssca2": (3, 2, 1, 0),
    "vacation-h": (3, 0, 1, 2),
    "vacation-l": (3, 0, 1, 2),
    "yada": (6, 1, 0, 5),
}


def pct(value):
    return "{:.1%}".format(value)


def num(value):
    return "{:.2f}".format(value)


def counts(value):
    return "/".join(str(count) for count in value)


def show(value, fmt):
    """A paper or measured value as text: a number, or ``label value``
    pairs for a per-configuration (or per-benchmark) dict."""
    if isinstance(value, dict):
        return ", ".join("{} {}".format(label, fmt(item))
                         for label, item in value.items())
    return fmt(value)


class Claim(NamedTuple):
    """One row of the table; ``text`` says what ``holds`` checks."""

    id: str
    source: str
    text: str
    paper: object
    measure: Callable
    holds: Callable
    scales: tuple
    deviation: bool = False
    over: str = "figures"
    fmt: Callable = pct


class Outcome(NamedTuple):
    """A row's status on one data set, with the value it measured."""

    claim: Claim
    status: str
    measured: object = None

    @property
    def broken(self):
        """A claim that fails, or a known deviation that holds."""
        return self.status in (FAILS, UNEXPECTED)


def scalar(key):
    """(paper, measure) of one headline metric."""
    return PAPER_HEADLINE[key], lambda data: data["headline"][key]


def per_config(template, letters):
    """(paper, measure) of one headline metric for several
    configurations, e.g. ``per_config("fallback_share_{}", "BC")``."""
    keys = {letter: template.format(letter) for letter in letters}
    return (
        {letter: PAPER_HEADLINE[key] for letter, key in keys.items()},
        lambda data: {letter: data["headline"][key]
                      for letter, key in keys.items()},
    )


def pick(mapping, labels):
    return {label: mapping[label] for label in labels}


def near(paper):
    return lambda measured: abs(measured - paper) <= TOLERANCE * abs(paper)


def positive(measured):
    return measured > 0


def fallback_aborts(shares):
    """Fig. 11's fallback-class abort share of one cell."""
    return shares.get("Explicit Fallback", 0.0) + shares.get("Other Fallback", 0.0)


def sq_overflows(aggregate):
    return sum(run.stats.aborts_by_reason.get(AbortReason.SQ_OVERFLOW, 0)
               for run in aggregate.runs)


def crt_on_over_off(ablations):
    return {name: cells["on"].cycles / cells["off"].cycles
            for name, cells in ablations["crt"].items()}


def retry_optima(ablations):
    """The distinct best retry thresholds across benchmarks, and the
    fewest cycles of any run of the threshold sweep."""
    sweeps = list(ablations["retry_threshold"].values())
    return {
        "optima": sorted({min(cells, key=lambda t: cells[t].cycles)
                          for cells in sweeps}),
        "least cycles": min(aggregate.cycles for cells in sweeps
                            for aggregate in cells.values()),
    }


PRECOMPUTED = ("arrayswap", "mwobject", "kmeans-h", "kmeans-l", "ssca2")
POINTER_CHASING = ("sorted-list", "labyrinth", "vacation-h", "vacation-l")

CLAIMS = [
    # -- the headline numbers, within TOLERANCE of the paper's -------------
    *(Claim("headline." + key, "Abstract, §7",
            "{} within {:.0%} of the paper's".format(key.replace("_", " "),
                                                     TOLERANCE),
            *scalar(key), near(PAPER_HEADLINE[key]), SWEEP,
            deviation=key in SWEEP_DEVIATIONS,
            fmt=num if key.startswith("aborts") else pct)
      for key in PAPER_HEADLINE),

    # -- Fig. 1 ------------------------------------------------------------
    Claim("fig1.ratios-in-unit-interval", "Fig. 1",
          "every ratio lies between 0 and 1", None,
          lambda data: {"min": min(data["fig1"].values()),
                        "max": max(data["fig1"].values())},
          lambda m: 0.0 <= m["min"] and m["max"] <= 1.0, SCALES),
    Claim("fig1.average-in-band", "Fig. 1",
          "the average ratio lies between 30% and 90%", 0.602,
          lambda data: data["fig1"]["average"],
          lambda m: 0.30 <= m <= 0.90, SCALES),
    Claim("fig1.precomputed-stable", "Fig. 1",
          "arrayswap and mwobject (pre-computed addresses) exceed 90%, and "
          "so do kmeans-h, kmeans-l and ssca2 wherever they retry at all",
          None, lambda data: pick(data["fig1"], PRECOMPUTED),
          lambda m: (m["arrayswap"] > 0.9 and m["mwobject"] > 0.9
                     and all(v == 0.0 or v > 0.9 for v in m.values())), SCALES),
    Claim("fig1.pointer-chasing-below-average", "Fig. 1",
          "sorted-list, labyrinth, vacation-h and vacation-l (pointer "
          "chasing) each sit below the average", None,
          lambda data: pick(data["fig1"], POINTER_CHASING + ("average",)),
          lambda m: all(m[name] < m["average"] for name in POINTER_CHASING),
          SCALES),

    # -- Fig. 8 ------------------------------------------------------------
    Claim("fig8.b-is-one", "Fig. 8",
          "B's geomean normalized time is exactly 1", None,
          lambda data: data["fig8_times"]["geomean"]["B"],
          lambda m: m == 1.0, SCALES, fmt=num),
    Claim("fig8.c-faster-than-b", "Fig. 8",
          "C's geomean time is below B's (time reduction above 0)",
          *scalar("time_reduction_C_vs_B"), positive, SCALES),
    Claim("fig8.w-faster-than-b", "Fig. 8",
          "W's geomean time is below B's (time reduction above 0)",
          *scalar("time_reduction_W_vs_B"), positive, SCALES),
    Claim("fig8.w-faster-than-p", "Fig. 8",
          "W's geomean time is below P's (reduction over P above 0)",
          *scalar("time_reduction_W_vs_P"), positive, SCALES),
    Claim("fig8.order-w-c-p", "Fig. 8",
          "geomean time reductions over B order W > C > P",
          {"W": PAPER_HEADLINE["time_reduction_W_vs_B"],
           "C": PAPER_HEADLINE["time_reduction_C_vs_B"], "P": 0.127},
          lambda data: {letter: 1.0 - data["fig8_times"]["geomean"][letter]
                        for letter in "WCP"},
          lambda m: m["W"] > m["C"] > m["P"], QUICK_SWEEP),
    Claim("fig8.discovery-small", "Fig. 8",
          "the share of C's time spent in ARs aborted during discovery, "
          "averaged over benchmarks, is below 15%", None,
          lambda data: fmean(row["C"] for row in data["fig8_discovery"].values()),
          lambda m: m < 0.15, SCALES),

    # -- Fig. 9 ------------------------------------------------------------
    Claim("fig9.c-below-b", "Fig. 9",
          "C's average aborts per commit is below B's",
          *per_config("aborts_per_commit_{}", "BC"),
          lambda m: m["C"] < m["B"], SCALES, fmt=num),
    Claim("fig9.c-below-0.6b", "Fig. 9",
          "C's average aborts per commit is below 0.6 x B's",
          *per_config("aborts_per_commit_{}", "BC"),
          lambda m: m["C"] < 0.6 * m["B"], MICRO_QUICK, fmt=num),
    Claim("fig9.c-below-0.6b-at-sweep", "Fig. 9",
          "C's average aborts per commit is below 0.6 x B's",
          *per_config("aborts_per_commit_{}", "BC"),
          lambda m: m["C"] < 0.6 * m["B"], SWEEP, deviation=True, fmt=num),
    Claim("fig9.w-below-p", "Fig. 9",
          "W's average aborts per commit is below P's",
          {"P": 6.6, "W": PAPER_HEADLINE["aborts_per_commit_W"]},
          lambda data: pick(data["fig9"]["average"], "PW"),
          lambda m: m["W"] < m["P"], SCALES, fmt=num),
    Claim("fig9.non-negative", "Fig. 9",
          "no configuration's average aborts per commit is negative", None,
          lambda data: data["fig9"]["average"],
          lambda m: all(value >= 0 for value in m.values()), SCALES, fmt=num),

    # -- Fig. 10 -----------------------------------------------------------
    Claim("fig10.c-saves-energy", "Fig. 10",
          "C's geomean energy is below B's (energy reduction above 0)",
          *scalar("energy_reduction_C_vs_B"), positive, SCALES),
    Claim("fig10.w-saves-energy", "Fig. 10",
          "W's geomean energy is below B's (energy reduction above 0)",
          *scalar("energy_reduction_W_vs_B"), positive, SCALES),
    Claim("fig10.w-below-p", "Fig. 10",
          "W's geomean normalized energy is below P's", None,
          lambda data: pick(data["fig10"]["geomean"], "PW"),
          lambda m: m["W"] < m["P"], SCALES, fmt=num),

    # -- Fig. 11 -----------------------------------------------------------
    Claim("fig11.shares-are-distributions", "Fig. 11",
          "every benchmark's abort shares, per configuration, sum to 1 "
          "(or to 0 when it never aborts): the largest distance from 0 or "
          "1 is below 1e-6", None,
          lambda data: max(min(abs(total), abs(total - 1.0))
                           for row in data["fig11"].values()
                           for total in (sum(shares.values())
                                         for shares in row.values())),
          lambda m: m < 1e-6, SCALES, fmt="{:.1e}".format),
    Claim("fig11.fallback-aborts-shrink", "Fig. 11",
          "the fallback-class abort share (Explicit + Other Fallback), "
          "averaged over benchmarks, is below B's under both C and W", None,
          lambda data: {letter: fmean(fallback_aborts(row[letter])
                                     for row in data["fig11"].values())
                        for letter in "BCW"},
          lambda m: m["C"] < m["B"] and m["W"] < m["B"], SCALES),
    Claim("fig11.labyrinth-yada-keep-fallback", "Fig. 11",
          "under C, labyrinth and yada (footprints beyond the ALT) each "
          "keep a fallback-class abort share above the benchmarks' mean",
          None,
          lambda data: {
              "labyrinth": fallback_aborts(data["fig11"]["labyrinth"]["C"]),
              "yada": fallback_aborts(data["fig11"]["yada"]["C"]),
              "mean": fmean(fallback_aborts(row["C"])
                           for row in data["fig11"].values()),
          },
          lambda m: min(m["labyrinth"], m["yada"]) > m["mean"], SCALES),

    # -- Fig. 12 -----------------------------------------------------------
    Claim("fig12.no-cl-without-clear", "Fig. 12",
          "B and P never commit in S-CL or NS-CL", 0.0,
          lambda data: sum(row[letter].get(mode, 0.0)
                           for row in data["fig12"].values()
                           for letter in "BP" for mode in ("s_cl", "ns_cl")),
          lambda m: m == 0.0, SCALES),
    Claim("fig12.shares-sum-to-one", "Fig. 12",
          "every benchmark's commit shares, per configuration, sum to 1 "
          "within 1e-6", None,
          lambda data: max(abs(sum(shares.values()) - 1.0)
                           for row in data["fig12"].values()
                           for shares in row.values()),
          lambda m: m < 1e-6, SCALES, fmt="{:.1e}".format),
    Claim("fig12.mwobject-ns-cl", "Fig. 12",
          "mwobject under C commits more than 20% in NS-CL, the largest "
          "NS-CL share of any benchmark", None,
          lambda data: {
              "mwobject": data["fig12"]["mwobject"]["C"].get("ns_cl", 0.0),
              "next": max(row["C"].get("ns_cl", 0.0)
                          for name, row in data["fig12"].items()
                          if name != "mwobject"),
          },
          lambda m: m["mwobject"] > max(0.2, m["next"]), SCALES),
    Claim("fig12.mwobject-no-s-cl", "Fig. 12",
          "mwobject (immutable) under C never commits in S-CL", 0.0,
          lambda data: data["fig12"]["mwobject"]["C"].get("s_cl", 0.0),
          lambda m: m == 0.0, SCALES),
    Claim("fig12.arrayswap-ns-cl", "Fig. 12",
          "arrayswap under C commits more than 20% in NS-CL", None,
          lambda data: data["fig12"]["arrayswap"]["C"].get("ns_cl", 0.0),
          lambda m: m > 0.2, SCALES),
    Claim("fig12.bst-s-cl", "Fig. 12",
          "bst under C commits some ARs in S-CL, though Table 1 classes "
          "all of its ARs mutable", None,
          lambda data: data["fig12"]["bst"]["C"].get("s_cl", 0.0),
          lambda m: m > 0.0, SCALES),
    Claim("fig12.labyrinth-yada-barely-convert", "Fig. 12",
          "under C, labyrinth and yada each commit under 5% in S-CL and "
          "NS-CL together", None,
          lambda data: {name: data["fig12"][name]["C"].get("s_cl", 0.0)
                        + data["fig12"][name]["C"].get("ns_cl", 0.0)
                        for name in ("labyrinth", "yada")},
          lambda m: max(m.values()) < 0.05, SWEEP),

    # -- Fig. 13 -----------------------------------------------------------
    Claim("fig13.first-retry-c-over-b", "Fig. 13",
          "C's first-retry commit share is above B's",
          *per_config("first_retry_share_{}", "BC"),
          lambda m: m["C"] > m["B"], SCALES),
    Claim("fig13.first-retry-w-over-p", "Fig. 13",
          "W's first-retry commit share is above P's",
          *per_config("first_retry_share_{}", "PW"),
          lambda m: m["W"] > m["P"], SCALES),
    Claim("fig13.first-retry-majority", "Fig. 13",
          "more than half of the retried ARs commit on the first retry, "
          "under both C and W", *per_config("first_retry_share_{}", "CW"),
          lambda m: min(m.values()) > 0.5, SCALES),
    Claim("fig13.fallback-c-below-b", "Fig. 13",
          "C's fallback commit share is below B's",
          *per_config("fallback_share_{}", "BC"),
          lambda m: m["C"] < m["B"], SCALES),
    Claim("fig13.fallback-w-below-b", "Fig. 13",
          "W's fallback commit share is below B's",
          *per_config("fallback_share_{}", "BW"),
          lambda m: m["W"] < m["B"], SCALES),
    Claim("fig13.fallback-w-below-p", "Fig. 13",
          "W's fallback commit share is below P's",
          {"P": 0.274, "W": PAPER_HEADLINE["fallback_share_W"]},
          lambda data: {letter: data["fig13"]["average"][letter][2]
                        for letter in "PW"},
          lambda m: m["W"] < m["P"], SCALES),

    # -- Table 1, exact ----------------------------------------------------
    *(Claim("table1." + name, "Table 1",
            "{}: #ARs / immutable / likely immutable / mutable equal the "
            "paper's".format(name),
            paper, itemgetter(name), lambda m, paper=paper: m == paper,
            SCALES, over="table1", fmt=counts)
      for name, paper in PAPER_TABLE_1.items()),

    # -- ablations (no paper value; quick-scale settings) ------------------
    Claim("ablation.failed-mode-fewer-aborts", "§4.1, ablation 1",
          "summed over mwobject, arrayswap, queue, bitcoin, intruder and "
          "bst, aborts per commit with failed-mode discovery are below "
          "those of aborting at the first conflict", None,
          lambda ablations: {
              variant: sum(cells[variant].aborts_per_commit
                           for cells in ablations["failed_mode"].values())
              for variant in ("on", "off")},
          lambda m: m["on"] < m["off"], QUICK, over="ablations", fmt=num),
    Claim("ablation.failed-mode-wins-most", "§4.1, ablation 1",
          "failed-mode discovery lowers both aborts per commit and cycles "
          "on a majority of those six benchmarks", None,
          lambda ablations: {
              "wins": sum(
                  cells["on"].aborts_per_commit < cells["off"].aborts_per_commit
                  and cells["on"].cycles < cells["off"].cycles
                  for cells in ablations["failed_mode"].values()),
              "benchmarks": len(ablations["failed_mode"])},
          lambda m: 2 * m["wins"] > m["benchmarks"], QUICK, over="ablations",
          fmt=str),
    Claim("ablation.scl-writes-beat-all", "§4.4.2, ablation 2",
          "on each of bitcoin, queue, stack, deque and intruder, S-CL "
          "locking only the write set and the CRT's reads takes fewer "
          "cycles (and more than 0) than locking every accessed address",
          None,
          lambda ablations: {name: cells["writes"].cycles / cells["all"].cycles
                             for name, cells in ablations["scl_policy"].items()},
          lambda m: all(0.0 < ratio < 1.0 for ratio in m.values()), QUICK,
          over="ablations", fmt=num),
    Claim("ablation.crt-protects-write-heavy", "§5, ablation 3",
          "with the CRT on, write-heavy queue and deque take fewer cycles "
          "than with it off (on/off cycles below 1), and every CRT run of "
          "bitcoin, queue, deque and vacation-h takes more than 0", None,
          crt_on_over_off,
          lambda m: (m["queue"] < 1.0 and m["deque"] < 1.0
                     and all(ratio > 0.0 for ratio in m.values())), QUICK,
          over="ablations", fmt=num),
    Claim("ablation.crt-costs-read-heavy", "§5, ablation 3",
          "on read-heavy vacation-h the CRT costs cycles (on/off above 1), "
          "the case behind the read-only-region guard of DESIGN.md §6",
          None, crt_on_over_off, lambda m: m["vacation-h"] > 1.0, QUICK,
          over="ablations", fmt=num),
    Claim("ablation.retry-optima-differ", "§6, ablation 4",
          "B's best retry threshold among 1, 2, 4, 6, 8 and 10 is not the "
          "same for all 19 benchmarks, and every run takes more than 0 "
          "cycles", None,
          retry_optima,
          lambda m: len(m["optima"]) > 1 and m["least cycles"] > 0, QUICK,
          over="ablations", fmt=str),
    Claim("ablation.substrate-small-indifferent", "§4.1-4.2, ablation 5",
          "mwobject (small regions) takes exactly as many cycles with "
          "in-core SLE speculation (72-entry store queue) as with HTM", None,
          lambda ablations: {
              variant: ablations["substrate"]["mwobject"][variant].cycles
              for variant in ("htm", "sle")},
          lambda m: m["htm"] == m["sle"], QUICK, over="ablations", fmt=str),
    Claim("ablation.narrow-sq-overflows", "§4.1-4.2, ablation 5",
          "with a 20-entry store queue, SLE runs of labyrinth (wide "
          "regions) take SQ-overflow aborts and those of mwobject none",
          None,
          lambda ablations: {
              name: sq_overflows(ablations["substrate"][name]["sle_sq20"])
              for name in ("labyrinth", "mwobject")},
          lambda m: m["labyrinth"] > 0 and m["mwobject"] == 0, QUICK,
          over="ablations", fmt=str),
]


def measure_table1():
    """Table 1 as the characterizer measures it, in the rows' shape:
    {benchmark: (#ARs, immutable, likely immutable, mutable)}.

    Probe-based with fixed seeds, so every call gives the same counts.
    """
    rows = characterization_table(
        [(lambda name=name: make_workload(name, ops_per_thread=10))
         for name in PAPER_TABLE_1],
        samples_per_region=10, perturbations=20,
    )
    return {row["benchmark"]: (row["num_ars"], row["immutable"],
                               row["likely_immutable"], row["mutable"])
            for row in rows}


def evaluate(payload, scale, table1=None, ablations=None):
    """Each row's :class:`Outcome` on the data measured at ``scale``.

    ``payload`` is a figure payload (or None), ``table1`` the output of
    :func:`measure_table1` and ``ablations`` the ablation runs. A row
    is evaluated when ``scale`` is one of its scales and its source was
    given; the caller vouches that the data is that scale's full
    matrix. An error raised by a row's measure propagates.
    """
    sources = {"figures": payload, "table1": table1, "ablations": ablations}
    outcomes = []
    for claim in CLAIMS:
        data = sources[claim.over]
        if data is None or scale not in claim.scales:
            outcomes.append(Outcome(claim, NOT_EVALUATED))
            continue
        measured = claim.measure(data)
        if claim.holds(measured):
            status = UNEXPECTED if claim.deviation else HOLDS
        else:
            status = DEVIATES if claim.deviation else FAILS
        outcomes.append(Outcome(claim, status, measured))
    return outcomes
