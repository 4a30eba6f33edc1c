#!/usr/bin/env python3
"""Render EXPERIMENTS.md from the JSON written by run_experiments.py.

The document records, for every table and figure of the paper, this
reproduction's measurements next to the paper's claims. Every paper
number and every sentence saying whether a claim holds comes from the
claims table, ``repro.analysis.claims``, evaluated here:

    python scripts/run_experiments.py sweep .exp_results.json
    python scripts/render_experiments.py .exp_results.json EXPERIMENTS.md

The claims are evaluated only when the payload is the full matrix of a
named scale (micro, quick or sweep): that scale's cores, seeds and
benchmarks, with no failed cells and no chaos. Any other payload
renders with every claim shown as not evaluated. Exit status 1 when a
claim fails or a known deviation holds; the document is written either
way.
"""

import json
import sys

from repro.analysis import claims
from repro.analysis.experiments import settings_for

LETTERS = ("B", "P", "C", "W")

BENCH_ORDER = [
    "arrayswap", "bitcoin", "bst", "deque", "hashmap", "mwobject",
    "queue", "stack", "sorted-list", "bayes", "genome", "intruder",
    "kmeans-h", "kmeans-l", "labyrinth", "ssca2", "vacation-h",
    "vacation-l", "yada",
]


def table(headers, rows):
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return "\n".join(out)


def fmt(value, digits=2):
    return "{:.{}f}".format(value, digits)


def pct(value):
    return "{:.1%}".format(value)


def full_scale(data):
    """The named scale whose full matrix ``data`` is, else None."""
    scale = data.get("scale")
    if scale not in claims.SCALES or "failures" in data or "chaos" in data:
        return None
    settings = settings_for(scale)
    measured = set(data["fig1"]) - {"average"}
    if (data["num_cores"], tuple(data["seeds"]), measured) != (
            settings.num_cores, settings.seeds, set(settings.benchmarks)):
        return None
    return scale


def status(outcome, scale):
    if outcome.status != claims.NOT_EVALUATED:
        return outcome.status
    if scale is None:
        return "not evaluated"
    return "not evaluated at {}; checked at {}".format(
        scale, ", ".join(outcome.claim.scales))


def values(outcome):
    """The paper's and the measured value of a row, as text."""
    claim = outcome.claim
    parts = []
    if claim.paper is not None:
        parts.append("paper " + claims.show(claim.paper, claim.fmt))
    if outcome.measured is not None:
        parts.append("measured " + claims.show(outcome.measured, claim.fmt))
    return "; ".join(parts)


def claim_lines(outcomes, scale):
    lines = []
    for outcome in outcomes:
        detail = values(outcome)
        lines.append("- **{}**: {} (`{}`{})".format(
            status(outcome, scale), outcome.claim.text, outcome.claim.id,
            "; " + detail if detail else ""))
    return "\n".join(lines) + "\n"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    src = argv[0] if argv else ".exp_results.json"
    dst = argv[1] if len(argv) > 1 else "EXPERIMENTS.md"
    with open(src) as handle:
        data = json.load(handle)
    scale = full_scale(data)
    table1 = claims.measure_table1() if scale is not None else None
    outcomes = claims.evaluate(data, scale, table1=table1)
    by_source = {}
    for outcome in outcomes:
        by_source.setdefault(outcome.claim.source, []).append(outcome)
    parts = []
    add = parts.append

    add("# EXPERIMENTS — paper vs. this reproduction\n")
    sweep_note = (
        "a per-application best-of retry-threshold sweep (the paper's "
        "methodology, reduced seed count)"
        if data["scale"] in ("sweep", "paper")
        else "a fixed retry threshold of 5 (run the `sweep` or `paper` "
        "scale for the paper's best-of selection)"
    )
    add(
        "Measured with `scripts/run_experiments.py {scale}`: {cores} cores, "
        "seeds {seeds}, {sweep_note}. "
        "Absolute cycles cannot match gem5; every comparison below is "
        "about *shape*: who wins, roughly by how much, and where the "
        "crossovers fall. Run wall-clock: {secs:.0f}s.\n".format(
            scale=data["scale"], cores=data["num_cores"],
            seeds=data["seeds"], sweep_note=sweep_note,
            secs=data["elapsed_seconds"],
        )
    )
    add(
        "Every claim below is a row of `repro.analysis.claims`: the "
        "paper's value, the measured value, and a predicate that says "
        "whether the claim holds, at the scales where it must. {} This "
        "file is rendered from those rows by "
        "`scripts/render_experiments.py`, which fails when a claim "
        "fails or a known deviation stops deviating.\n".format(
            "This payload is the full `{}` matrix, so its rows are "
            "evaluated here; rows of the other scales are checked by the "
            "test suite (`tests/README.md`).".format(scale)
            if scale is not None else
            "This payload is not the full matrix of a named scale (micro, "
            "quick or sweep), so no claim is evaluated."
        )
    )
    deviations = [outcome for outcome in outcomes
                  if outcome.status == claims.DEVIATES]
    if deviations:
        lines = []
        for outcome in deviations:
            line = "- {} (`{}`): {}".format(
                outcome.claim.text, outcome.claim.id, values(outcome))
            if not isinstance(outcome.measured, dict):
                line += ", {:.2f}x the paper's".format(
                    outcome.measured / outcome.claim.paper)
            lines.append(line)
        add("**Known deviations** at this scale, rows that must fail "
            "here: this substrate runs hotter than the paper's gem5 "
            "machine (synthetic kernels with short think times; see "
            "DESIGN.md §6-7 for the modeling notes).\n\n"
            + "\n".join(lines) + "\n")

    add("## Headline claims (abstract / §7)\n")
    rows = [
        (outcome.claim.text,
         claims.show(outcome.claim.paper, outcome.claim.fmt),
         "-" if outcome.measured is None
         else claims.show(outcome.measured, outcome.claim.fmt),
         status(outcome, scale))
        for outcome in by_source["Abstract, §7"]
    ]
    add(table(["Claim", "Paper", "Measured", "Check"], rows))
    add("")

    add("## Fig. 1 — retried ARs with small, unchanged footprints\n")
    fig1 = data["fig1"]
    add("Ratio of the ARs that abort whose footprint is under 32 "
        "cachelines and identical on the first retry, measured on the "
        "baseline (B) runs by replay-based comparison. Measured average: "
        "**{}**.\n".format(pct(fig1["average"])))
    rows = [
        (name, pct(fig1[name])) for name in BENCH_ORDER if name in fig1
    ]
    add(table(["Benchmark", "measured ratio"], rows))
    add("")
    add(claim_lines(by_source["Fig. 1"], scale))

    add("## Table 1 — AR characterization\n")
    table1_outcomes = by_source["Table 1"]
    if table1 is None:
        add("Not evaluated: the characterizer runs only when the payload "
            "is the full matrix of a named scale.\n")
    else:
        mismatched = [outcome for outcome in table1_outcomes
                      if outcome.status != claims.HOLDS]
        add("Measured by the characterizer (probe-based, seeds fixed): "
            "**{}/{} rows match the paper exactly**, every benchmark's AR "
            "count and its immutable / likely-immutable / mutable split "
            "(rows `table1.<benchmark>`).\n".format(
                len(table1_outcomes) - len(mismatched), len(table1_outcomes)))
        if mismatched:
            add(claim_lines(mismatched, scale))

    add("## Fig. 8 — normalized execution time\n")
    times = data["fig8_times"]
    disc = data["fig8_discovery"]
    rows = []
    for name in BENCH_ORDER + ["geomean"]:
        if name not in times:
            continue
        per = times[name]
        extra = ""
        if name in disc:
            extra = pct(disc[name].get("C", 0.0))
        rows.append((name,) + tuple(fmt(per[letter]) for letter in LETTERS) + (extra,))
    add(table(["Benchmark", "B", "P", "C", "W", "discovery(C)"], rows))
    add("")
    add(claim_lines(by_source["Fig. 8"], scale))

    add("## Fig. 9 — aborts per committed transaction\n")
    fig9 = data["fig9"]
    rows = [
        (name,) + tuple(fmt(fig9[name][letter]) for letter in LETTERS)
        for name in BENCH_ORDER + ["average"] if name in fig9
    ]
    add(table(["Benchmark", "B", "P", "C", "W"], rows))
    add("")
    add(claim_lines(by_source["Fig. 9"], scale))

    add("## Fig. 10 — normalized energy\n")
    fig10 = data["fig10"]
    rows = [
        (name,) + tuple(fmt(fig10[name][letter]) for letter in LETTERS)
        for name in BENCH_ORDER + ["geomean"] if name in fig10
    ]
    add(table(["Benchmark", "B", "P", "C", "W"], rows))
    add("")
    add(claim_lines(by_source["Fig. 10"], scale))

    add("## Fig. 11 — abort breakdown per type\n")
    fig11 = data["fig11"]
    rows = []
    for name in BENCH_ORDER:
        if name not in fig11:
            continue
        for letter in LETTERS:
            shares = fig11[name][letter]
            rows.append((
                name if letter == "B" else "", letter,
                pct(shares.get("Memory Conflict", 0.0)),
                pct(shares.get("Explicit Fallback", 0.0)),
                pct(shares.get("Other Fallback", 0.0)),
                pct(shares.get("Others", 0.0)),
            ))
    add(table(["Benchmark", "cfg", "MemConflict", "ExplFallback",
               "OtherFallback", "Others"], rows))
    add("")
    add(claim_lines(by_source["Fig. 11"], scale))

    add("## Fig. 12 — commit breakdown per execution mode\n")
    fig12 = data["fig12"]
    rows = []
    for name in BENCH_ORDER:
        if name not in fig12:
            continue
        for letter in ("C", "W"):
            shares = fig12[name][letter]
            rows.append((
                name if letter == "C" else "", letter,
                pct(shares.get("speculative", 0.0)),
                pct(shares.get("s_cl", 0.0)),
                pct(shares.get("ns_cl", 0.0)),
                pct(shares.get("fallback", 0.0)),
            ))
    add(table(["Benchmark", "cfg", "speculative", "S-CL", "NS-CL",
               "fallback"], rows))
    add("")
    add(claim_lines(by_source["Fig. 12"], scale))

    add("## Fig. 13 — commit breakdown per number of retries\n")
    fig13 = data["fig13"]
    rows = []
    for name in BENCH_ORDER + ["average"]:
        if name not in fig13:
            continue
        for letter in LETTERS:
            first, n_retry, fallback = fig13[name][letter]
            rows.append((
                name if letter == "B" else "", letter,
                pct(first), pct(n_retry), pct(fallback),
            ))
    add(table(["Benchmark", "cfg", "1 retry", "n retries", "fallback"], rows))
    add("")
    add(claim_lines(by_source["Fig. 13"], scale))

    add("## Ablations (no paper counterpart)\n")
    add("Each ablation isolates one mechanism the paper argues for. "
        "`tests/integration/test_claims.py` runs them at the quick "
        "scale's settings and checks these rows; this payload does not "
        "hold their data.\n")
    add(claim_lines([outcome for outcome in outcomes
                     if outcome.claim.over == "ablations"], scale))

    add("## Verdict\n")
    broken = [outcome for outcome in outcomes if outcome.broken]
    evaluated = [outcome for outcome in outcomes
                 if outcome.status != claims.NOT_EVALUATED]
    if scale is None:
        add("No claim is evaluated: this payload is not the full matrix "
            "of a named scale.")
    else:
        held = sum(outcome.status == claims.HOLDS for outcome in evaluated)
        add("At `{}` scale, {} of the {} claims evaluated here hold and "
            "{} fail as known deviations ({}). The other {} rows belong to "
            "other scales or to the ablation runs, and the test suite "
            "checks them.".format(
                scale, held, len(evaluated), len(deviations),
                ", ".join("`{}`".format(outcome.claim.id)
                          for outcome in deviations) or "none",
                len(outcomes) - len(evaluated)))
    if broken:
        add(" **Broken:** {}.".format(", ".join(
            "`{}` {}".format(outcome.claim.id, outcome.status)
            for outcome in broken)))
    add("")

    with open(dst, "w") as handle:
        handle.write("\n".join(parts))
    print("wrote", dst)
    for outcome in broken:
        print("claim {} {}: {} ({})".format(
            outcome.claim.id, outcome.status, outcome.claim.text,
            values(outcome)), file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
