"""Per-region forensic report: every AR's life story in plain text.

Folds the flat event stream back into per-invocation records — one
record per committed AR, carrying each attempt's mode, outcome, and
(for conflicts) the precise cause — and renders lines like::

    AR 17 on core 3: 1 speculative abort (WRITE conflict on line
    0x4a80 with core 9, cycle 12402) -> NS-CL commit at 12873

The record form (:func:`region_records`) is what tests assert against;
:func:`forensic_report` is the human rendering.
"""

from repro.core.modes import ExecMode
from repro.htm.abort import INJECTED_REASONS, AbortReason

_MODE_LABELS = {
    ExecMode.SPECULATIVE: "speculative",
    ExecMode.FAILED_DISCOVERY: "failed-discovery",
    ExecMode.NS_CL: "NS-CL",
    ExecMode.S_CL: "S-CL",
    ExecMode.FALLBACK: "fallback",
    None: "pre-begin",
}


def _region_label(region):
    if isinstance(region, (tuple, list)):
        return ":".join(str(part) for part in region)
    return str(region)


def region_records(trace):
    """Fold a trace into per-invocation records, commit order per core.

    Each record: ``{"core", "region", "attempts", "commit_cycle",
    "commit_mode", "retries"}``; each attempt: ``{"mode", "begin_cycle",
    "end_cycle", "outcome", "reason", "line", "enemy", "enemy_write"}``.
    An uncommitted invocation still in flight when the trace ends is
    dropped (its story has no ending to report).
    """
    records = []
    open_records = {}  # core -> record under construction

    def attempt_for(record, event, mode):
        attempts = record["attempts"]
        if attempts and attempts[-1]["outcome"] is None:
            return attempts[-1]
        attempt = {
            "mode": mode, "begin_cycle": event.cycle, "end_cycle": None,
            "outcome": None, "reason": None, "line": None, "enemy": None,
            "enemy_write": None,
        }
        attempts.append(attempt)
        return attempt

    def record_for(event):
        record = open_records.get(event.core)
        if record is None:
            record = open_records[event.core] = {
                "core": event.core, "region": event.region, "attempts": [],
                "commit_cycle": None, "commit_mode": None, "retries": None,
            }
        return record

    for event in trace:
        kind = event.kind
        if kind == "ar_begin":
            record = record_for(event)
            attempt_for(record, event, event.mode)
        elif kind == "ar_abort":
            record = record_for(event)
            attempt = attempt_for(record, event, event.mode)
            attempt["end_cycle"] = event.cycle
            attempt["outcome"] = "abort"
            attempt["reason"] = event.reason
            attempt["line"] = event.line
            attempt["enemy"] = event.enemy
            attempt["enemy_write"] = event.enemy_write
        elif kind == "ar_commit":
            record = open_records.pop(event.core, None)
            if record is None:
                record = {
                    "core": event.core, "region": event.region,
                    "attempts": [], "commit_cycle": None,
                    "commit_mode": None, "retries": None,
                }
            if record["attempts"] and record["attempts"][-1]["outcome"] is None:
                last = record["attempts"][-1]
                last["end_cycle"] = event.cycle
                last["outcome"] = "commit"
            record["region"] = event.region
            record["commit_cycle"] = event.cycle
            record["commit_mode"] = event.mode
            record["retries"] = event.retries
            records.append(record)
    return records


def describe_abort(attempt):
    """One attempt's abort cause as forensic prose."""
    reason = attempt["reason"]
    cycle = attempt["end_cycle"]
    line = attempt["line"]
    enemy = attempt["enemy"]
    if line is not None and enemy is not None:
        access = "WRITE" if attempt["enemy_write"] else "READ"
        if reason is AbortReason.NACKED:
            return "NACKed on line 0x{:x} by core {}, cycle {}".format(
                line, enemy, cycle
            )
        return "{} conflict on line 0x{:x} with core {}, cycle {}".format(
            access, line, enemy, cycle
        )
    if reason in INJECTED_REASONS:
        return "injected {}, cycle {}".format(reason.value, cycle)
    return "{}, cycle {}".format(reason.value, cycle)


def _describe_record(record):
    aborts = [
        attempt for attempt in record["attempts"]
        if attempt["outcome"] == "abort"
    ]
    head = "AR {} on core {}: ".format(
        _region_label(record["region"]), record["core"]
    )
    if not aborts:
        body = "no aborts"
    else:
        parts = []
        for attempt in aborts:
            parts.append("1 {} abort ({})".format(
                _MODE_LABELS.get(attempt["mode"], "?"),
                describe_abort(attempt),
            ))
        body = ", ".join(parts)
    tail = " -> {} commit at {}".format(
        _MODE_LABELS.get(record["commit_mode"], "?"), record["commit_cycle"]
    )
    return head + body + tail


def forensic_report(trace, max_regions=None):
    """The per-region report as one printable string.

    Records appear in commit order; ``max_regions`` truncates long runs
    (with an explicit truncation line, so a cut report cannot be
    mistaken for a complete one).
    """
    records = region_records(trace)
    shown = records if max_regions is None else records[:max_regions]
    lines = [_describe_record(record) for record in shown]
    aborted = sum(
        1 for record in records
        if any(a["outcome"] == "abort" for a in record["attempts"])
    )
    lines.append("")
    lines.append(
        "{} committed region(s), {} with at least one abort; trace held "
        "{} of {} emitted event(s) ({} dropped)".format(
            len(records), aborted, len(trace), trace.emitted, trace.dropped
        )
    )
    if max_regions is not None and len(records) > max_regions:
        lines.append("(report truncated to the first {} regions)".format(
            max_regions
        ))
    return "\n".join(lines)


def write_forensic_report(trace, path, max_regions=None):
    """Render :func:`forensic_report` to ``path``."""
    text = forensic_report(trace, max_regions=max_regions)
    with open(path, "w") as handle:
        handle.write(text)
        handle.write("\n")
    return text
