"""Source lint: no truthiness reads of the oracle mode string.

``config.oracle`` is a mode *string* (``"off"``/``"online"``), so a
truthiness read (``if config.oracle:``) is a latent bug — every
non-empty mode string, including ``"off"``, is truthy. Behavioral code
must use the ``online_monitor`` property or compare against a mode
name; only ``sim/config.py``, which defines the field, is exempt.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Truthiness reads of the oracle mode string: ``config.oracle`` used
#: directly as a condition (always true — "off" is a non-empty string)
#: rather than compared to a mode name or routed through the
#: ``online_monitor`` property.
ORACLE_TRUTHINESS = re.compile(
    r"\b(?:if|elif|while|assert|not|and|or|return)\s+"
    r"(?:self\s*\.\s*)?config\s*\.\s*oracle\b"
    r"(?!\s*(?:==|!=|\bin\b|\bis\b|\bnot\b))"
)

#: Files allowed to read the field loosely: its definition.
EXEMPT = {"sim/config.py"}


def flag_reads():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in EXEMPT:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            code = line.split("#", 1)[0]
            if ORACLE_TRUTHINESS.search(code):
                hits.append("src/repro/{}:{}: {}".format(
                    relative, number, line.strip()
                ))
    return hits


def test_no_oracle_truthiness_reads():
    hits = flag_reads()
    assert not hits, (
        "truthiness reads of the oracle mode string found (use "
        "config.online_monitor or compare to a mode name):\n"
        + "\n".join(hits)
    )


def test_oracle_lint_actually_detects(tmp_path, monkeypatch):
    """The lint must not be vacuous: plant a read, see it flagged."""
    planted = tmp_path / "repro"
    (planted / "sim").mkdir(parents=True)
    (planted / "sim" / "config.py").write_text("if config.oracle:\n    pass\n")
    (planted / "victim.py").write_text(
        "# if config.oracle: in a comment is fine\n"
        "armed = config.oracle == 'online'  # comparisons are fine\n"
        "mode = self.config.oracle\n"  # plain read is fine
        "if config.online_monitor:\n    pass\n"  # property is fine
        "if not config.oracle:\n"
        "    pass\n"
    )
    import sys

    lint = sys.modules[__name__]
    monkeypatch.setattr(lint, "SRC", planted)
    hits = flag_reads()
    assert len(hits) == 1
    assert "victim.py:6" in hits[0]
