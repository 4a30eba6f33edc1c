"""The paper's four HTM designs as one table.

The paper evaluates four configurations (B/P/C/W in Figs. 8-13). Each
is a row of :data:`DESIGN_REGISTRY`: its figure letter and the two
mechanisms it layers on requester-wins TSX, PowerTM's power token
(``powertm``) and CLEAR's discovery with NS-CL/S-CL retries
(``clear``). :class:`~repro.sim.config.SimConfig` validates its
``design`` field against the table, and the machine reads the row's
two flags where each rule applies (DESIGN.md §12).
"""

from collections import namedtuple

#: One design: its paper letter and the mechanisms it enables.
Design = namedtuple("Design", ("letter", "powertm", "clear"))

#: name -> :class:`Design` row for each of the paper's four designs.
DESIGN_REGISTRY = {
    "baseline": Design("B", powertm=False, clear=False),
    "powertm": Design("P", powertm=True, clear=False),
    "clear": Design("C", powertm=False, clear=True),
    "clear+powertm": Design("W", powertm=True, clear=True),
}

#: The paper's single-letter names for the four designs.
LEGACY_LETTER_DESIGNS = {
    row.letter: name for name, row in DESIGN_REGISTRY.items()
}


def design_name(spec):
    """Canonical design name for a name or a paper figure letter.

    For internal call sites that key results by the paper's B/P/C/W
    labels; user-facing surfaces (``SimConfig``, ``repro.api``) take
    design names only.
    """
    return LEGACY_LETTER_DESIGNS.get(spec, spec)


__all__ = [
    "Design",
    "DESIGN_REGISTRY",
    "LEGACY_LETTER_DESIGNS",
    "design_name",
]
