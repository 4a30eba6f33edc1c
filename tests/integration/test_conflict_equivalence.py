"""The micro experiment matrix reproduces the committed golden.

``tests/goldens/figures_micro.json`` was generated before the sharer
index replaced the O(num_cores) peer scan, and every hot-path change
since (the index, the executor's one body step) has kept the figure
payload of the full micro matrix (all 19 benchmarks x B/P/C/W) equal
to it byte for byte. The index itself is checked against a
from-scratch rebuild by ``validate_machine`` and against the peer-scan
arbiter by ``tests/unit/test_sharer_index.py``.
"""

import json
import os

import pytest

pytestmark = pytest.mark.slow

from repro.analysis.experiments import ExperimentSettings, figure_payload, run_config_matrix

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "goldens", "figures_micro.json"
)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


class TestConflictEquivalence:
    def test_micro_matrix_matches_golden(self, golden):
        matrix = run_config_matrix(ExperimentSettings.micro())
        # Round-trip through JSON so tuples/sets collapse exactly as they
        # do in the stored golden.
        assert json.loads(json.dumps(figure_payload(matrix))) == golden
