"""Golden-file test pinning OtterTune on the quick comparison grid.

``tests/golden/ottertune_trace.json`` freezes, for each quick pair at
seed 0, the digest of every repository workload's (X, M, y) after
``train_ottertune`` and each online step's Lasso knob order, action,
configuration and duration.  Any change to offline collection, the
Lasso path, the GP, EI or workload mapping fails here until the file is
regenerated (``tests/golden/regen.py``) and ``CACHE_VERSION`` reviewed.
"""

import json

import pytest

from tests.golden.regen import OTTERTUNE_TRACE_PATH, compute_ottertune_trace

pytestmark = pytest.mark.golden


def test_ottertune_trace_matches_golden():
    golden = json.loads(OTTERTUNE_TRACE_PATH.read_text())
    assert all(len(pair["steps"]) == 5 for pair in golden.values())
    live = json.loads(json.dumps(compute_ottertune_trace()))
    assert live == golden, (
        "OtterTune quick-grid trace drifted; if intentional, regenerate "
        "tests/golden/ottertune_trace.json via tests/golden/regen.py "
        "and review repro.experiments.engine.CACHE_VERSION"
    )
