"""Golden-file test pinning a seeded CDBTune offline-training run.

``tests/golden/cdbtune_trace.json`` freezes the critic losses and the
final PER sum-tree bytes of a short CDBTune offline run.  Any change to
the prioritized replay (the sampling descent, the IS weights, the
priority repair order) or to the DDPG update it drives fails here until
the file is regenerated (``tests/golden/regen.py``) and
``CACHE_VERSION`` reviewed.
"""

import json

import pytest

from tests.golden.regen import CDBTUNE_TRACE_PATH, compute_cdbtune_trace

pytestmark = pytest.mark.golden


def test_cdbtune_trace_matches_golden():
    golden = json.loads(CDBTUNE_TRACE_PATH.read_text())
    assert golden["critic_losses"], "golden run made no updates"
    live = json.loads(json.dumps(compute_cdbtune_trace()))
    assert live == golden, (
        "CDBTune offline trace drifted; if intentional, regenerate "
        "tests/golden/cdbtune_trace.json via tests/golden/regen.py "
        "and review repro.experiments.engine.CACHE_VERSION"
    )
