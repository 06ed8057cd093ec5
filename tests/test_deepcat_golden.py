"""Golden-file test pinning a seeded DeepCAT offline-training run.

``tests/golden/deepcat_trace.json`` freezes the critic losses of a short
TD3 + RDPER offline run and a SHA-256 over the agent's whole learned
state: every online and target network's parameters, both Adam moments
of every optimizer and their step counts.  Any change to the TD3 update,
the optimizer or the Polyak averaging that moves a single bit fails here
until the file is regenerated (``tests/golden/regen.py``) and
``CACHE_VERSION`` reviewed.
"""

import json

import pytest

from tests.golden.regen import DEEPCAT_TRACE_PATH, compute_deepcat_trace

pytestmark = pytest.mark.golden


def test_deepcat_trace_matches_golden():
    golden = json.loads(DEEPCAT_TRACE_PATH.read_text())
    assert golden["critic_losses"], "golden run made no updates"
    live = json.loads(json.dumps(compute_deepcat_trace()))
    assert live == golden, (
        "DeepCAT offline trace drifted; if intentional, regenerate "
        "tests/golden/deepcat_trace.json via tests/golden/regen.py "
        "and review repro.experiments.engine.CACHE_VERSION"
    )
