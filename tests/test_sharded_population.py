"""Process-sharded population stepping: the multi-core plane must never
change the science.

Contracts, all at CLI or public-API level:

* ``--shards K`` is bit-identical, member by member, to ``--shards 1``
  (which is byte-for-byte the single-process lockstep) and, through the
  existing population contract, to the sequential solo runs;
* a checkpoint taken under ``--shards K`` resumes bit-identically at any
  other shard count;
* SIGTERM mid-round checkpoints at a clean step boundary and leaves no
  ``/dev/shm`` segment behind;
* a SIGKILLed worker surfaces as :class:`ShardCrash`, never a hang, and
  still leaves ``/dev/shm`` clean.
"""

from __future__ import annotations

import os
import shutil
import signal

import pytest

from repro.cli import main
from repro.core.persistence import (
    load_checkpoint,
    load_population_checkpoint,
)
from repro.core.population import population_seed_plan
from repro.core.result import sessions_equal
from repro.parallel.sharding import ShardCrash, ShardedPopulation
from repro.parallel.shm import active_segments

N = 4
SEED = 42
STEPS = 3


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("model") / "m.npz")
    assert main(
        ["train", "--workload", "WC", "--iterations", "80",
         "--model", path]
    ) == 0
    return path


def _tune(model, ckpt, *, shards, steps=STEPS, extra=()):
    return main(
        ["tune", "--workload", "WC", "--model", model,
         "--population", str(N), "--seed", str(SEED),
         "--steps", str(steps), "--fault-profile", "hostile",
         "--checkpoint", ckpt, "--shards", str(shards), *extra]
    )


@pytest.fixture(scope="module")
def unsharded_ckpt(model, tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("seq") / "pop.ckpt")
    assert _tune(model, ckpt, shards=1) == 0
    return ckpt


@pytest.fixture(scope="module")
def sharded_ckpt(model, tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("shard") / "pop.ckpt")
    assert _tune(model, ckpt, shards=2) == 0
    assert active_segments() == [], "sharded run leaked /dev/shm segments"
    return ckpt


@pytest.mark.determinism
def test_sharded_matches_unsharded(sharded_ckpt, unsharded_ckpt):
    sharded = load_population_checkpoint(sharded_ckpt)
    unsharded = load_population_checkpoint(unsharded_ckpt)
    assert sharded.next_steps == unsharded.next_steps == [STEPS] * N
    for i, (a, b) in enumerate(zip(sharded.sessions, unsharded.sessions)):
        assert sessions_equal(a, b), f"member {i} diverged under --shards 2"


@pytest.mark.determinism
def test_uneven_shards_match(model, tmp_path, unsharded_ckpt):
    """3 shards over 4 members (sizes 2/1/1) — the remainder path."""
    ckpt = str(tmp_path / "pop3.ckpt")
    assert _tune(model, ckpt, shards=3) == 0
    sharded = load_population_checkpoint(ckpt)
    unsharded = load_population_checkpoint(unsharded_ckpt)
    for a, b in zip(sharded.sessions, unsharded.sessions):
        assert sessions_equal(a, b)
    assert active_segments() == []


@pytest.mark.determinism
def test_sharded_member_matches_solo_cli(model, tmp_path, sharded_ckpt):
    """Chain to the sequential contract: sharded member 0 == the solo
    run with member 0's derived seed."""
    seed = population_seed_plan(SEED, N)[0]
    solo_ckpt = str(tmp_path / "solo.ckpt")
    assert main(
        ["tune", "--workload", "WC", "--model", model,
         "--seed", str(seed), "--steps", str(STEPS),
         "--fault-profile", "hostile", "--checkpoint", solo_ckpt]
    ) == 0
    solo = load_checkpoint(solo_ckpt)
    sharded = load_population_checkpoint(sharded_ckpt)
    assert sessions_equal(sharded.sessions[0], solo.session)


@pytest.mark.determinism
def test_sigterm_then_resume_at_any_shard_count(
    model, tmp_path, monkeypatch, capsys
):
    """SIGTERM between rounds freezes a clean boundary; the checkpoint
    resumes bit-identically whether finished sharded or unsharded."""
    full_ckpt = str(tmp_path / "full.ckpt")
    assert _tune(model, full_ckpt, shards=1, steps=4) == 0
    full = load_population_checkpoint(full_ckpt)

    calls = {"n": 0}
    original = ShardedPopulation._emit_round

    def dying_emit(self, step, replies, round_wall):
        calls["n"] += 1
        if calls["n"] == 2:  # both lockstep rounds 1 and 2 are complete
            os.kill(os.getpid(), signal.SIGTERM)
        return original(self, step, replies, round_wall)

    monkeypatch.setattr(ShardedPopulation, "_emit_round", dying_emit)
    ckpt = str(tmp_path / "killed.ckpt")
    rc = _tune(model, ckpt, shards=2, steps=4)
    monkeypatch.setattr(ShardedPopulation, "_emit_round", original)
    assert rc == 130
    assert "checkpointed" in capsys.readouterr().out
    assert active_segments() == [], "interrupted run leaked /dev/shm"
    killed = load_population_checkpoint(ckpt)
    assert killed.next_steps == [2] * N

    ckpt_seq = str(tmp_path / "killed-seq.ckpt")
    shutil.copy(ckpt, ckpt_seq)

    # finish sharded
    assert main(
        ["tune", "--resume", ckpt, "--steps", "4", "--shards", "2"]
    ) == 0
    resumed = load_population_checkpoint(ckpt)
    assert resumed.next_steps == [4] * N
    for a, b in zip(resumed.sessions, full.sessions):
        assert sessions_equal(a, b)

    # finish the same snapshot unsharded
    assert main(["tune", "--resume", ckpt_seq, "--steps", "4"]) == 0
    resumed_seq = load_population_checkpoint(ckpt_seq)
    for a, b in zip(resumed_seq.sessions, full.sessions):
        assert sessions_equal(a, b)
    assert active_segments() == []


def _members(n):
    from repro.core.deepcat import DeepCAT
    from repro.factory import make_env

    tuners, envs = [], []
    for s in range(n):
        env = make_env("TS", "D2", seed=1000 + s)
        tuners.append(DeepCAT.from_env(env, seed=s, buffer_capacity=512))
        envs.append(env)
    return tuners, envs


def test_worker_sigkill_raises_shard_crash(monkeypatch):
    """A SIGKILLed worker must surface as ShardCrash on the next round,
    and the teardown still unlinks every segment."""
    calls = {"n": 0}
    original = ShardedPopulation._emit_round

    def killing_emit(self, step, replies, round_wall):
        calls["n"] += 1
        if calls["n"] == 1:
            self._shards[0].process.kill()
            self._shards[0].process.join(timeout=10.0)
        return original(self, step, replies, round_wall)

    monkeypatch.setattr(ShardedPopulation, "_emit_round", killing_emit)
    tuners, envs = _members(2)
    population = ShardedPopulation(
        tuners, envs, shards=2, fine_tune_updates=1
    )
    with pytest.raises(ShardCrash, match="shard 0"):
        population.tune(steps=STEPS)
    assert active_segments() == [], "crashed run leaked /dev/shm"


def test_population_reuse_rejected():
    tuners, envs = _members(2)
    population = ShardedPopulation(
        tuners, envs, shards=2, fine_tune_updates=1
    )
    population.tune(steps=1)
    with pytest.raises(RuntimeError, match="already ran"):
        population.tune(steps=1)


def test_cli_rejects_bad_shards(model, capsys):
    assert main(
        ["tune", "--workload", "WC", "--model", model,
         "--population", str(N), "--shards", "0"]
    ) == 2
    assert "--shards" in capsys.readouterr().err


def test_heartbeat_reports_round_time(model, tmp_path):
    """Sharded runs stamp the slowest shard's round time so staleness
    detection keys off rounds, not the N-times-faster step burst."""
    from repro.telemetry.heartbeat import default_stale_after, read_heartbeat

    hb = str(tmp_path / "hb.json")
    ckpt = str(tmp_path / "hb.ckpt")
    assert _tune(model, ckpt, shards=2, extra=("--heartbeat", hb)) == 0
    doc = read_heartbeat(hb)
    assert doc.get("round_s") is not None
    assert doc["round_s"] > 0.0
    assert default_stale_after(doc) >= max(3.0 * doc["round_s"], 10.0)
