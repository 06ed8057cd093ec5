"""Tests for the offline trainer, online tuner and DeepCAT orchestrator."""

import numpy as np
import pytest

from repro.agents.base import AgentHyperParams
from repro.core.deepcat import DeepCAT
from repro.core.offline import OfflineTrainer
from repro.core.online import OnlineTuner
from repro.factory import make_env
from repro.replay.rdper import RewardDrivenReplayBuffer
from repro.replay.uniform import UniformReplayBuffer

FAST_HP = AgentHyperParams(batch_size=16, warmup_steps=8, hidden=(16, 16))


def fast_deepcat(env, seed=0, **kw):
    return DeepCAT.from_env(env, seed=seed, hp=FAST_HP, **kw)


class TestOfflineTrainer:
    def test_log_lengths(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        log = tuner.train_offline(env, iterations=30)
        assert log.iterations == 30
        assert len(log.min_q) == 30
        assert len(log.durations) == 30

    def test_best_tracked(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        log = tuner.train_offline(env, iterations=30)
        # the best is a real successful duration, never the YARN fast-fail
        assert 0 < log.best_duration_s < float("inf")
        assert log.best_duration_s in log.durations
        assert log.best_action is not None

    def test_buffer_fills(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        tuner.train_offline(env, iterations=25)
        assert len(tuner.buffer) == 25

    def test_updates_happen_after_warmup(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        log = tuner.train_offline(env, iterations=30)
        assert len(log.critic_losses) > 0

    def test_callback_invoked(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        seen = []
        tuner.train_offline(
            env, iterations=5, callback=lambda i, log: seen.append(i)
        )
        assert seen == [0, 1, 2, 3, 4]

    def test_invalid_iterations(self):
        env = make_env("TS", "D1", seed=0)
        with pytest.raises(ValueError):
            fast_deepcat(env).train_offline(env, iterations=0)

    def test_updates_per_step_validation(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env)
        with pytest.raises(ValueError):
            OfflineTrainer(tuner.agent, tuner.buffer, updates_per_step=-1)

    def test_log_deepcopy_is_independent(self):
        import copy

        env = make_env("TS", "D1", seed=0)
        log = fast_deepcat(env).train_offline(env, iterations=30)
        clone = copy.deepcopy(log)
        for name in ("rewards", "min_q", "durations", "critic_losses"):
            assert getattr(clone, name) == getattr(log, name)
            assert getattr(clone, name) is not getattr(log, name)
        assert clone.best_duration_s == log.best_duration_s
        np.testing.assert_array_equal(clone.best_action, log.best_action)
        assert clone.best_action is not log.best_action
        clone.rewards.append(0.0)
        clone.best_action[0] = -1.0
        assert log.iterations == 30
        assert log.best_action[0] != -1.0


class TestOnlineTuner:
    def make_trained(self, seed=0, **kw):
        env = make_env("TS", "D1", seed=seed)
        tuner = fast_deepcat(env, seed=seed, **kw)
        tuner.train_offline(env, iterations=120)
        return tuner

    def test_session_shape(self):
        tuner = self.make_trained()
        env = make_env("TS", "D1", seed=99)
        s = tuner.tune_online(env, steps=5)
        assert s.n_steps == 5
        assert s.tuner == "DeepCAT"
        assert s.workload == "TS" and s.dataset == "D1"
        assert s.default_duration_s > 0

    def test_twinq_diagnostics_recorded(self):
        tuner = self.make_trained()
        s = tuner.tune_online(make_env("TS", "D1", seed=99), steps=3)
        for step in s.steps:
            assert step.twinq_iterations is not None
            assert step.final_q is not None

    def test_no_twinq_diagnostics_when_disabled(self):
        tuner = self.make_trained(use_twin_q=False)
        s = tuner.tune_online(make_env("TS", "D1", seed=99), steps=2)
        assert s.tuner == "DeepCAT-noTwinQ"
        assert all(st.twinq_iterations is None for st in s.steps)

    def test_time_budget_stops_early(self):
        tuner = self.make_trained()
        env = make_env("TS", "D1", seed=99)
        s = tuner.tune_online(env, steps=50, time_budget_s=100.0)
        assert s.n_steps < 50
        # stopped at the first step crossing the budget
        assert s.accumulated_cost()[-2] < 100.0 if s.n_steps > 1 else True

    def test_recommendation_time_recorded(self):
        tuner = self.make_trained()
        s = tuner.tune_online(make_env("TS", "D1", seed=99), steps=2)
        assert all(st.recommendation_s >= 0 for st in s.steps)
        assert s.recommendation_seconds < 5.0  # DRL recs are sub-second

    def test_invalid_steps(self):
        tuner = self.make_trained()
        with pytest.raises(ValueError):
            tuner.tune_online(make_env("TS", "D1", seed=9), steps=0)

    def test_fine_tune_updates_validation(self):
        tuner = self.make_trained()
        with pytest.raises(ValueError):
            OnlineTuner(
                tuner.agent, tuner.buffer, "x", fine_tune_updates=-1
            )


class TestDeepCATConstruction:
    def test_rdper_by_default(self):
        env = make_env("TS", "D1", seed=0)
        assert isinstance(fast_deepcat(env).buffer, RewardDrivenReplayBuffer)

    def test_uniform_ablation(self):
        env = make_env("TS", "D1", seed=0)
        tuner = fast_deepcat(env, use_rdper=False)
        assert isinstance(tuner.buffer, UniformReplayBuffer)

    def test_paper_hyperparameters(self):
        env = make_env("TS", "D1", seed=0)
        t = DeepCAT.from_env(env, seed=0)
        assert t.beta == 0.6  # Figure 11
        # calibrated on this implementation's Q scale via the Figure 12
        # sweep (the paper picks 0.3 on its own scale by the same rule)
        assert t.q_threshold == 0.4

    def test_from_env_dimensions(self):
        env = make_env("TS", "D1", seed=0)
        t = fast_deepcat(env)
        assert t.agent.state_dim == env.state_dim
        assert t.agent.action_dim == env.action_dim

    def test_deterministic_given_seed(self):
        env1 = make_env("TS", "D1", seed=3)
        env2 = make_env("TS", "D1", seed=3)
        t1 = fast_deepcat(env1, seed=3)
        t2 = fast_deepcat(env2, seed=3)
        l1 = t1.train_offline(env1, 40)
        l2 = t2.train_offline(env2, 40)
        np.testing.assert_allclose(l1.rewards, l2.rewards)
