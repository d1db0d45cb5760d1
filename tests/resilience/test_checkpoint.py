"""Checkpoint save/load mechanics and bit-identical PaMO resume."""

import pickle

import numpy as np
import pytest

from repro.core import EVAProblem, PaMO, make_preference
from repro.pref import DecisionMaker
from repro.resilience import load_checkpoint, save_checkpoint
from repro.resilience.checkpoint import CHECKPOINT_VERSION


def _small_pamo(problem, dm, **kw):
    defaults = dict(
        n_profile=40,
        n_outcome_space=20,
        n_init_comparisons=3,
        n_pref_queries=6,
        batch_size=2,
        n_iterations=5,
        n_pool=12,
        rng=0,
    )
    defaults.update(kw)
    return PaMO(problem, decision_maker=dm, **defaults)


class TestSaveLoad:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(
            path,
            scheduler={"rng": 7},
            bo_state=[1, 2, 3],
            method="pamo",
            iteration=4,
        )
        ckpt = load_checkpoint(path)
        assert ckpt.scheduler == {"rng": 7}
        assert ckpt.bo_state == [1, 2, 3]
        assert ckpt.meta["method"] == "pamo"
        assert ckpt.iteration == 4

    def test_rejects_foreign_version(self, tmp_path):
        path = tmp_path / "old.ckpt"
        with path.open("wb") as fh:
            pickle.dump(
                {"version": CHECKPOINT_VERSION + 1, "scheduler": 0, "bo_state": 0},
                fh,
            )
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_rejects_previous_version(self, tmp_path):
        """A checkpoint from before the ServeStats tally held the latency
        histogram's buckets (version 4) is refused, not half-loaded."""
        path = tmp_path / "old.ckpt"
        path.write_bytes(
            pickle.dumps({"version": 4, "scheduler": 0, "bo_state": 0})
        )
        assert CHECKPOINT_VERSION == 5
        with pytest.raises(ValueError, match="version 4"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, scheduler="good", bo_state=1, iteration=1)
        with pytest.raises(Exception):
            # lambdas don't pickle; the atomic write must not clobber
            save_checkpoint(path, scheduler=lambda: None, bo_state=2, iteration=2)
        ckpt = load_checkpoint(path)
        assert ckpt.scheduler == "good"
        assert ckpt.iteration == 1
        assert not list(tmp_path.glob("*.tmp"))


class TestPaMOResume:
    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        """checkpoint → resume reproduces the uninterrupted run exactly."""
        problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = make_preference(problem)

        baseline = _small_pamo(problem, DecisionMaker(pref, rng=0)).optimize()

        ckpt_path = tmp_path / "pamo.ckpt"
        checkpointed = _small_pamo(
            problem,
            DecisionMaker(pref, rng=0),
            checkpoint_path=str(ckpt_path),
            checkpoint_every=2,
        ).optimize()
        assert ckpt_path.exists()
        # Checkpointing must not perturb the run itself.
        np.testing.assert_array_equal(
            checkpointed.decision.resolutions, baseline.decision.resolutions
        )
        assert checkpointed.decision.benefit == baseline.decision.benefit

        # "Kill" the run: drop the finished scheduler, continue from disk.
        ckpt = load_checkpoint(ckpt_path)
        resumed = ckpt.scheduler.optimize(resume=ckpt.bo_state)
        np.testing.assert_array_equal(
            resumed.decision.resolutions, baseline.decision.resolutions
        )
        np.testing.assert_array_equal(
            resumed.decision.fps, baseline.decision.fps
        )
        assert resumed.decision.assignment == baseline.decision.assignment
        assert resumed.decision.benefit == baseline.decision.benefit

    def test_checkpoint_records_midrun_iteration(self, tmp_path):
        problem = EVAProblem(n_streams=4, bandwidths_mbps=[10.0, 20.0, 30.0])
        pref = make_preference(problem)
        ckpt_path = tmp_path / "pamo.ckpt"
        _small_pamo(
            problem,
            DecisionMaker(pref, rng=0),
            checkpoint_path=str(ckpt_path),
            checkpoint_every=2,
        ).optimize()
        ckpt = load_checkpoint(ckpt_path)
        # checkpoints fire only mid-run (every 2 of 5 iterations → last at 4)
        assert 0 < ckpt.iteration < 5
        assert ckpt.meta["method"] == "PaMO"
        assert ckpt.bo_state.next_iteration == ckpt.iteration + 1
