"""Tests for the synthetic clip generator."""

import numpy as np
import pytest

from repro.video import SceneConfig, generate_clip


class TestSceneConfig:
    def test_defaults_valid(self):
        SceneConfig()

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            SceneConfig(n_objects=0)
        with pytest.raises(ValueError):
            SceneConfig(width=-1)


class TestGenerateClip:
    def test_frame_count(self):
        clip = generate_clip(n_frames=50, rng=0)
        assert clip.n_frames == 50

    def test_deterministic_by_seed(self):
        a = generate_clip(n_frames=10, rng=7)
        b = generate_clip(n_frames=10, rng=7)
        for fa, fb in zip(a.frames, b.frames):
            np.testing.assert_array_equal(fa, fb)

    def test_different_seeds_differ(self):
        a = generate_clip(n_frames=10, rng=1)
        b = generate_clip(n_frames=10, rng=2)
        assert not np.array_equal(a.frames[0], b.frames[0])

    def test_boxes_inside_frame(self):
        cfg = SceneConfig(width=640, height=480)
        clip = generate_clip(cfg, n_frames=30, rng=0)
        for frame in clip.frames:
            if frame.shape[0] == 0:
                continue
            assert np.all(frame[:, [0, 2]] >= 0) and np.all(frame[:, [0, 2]] <= 640)
            assert np.all(frame[:, [1, 3]] >= 0) and np.all(frame[:, [1, 3]] <= 480)

    def test_boxes_nondegenerate(self):
        clip = generate_clip(n_frames=30, rng=0)
        for frame in clip.frames:
            assert np.all(frame[:, 2] > frame[:, 0])
            assert np.all(frame[:, 3] > frame[:, 1])

    def test_motion_exists(self):
        cfg = SceneConfig(speed=10.0, n_objects=5)
        clip = generate_clip(cfg, n_frames=2, rng=0)
        # object count may change at borders; compare overall centroid drift
        c0 = clip.frames[0][:, :2].mean() if clip.frames[0].size else 0
        c1 = clip.frames[1][:, :2].mean() if clip.frames[1].size else 0
        assert c0 != c1

    def test_density_roughly_stationary(self):
        cfg = SceneConfig(n_objects=15)
        clip = generate_clip(cfg, n_frames=100, rng=3)
        first = np.mean([f.shape[0] for f in clip.frames[:20]])
        last = np.mean([f.shape[0] for f in clip.frames[-20:]])
        assert abs(first - last) < 6

    def test_mean_object_count(self):
        clip = generate_clip(SceneConfig(n_objects=8), n_frames=20, rng=0)
        assert 4 <= np.mean([f.shape[0] for f in clip.frames]) <= 9

    def test_invalid_frames_raises(self):
        with pytest.raises(ValueError):
            generate_clip(n_frames=0, rng=0)
