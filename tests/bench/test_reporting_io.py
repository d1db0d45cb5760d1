"""Tests for heatmap rendering and JSON result persistence."""

import numpy as np
import pytest

from repro.bench import (
    format_heatmap,
    format_series,
    format_table,
    load_results,
    save_results,
)


class TestFormatHeatmap:
    def test_basic_render(self):
        m = np.array([[0.0, 0.5], [0.75, 1.0]])
        out = format_heatmap(m, row_labels=["a", "b"], title="T")
        assert "T" in out
        assert "█" in out  # max cell fully shaded
        assert out.splitlines()[1].startswith("a")

    def test_constant_matrix(self):
        out = format_heatmap(np.ones((2, 2)))
        assert "█" not in out or " " not in out  # uniform shading

    def test_col_labels(self):
        out = format_heatmap(
            np.zeros((1, 3)), row_labels=["r"], col_labels=["1", "2", "3"]
        )
        assert "1 2 3" in out

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            format_heatmap(np.zeros(3))
        with pytest.raises(ValueError):
            format_heatmap(np.zeros((2, 2)), row_labels=["only-one"])
        with pytest.raises(ValueError):
            format_heatmap(np.zeros((2, 2)), col_labels=["only-one"])

    def test_monotone_shading(self):
        m = np.array([[0.0, 0.25, 0.5, 0.75, 1.0]])
        line = format_heatmap(m).splitlines()[-1]
        shades = " ░▒▓█"
        cells = line.split(" ")[1:]
        levels = [shades.index(c) if c else 0 for c in cells]
        assert levels == sorted(levels)


class TestResultsIO:
    def test_roundtrip_nested_structure(self, tmp_path):
        data = {
            "scalars": {"a": 1, "b": 2.5, "flag": True, "none": None},
            "arr": np.arange(6, dtype=np.float64).reshape(2, 3),
            "list": [np.float64(3.5), "text", [1, 2]],
        }
        p = save_results(data, tmp_path / "out.json")
        back = load_results(p)
        assert back["scalars"] == data["scalars"]
        np.testing.assert_array_equal(back["arr"], data["arr"])
        assert back["arr"].dtype == np.float64
        assert back["list"][0] == 3.5

    def test_int_array_dtype_preserved(self, tmp_path):
        p = save_results({"x": np.array([1, 2, 3])}, tmp_path / "i.json")
        back = load_results(p)
        assert np.issubdtype(back["x"].dtype, np.integer)

    def test_creates_parent_dirs(self, tmp_path):
        p = save_results([1, 2], tmp_path / "deep" / "dir" / "r.json")
        assert p.exists()

    def test_unserializable_raises(self, tmp_path):
        with pytest.raises(TypeError):
            save_results({"f": lambda x: x}, tmp_path / "bad.json")

    def test_real_experiment_record_roundtrips(self, tmp_path):
        from repro.bench import fig4_jitter

        data = fig4_jitter(horizon=3.0)
        p = save_results(data, tmp_path / "fig4.json")
        back = load_results(p)
        assert back["algorithm1_jitter"] == pytest.approx(
            data["algorithm1_jitter"]
        )

