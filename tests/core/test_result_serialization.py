"""Round-trip tests for ScheduleDecision / OptimizationOutcome dicts.

Results persist through :func:`repro.bench.save_results`, and
:func:`repro.bench.load_results` reads them back as plain dicts.
"""

import json

import numpy as np
import pytest

from repro.bench import load_results, save_results
from repro.core import OptimizationOutcome, ScheduleDecision
from repro.utils import to_jsonable


def _decision():
    return ScheduleDecision(
        resolutions=np.array([600.0, 900.0]),
        fps=np.array([10.0, 15.0]),
        assignment=[np.int64(0), np.int64(1)],
        outcome=np.array([0.05, 0.4, 1.2, 3.3, 20.0]),
        benefit=np.float64(0.73),
        method="PaMO",
    )


def _outcome():
    return OptimizationOutcome(
        decision=_decision(),
        true_benefit=0.7,
        n_iterations=5,
        converged=True,
        history=[np.float64(0.1), 0.5, 0.7],
        n_dm_queries=18,
        extras={"resolutions": np.array([600.0, 900.0]), "seed": np.int64(3)},
    )


class TestScheduleDecisionDict:
    def test_to_dict_is_json_safe(self):
        d = _decision().to_dict()
        text = json.dumps(d)  # raises if any numpy leaks through
        assert json.loads(text) == d
        assert all(isinstance(q, int) for q in d["assignment"])
        assert isinstance(d["benefit"], float)

    def test_round_trip(self, tmp_path):
        orig = _decision()
        back = load_results(save_results(orig, tmp_path / "d.json"))
        np.testing.assert_allclose(back["resolutions"], orig.resolutions)
        np.testing.assert_allclose(back["fps"], orig.fps)
        np.testing.assert_allclose(back["outcome"], orig.outcome)
        assert back["assignment"] == [0, 1]
        assert back["benefit"] == pytest.approx(0.73)
        assert back["method"] == "PaMO"


class TestOptimizationOutcomeDict:
    def test_to_dict_is_json_safe(self):
        d = _outcome().to_dict()
        assert json.loads(json.dumps(d)) == d
        assert d["extras"]["resolutions"] == [600.0, 900.0]
        assert d["extras"]["seed"] == 3

    def test_round_trip(self, tmp_path):
        orig = _outcome()
        back = load_results(save_results(orig, tmp_path / "o.json"))
        assert back["true_benefit"] == pytest.approx(0.7)
        assert back["n_iterations"] == 5
        assert back["converged"] is True
        assert back["history"] == pytest.approx([0.1, 0.5, 0.7])
        assert back["n_dm_queries"] == 18
        np.testing.assert_allclose(back["decision"]["outcome"], orig.decision.outcome)

    def test_none_true_benefit_survives(self, tmp_path):
        out = OptimizationOutcome(decision=_decision())
        back = load_results(save_results(out, tmp_path / "o.json"))
        assert back["true_benefit"] is None

    def test_save_load_results_uses_to_dict(self, tmp_path):
        path = save_results({"run": _outcome()}, tmp_path / "out.json")
        data = load_results(path)
        assert data["run"]["decision"]["method"] == "PaMO"
        assert data["run"]["n_dm_queries"] == 18


class TestToJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"a": np.float32(1.5), "b": np.arange(3), "c": (1, 2)})
        assert out == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2]}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            to_jsonable(object())
