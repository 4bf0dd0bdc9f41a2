import json

import pytest

from superrotor import validation
from superrotor.validation import (
    CRITERIA,
    CriterionResult,
    report_json,
    report_text,
    run_acceptance,
)


def test_criterion_names_unique_and_stable():
    names = [name for name, _ in CRITERIA]
    assert len(names) == 11
    assert len(set(names)) == 11
    assert "closed-form prefactor" in names


def test_run_acceptance_name_filter():
    results = run_acceptance(names=["small-j guard values"])
    assert len(results) == 1
    assert results[0].name == "small-j guard values"
    assert results[0].passed


def test_run_acceptance_unknown_name_raises_before_running(monkeypatch):
    ran = []
    probe = ("probe", lambda spec: ran.append(spec) or (True, "ran", {}))
    monkeypatch.setattr(validation, "CRITERIA", (probe,))
    with pytest.raises(ValueError, match="^unknown criteria: no-such, other$"):
        run_acceptance(names=["probe", "no-such", "other"])
    assert ran == []


def test_fast_criteria_pass_standalone():
    names = ["radial integral table", "small-j guard values", "linearization error scaling"]
    results = run_acceptance(names=names)
    assert [r.name for r in results] == [n for n, _ in CRITERIA if n in names]
    for res in results:
        assert res.passed, res.summary
        assert res.runtime >= 0.0


def test_report_rendering():
    results = [
        CriterionResult("alpha", True, "fine", 0.1, {"x": 1.0}),
        CriterionResult("beta", False, "broken", 0.2, {"y": 2}),
    ]
    with pytest.raises(AttributeError):
        results[0].runtime = 0.3
    text = report_text(results)
    assert "[PASS] alpha" in text
    assert "[FAIL] beta" in text
    assert "1/2 criteria passed" in text
    doc = json.loads(report_json(results))
    assert doc["all_passed"] is False
    assert doc["criteria"][0]["name"] == "alpha"
    assert doc["criteria"][1]["detail"]["y"] == 2