import json
import math

import pytest

from superrotor.validation import (
    CRITERIA,
    CriterionResult,
    criterion_linearization_scaling,
    criterion_radial_integral_table,
    criterion_small_j_guards,
    report_json,
    report_text,
    run_acceptance,
    sine_integral_b,
    sine_sq_integral_b,
)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.7])
def test_sine_integral_matches_closed_form(a):
    g35 = math.gamma(0.6)
    ref = 0.5 * a**0.4 * g35 * math.cos(0.3 * math.pi)
    assert sine_integral_b(a) == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("a", [0.3, 1.0, 2.7])
def test_sine_sq_integral_matches_closed_form(a):
    g35 = math.gamma(0.6)
    ref = 0.25 * a**0.4 * g35 * math.sin(0.3 * math.pi)
    assert sine_sq_integral_b(a) == pytest.approx(ref, abs=1e-9)


def test_sine_integral_guards():
    with pytest.raises(ValueError):
        sine_integral_b(0.0)
    with pytest.raises(ValueError):
        sine_sq_integral_b(-1.0)


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


def test_fast_criteria_pass_standalone():
    for fn in (criterion_small_j_guards, criterion_radial_integral_table,
               criterion_linearization_scaling):
        res = fn()
        assert res.passed, res.summary
        assert res.runtime >= 0.0


def test_report_rendering():
    results = [
        CriterionResult("alpha", True, "fine", 0.1, {"x": 1.0}),
        CriterionResult("beta", False, "broken", 0.2, {"y": 2}),
    ]
    text = report_text(results)
    assert "[PASS] alpha" in text
    assert "[FAIL] beta" in text
    assert "1/2 criteria passed" in text
    doc = json.loads(report_json(results))
    assert doc["all_passed"] is False
    assert doc["criteria"][0]["name"] == "alpha"
    assert doc["criteria"][1]["detail"]["y"] == 2