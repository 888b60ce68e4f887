import pytest

import oamch.validate
from oamch.azimuthal import overlap_integral_opposite_phase
from oamch.validate import (
    SUITE_NAMES,
    run_azimuthal_suite,
    run_closed_form_suite,
    run_coincidence_suite,
    run_sign_suite,
    run_suites,
)


def test_all_suites_pass_on_fresh_build():
    results = run_suites()
    assert [r.name for r in results] == list(SUITE_NAMES)
    for r in results:
        assert r.passed, f"{r.name}: max error {r.max_error} vs {r.tolerance}"


def test_suite_filtering_keeps_canonical_order():
    results = run_suites(["sign-check", "azimuthal"])
    assert [r.name for r in results] == ["azimuthal", "sign-check"]
    with pytest.raises(ValueError, match="nonsense"):
        run_suites(["nonsense"])
    with pytest.raises(ValueError, match="no suite selected"):
        run_suites([])


def test_sign_suite_records_both_errors():
    result = run_sign_suite(samples=100)
    assert result.passed
    assert result.max_error <= 1e-9
    assert "conjugate-phase variant" in result.detail


def test_injected_sign_flip_fails_azimuthal_suite():
    result = run_azimuthal_suite(samples=100, closed_form=overlap_integral_opposite_phase)
    assert not result.passed
    # worst discrepancy lands on the scale of the full-turn integral
    assert result.max_error > 1.0


def test_injected_sign_flip_fails_sign_suite():
    result = run_sign_suite(samples=100, closed_form=overlap_integral_opposite_phase)
    assert not result.passed


def test_injected_sign_flip_fails_coincidence_suite():
    result = run_coincidence_suite(samples=40, overlap=overlap_integral_opposite_phase)
    assert not result.passed
    assert result.max_error > 1e-3


def test_closed_form_suite_tightness():
    result = run_closed_form_suite(samples=100)
    assert result.passed
    assert result.max_error < 1e-10


@pytest.mark.parametrize(
    "suite", [run_azimuthal_suite, run_coincidence_suite, run_closed_form_suite, run_sign_suite]
)
def test_suite_results_do_not_depend_on_oracle_block(monkeypatch, suite):
    # one sample per block is the sample-by-sample evaluation
    blocked = suite(samples=40)
    monkeypatch.setattr(oamch.validate, "ORACLE_BLOCK", 1)
    assert suite(samples=40) == blocked
