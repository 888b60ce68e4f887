import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oamch
import oamch.validate
from oamch.azimuthal import TAU, StepIndex, overlap_integral_opposite_phase
from oamch.coincidence import ExperimentSettings
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


def _numpy_samples(seed, samples, draw):
    rng = np.random.default_rng(seed)
    return [draw(rng, k) for k in range(samples)]


def test_suite_samples_are_numpys():
    # the suites drew with numpy.random.default_rng; these are those draws, in that order
    seed = oamch.validate._SEED

    def pair(rng, _):
        mu, nu = rng.uniform(0.0, TAU, size=2)
        return mu, nu, StepIndex.half_integer(int(rng.integers(0, 4)))

    def coincidence(rng, k):
        aux = tuple(rng.uniform(0.0, TAU, size=4)) if k % 2 else (0.0, 0.0, 0.0, 0.0)
        return ExperimentSettings(
            *rng.uniform(0.0, TAU, size=4), StepIndex.half_integer(int(rng.integers(0, 4))), aux
        )

    def closed_form(rng, _):
        delta, beta, theta_a, theta_b = rng.uniform(-math.pi, math.pi), *rng.uniform(0.0, TAU, size=3)
        return ExperimentSettings(
            beta + delta, beta, theta_a, theta_b, StepIndex.half_integer(int(rng.integers(0, 3)))
        )

    assert list(oamch.validate._random_pairs(seed, 500)) == _numpy_samples(seed, 500, pair)
    assert list(oamch.validate._random_pairs(seed + 3, 500)) == _numpy_samples(seed + 3, 500, pair)
    assert list(oamch.validate._coincidence_settings(200)) == _numpy_samples(seed + 1, 200, coincidence)
    assert list(oamch.validate._closed_form_settings(500)) == _numpy_samples(seed + 2, 500, closed_form)


def _simd_levels() -> list[str]:
    """The dispatched CPU features this host has, lowest first (numpy 2.x and 1.24 names)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    if not hasattr(umath, "__cpu_dispatch__"):
        pytest.skip("this numpy does not list its dispatched CPU features")
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_overlap_suites_print_the_same_bytes_at_every_simd_level():
    # numpy picks its SIMD kernels when it loads; disabling every dispatched
    # feature from one level up runs the suites as on a CPU without them
    levels = _simd_levels()
    env = {**os.environ, "PYTHONPATH": str(Path(oamch.__file__).resolve().parents[1])}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    outputs = {}
    for k in range(len(levels) + 1):
        disabled = " ".join(levels[k:])
        proc = subprocess.run(
            [sys.executable, "-m", "oamch.cli", "validate", "--suites", "azimuthal,sign-check"],
            capture_output=True,
            text=True,
            env={**env, "NPY_DISABLE_CPU_FEATURES": disabled} if disabled else env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[disabled or "native"] = proc.stdout
    assert len(set(outputs.values())) == 1, outputs
