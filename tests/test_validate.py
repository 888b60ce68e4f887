import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import oamch
import oamch.azimuthal
import oamch.coincidence
import oamch.validate
from oamch.azimuthal import (
    TAU,
    StepIndex,
    check_node_values,
    gauss_segments,
    overlap_integral_opposite_phase,
    overlap_integral_quadrature,
    spp_phase,
    spp_profile,
    wrap_angle,
)
from oamch.cli import main
from oamch.coincidence import (
    SIGMA,
    AmplitudeMatrix,
    ExperimentSettings,
    amplitude_matrix_quadrature,
    mz_unitary,
)
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
    result = run_sign_suite()
    assert result.passed
    assert result.max_error <= 1e-9
    assert "conjugate-phase variant" in result.detail


def test_injected_sign_flip_fails_azimuthal_suite(monkeypatch):
    monkeypatch.setattr(oamch.validate, "overlap_integral", overlap_integral_opposite_phase)
    result = run_azimuthal_suite()
    assert not result.passed
    # worst discrepancy lands on the scale of the full-turn integral
    assert result.max_error > 1.0


def test_injected_sign_flip_fails_sign_suite(monkeypatch):
    monkeypatch.setattr(oamch.validate, "overlap_integral", overlap_integral_opposite_phase)
    result = run_sign_suite()
    assert not result.passed


def test_injected_sign_flip_fails_coincidence_suite(monkeypatch):
    # the closed-form amplitudes take their overlaps through the coincidence module
    monkeypatch.setattr(oamch.coincidence, "overlap_integral", overlap_integral_opposite_phase)
    result = run_coincidence_suite()
    assert not result.passed
    assert result.max_error > 1e-3


def test_closed_form_suite_tightness():
    result = run_closed_form_suite()
    assert result.passed
    assert result.max_error < 1e-10


@pytest.mark.parametrize(
    "suite", [run_azimuthal_suite, run_coincidence_suite, run_closed_form_suite, run_sign_suite]
)
def test_suites_call_the_oracle_once_per_sample(monkeypatch, suite):
    calls = []
    overlaps = suite in (run_azimuthal_suite, run_sign_suite)
    oracle = "overlap_integral_quadrature" if overlaps else "amplitude_matrix_quadrature"
    wrapped = getattr(oamch.validate, oracle)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    plain = suite()
    monkeypatch.setattr(oamch.validate, oracle, counting)
    assert suite() == plain
    assert len(calls) == (200 if suite is run_coincidence_suite else 500)
    # one sample per call: a pair of plates or a single setting, never a sequence
    if overlaps:
        assert all(len(args) == 3 and isinstance(args[0], float) for args in calls)
    else:
        assert all(len(args) == 1 and isinstance(args[0], ExperimentSettings) for args in calls)


def _drop_the_last_cut(monkeypatch, module):
    """Give an oracle's module a rule with its last cut dropped: one segment then spans a dislocation."""
    rule = module.gauss_segments

    def spanning(cut_points):
        return rule(tuple(cut_points)[:-1])

    monkeypatch.setattr(module, "gauss_segments", spanning)


def test_an_integrand_that_varies_within_a_segment_fails_the_coincidence_suites(monkeypatch, capsys):
    # a segment across photon b's second plate: the products of arm amplitudes
    # jump there, which the 2-point rule must not average away
    _drop_the_last_cut(monkeypatch, oamch.coincidence)
    assert main(["validate", "--suites", "coincidence,appendix-a"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert " FAIL  max error inf " in line
        assert "oracle premise broken: integrand differs by" in line


def test_an_integrand_that_varies_within_a_segment_fails_the_overlap_suites(monkeypatch, capsys):
    # a segment across the second plate's dislocation: the phase difference
    # of the two plates jumps by 2*pi*L there, a half-turn at half-integer L
    _drop_the_last_cut(monkeypatch, oamch.azimuthal)
    assert main(["validate", "--suites", "azimuthal,sign-check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in lines] == [["azimuthal", "FAIL"], ["sign-check", "FAIL"]]
    assert all("oracle premise broken" in line for line in lines)


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_a_nan_discrepancy_fails_its_suite(monkeypatch, capsys, suite):
    # the third sample's oracle result turns NaN: in one entry of the amplitude matrix
    overlaps = suite in ("azimuthal", "sign-check")
    oracle = "overlap_integral_quadrature" if overlaps else "amplitude_matrix_quadrature"
    wrapped = getattr(oamch.validate, oracle)
    calls = []

    def nan_on_the_third_call(*args):
        calls.append(args)
        value = wrapped(*args)
        if len(calls) != 3:
            return value
        if overlaps:
            return complex(math.nan, 0.0)
        (c11, c12), (_, c22) = value.c
        return AmplitudeMatrix(c=((c11, c12), (complex(math.nan, 0.0), c22)))

    monkeypatch.setattr(oamch.validate, oracle, nan_on_the_third_call)
    assert main(["validate", "--suites", suite]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"suite {suite:12s} FAIL  max error nan "), out


def _reference_overlap_quadrature(mu, nu, step_index):
    """`overlap_integral_quadrature` with its nodes from a generator: the same float operations."""
    total = 0j
    for h, x1, x2 in gauss_segments((mu, nu)):
        d1, d2 = (spp_profile(mu, x, step_index) - spp_profile(nu, x, step_index) for x in (x1, x2))
        v1, v2 = complex(math.cos(d1), math.sin(d1)), complex(math.cos(d2), math.sin(d2))
        check_node_values((v1,), (v2,), step_index, x1, x2)
        total += h * (v1 + v2)
    return total


def _reference_amplitude_quadrature(settings):
    """`amplitude_matrix_quadrature` from comprehensions over splitter rows: the same float operations."""
    s, step = settings, settings.step_index
    ua, ub = mz_unitary(s.theta_a, *s.aux_phases[:2]), mz_unitary(s.theta_b, *s.aux_phases[2:])
    plates = (s.alpha, wrap_angle(s.alpha + math.pi), s.beta, wrap_angle(s.beta + math.pi))
    g = [0j] * 4
    for h, x1, x2 in gauss_segments(plates):
        nodes = []
        for x in (x1, x2):
            e1, e2, e3, e4 = (spp_phase(c, x, step, k > 1) for k, c in enumerate(plates))
            b = [u1 * e3 + u2 * e4 for u1, u2 in ub]
            nodes.append([0.5 * (u1 * e1 + u2 * e2) * bj for u1, u2 in ua for bj in b])
        check_node_values(*nodes, step, x1, x2)
        g = [gk + h * (p + q) for gk, p, q in zip(g, *nodes)]
    (s11, s12), (s21, s22) = SIGMA
    return (s11 * g[0], s12 * g[1]), (s21 * g[2], s22 * g[3])


def test_oracles_equal_their_reference_bit_for_bit_on_the_suites_samples():
    seed = oamch.validate._SEED
    pairs = [*oamch.validate._random_pairs(seed), *oamch.validate._random_pairs(seed + 3)]
    for mu, nu, step in pairs:
        assert overlap_integral_quadrature(mu, nu, step) == _reference_overlap_quadrature(mu, nu, step)
    settings = [*oamch.validate._coincidence_settings(), *oamch.validate._closed_form_settings()]
    for s in settings:
        assert amplitude_matrix_quadrature(s).c == _reference_amplitude_quadrature(s), s


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
    # numpy picks its SIMD kernels when it loads; validate loads none, so
    # disabling every dispatched feature from one level up must not move a byte
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


def _samples(seed, samples, draw):
    rng = random.Random(seed)
    return [draw(rng, k) for k in range(samples)]


def test_suite_samples_are_the_draws_of_random_random():
    # each suite draws from random.Random(seed), only through random(), whose
    # stream Python keeps across versions; these are those draws, in that order
    seed = oamch.validate._SEED

    def uniform(rng, low, high):
        return low + (high - low) * rng.random()

    def pair(rng, _):
        mu, nu = uniform(rng, 0.0, TAU), uniform(rng, 0.0, TAU)
        return mu, nu, StepIndex.half_integer(int(4 * rng.random()))

    def coincidence(rng, k):
        aux = tuple(uniform(rng, 0.0, TAU) for _ in range(4)) if k % 2 else (0.0, 0.0, 0.0, 0.0)
        angles = [uniform(rng, 0.0, TAU) for _ in range(4)]
        return ExperimentSettings(*angles, StepIndex.half_integer(int(4 * rng.random())), aux)

    def closed_form(rng, _):
        delta, beta = uniform(rng, -math.pi, math.pi), uniform(rng, 0.0, TAU)
        theta_a, theta_b = uniform(rng, 0.0, TAU), uniform(rng, 0.0, TAU)
        return ExperimentSettings(
            beta + delta, beta, theta_a, theta_b, StepIndex.half_integer(int(3 * rng.random()))
        )

    assert list(oamch.validate._random_pairs(seed)) == _samples(seed, 500, pair)
    assert list(oamch.validate._random_pairs(seed + 3)) == _samples(seed + 3, 500, pair)
    assert list(oamch.validate._coincidence_settings()) == _samples(seed + 1, 200, coincidence)
    assert list(oamch.validate._closed_form_settings()) == _samples(seed + 2, 500, closed_form)

