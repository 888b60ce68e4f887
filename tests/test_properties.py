"""Property tests: block evaluation and streamed output equal their plain paths,
the closed form agrees with its oracle, and `main` never raises.

Hypothesis runs derandomized with a fixed example budget, so the examples
are the same on every run and the suite stays deterministic.
"""

import cmath
import contextlib
import io
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oamch import search
from oamch.azimuthal import (
    TAU,
    StepIndex,
    difference_overlaps,
    overlap_integral,
    overlap_integral_opposite_phase,
    wrap_angle,
)
from oamch.cli import _document, _g9, main
from oamch.coincidence import ExperimentSettings, amplitude_matrix, amplitude_matrix_quadrature
from oamch.config import load_config
from oamch.chtest import CANONICAL_THETAS
from oamch.search import THETA_POLICIES, ChLandscape, ScanGrid, optimize_thetas, scan_alpha_beta

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)

ROW_KEYS = ("alpha", "beta", "theta_a", "theta_a_prime", "theta_b", "theta_b_prime", "s",
            "exceeds_threshold")

# cuts at 0, at the quarter turns and at 2*pi, where segments collapse
ANGLES = st.one_of(
    st.sampled_from((0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TAU)),
    st.floats(0.0, TAU),
)
STEP_VALUES = st.one_of(st.integers(0, 7).map(lambda l: l + 0.5), st.floats(0.05, 10.0))
GENERAL_STEPS = st.floats(0.05, 10.0).map(StepIndex).filter(lambda s: not s.is_half_integer)


@st.composite
def _experiment(draw, step: StepIndex) -> ExperimentSettings:
    alpha = draw(ANGLES)
    # beta on alpha or a half-turn from it makes the two analyzers' cuts coincide
    beta = draw(st.one_of(ANGLES, st.sampled_from((alpha, alpha + math.pi))))
    aux = draw(st.one_of(st.just((0.0,) * 4), st.tuples(ANGLES, ANGLES, ANGLES, ANGLES)))
    return ExperimentSettings(alpha, beta, draw(ANGLES), draw(ANGLES), step, aux)


@st.composite
def _shared_plates(draw) -> list:
    """Settings sharing plates and a general step index, each with its own angles and phases."""
    first = draw(_experiment(draw(GENERAL_STEPS)))
    others = draw(st.lists(_experiment(first.step_index), max_size=3))
    return [first] + [
        ExperimentSettings(first.alpha, first.beta, s.theta_a, s.theta_b, s.step_index,
                           s.aux_phases)
        for s in others
    ]


@PROFILE
@given(_shared_plates())
def test_closed_form_agrees_with_quadrature_at_general_step_index(block):
    for s in block:
        np.testing.assert_allclose(amplitude_matrix(s).c, amplitude_matrix_quadrature(s).c,
                                   rtol=0, atol=1e-9)


@PROFILE
@given(st.lists(st.one_of(st.floats(), st.sampled_from((0.0, -0.0, math.nan, math.inf))), min_size=1))
def test_column_cells_equal_per_value_formatting(values):
    # the scan artifacts' %-conversions: "%.9g" for CSV, "%r" for the finite floats of JSON
    assert [_g9(v) for v in values] == ["%.9g" % v for v in values] == [format(v, ".9g") for v in values]
    finite = [v for v in values if math.isfinite(v)]
    assert ["%r" % v for v in finite] == [json.dumps(v) for v in finite]


def _reference_rows(shape, policy, step, threshold) -> list[tuple]:
    """Every row of a scan from its own plates: `ChLandscape.at`, then `optimize_thetas` or `value`."""
    alphas = np.linspace(0.0, TAU, shape[0], endpoint=False).tolist()
    betas = np.linspace(0.0, TAU, shape[1], endpoint=False).tolist()
    rows = []
    for alpha in alphas:
        for beta in betas:
            land = ChLandscape.at(alpha, beta, step)
            if policy == "optimize-per-point":
                (thetas,), (s,) = optimize_thetas(land)
            else:
                thetas, (s,) = CANONICAL_THETAS, land.value(*CANONICAL_THETAS)
            rows.append((alpha, beta, *thetas, s, s > threshold))
    return rows


def _scanned_rows(scan) -> list[tuple]:
    return [(a, b, *tail) for alphas, betas, tails in scan
            for (a, b), tail in zip(itertools.product(alphas, betas), tails)]


# coprime shapes repeat almost no key, very unequal ones few; 93 x 92 and
# 2 x 5000 have more keys than a scan once allowed
SHAPES = st.one_of(
    st.sampled_from(((33, 32), (32, 33), (2, 1024), (1024, 2), (3, 64), (33, 33), (93, 92), (2, 5000))),
    st.tuples(st.integers(2, 24), st.integers(2, 24)),
)


@settings(PROFILE, max_examples=60)
@given(shape=SHAPES, policy=st.sampled_from(THETA_POLICIES), step_index=STEP_VALUES,
       threshold=st.floats(-0.1, 0.25), sizes=st.sampled_from(((4096, 2**16), (7, 10), (64, 300))))
@example(shape=(93, 92), policy="optimize-per-point", step_index=0.9979, threshold=0.0, sizes=(4096, 2**16))
@example(shape=(2, 5000), policy="fixed-canonical", step_index=1.8694, threshold=-0.1, sizes=(64, 300))
def test_keyed_scan_equals_per_row_evaluation(shape, policy, step_index, threshold, sizes):
    # chunks of `sizes[0]` rows and a memo of `sizes[1]` keys, cleared many times over when small
    step = StepIndex(step_index)
    rows = _reference_rows(shape, policy, step, threshold)
    with mock.patch.object(search, "_CHUNK_ROWS", sizes[0]), mock.patch.object(search, "_MEMO_KEYS", sizes[1]):
        scan = scan_alpha_beta(ScanGrid(*shape, theta_policy=policy, threshold=threshold), step)
        # repr tells -0.0 from 0.0, so the rows are equal bit for bit
        assert [repr(row) for row in _scanned_rows(scan)] == [repr(row) for row in rows]
    assert scan.result.best == max(rows, key=lambda row: row[6])
    assert scan.result.exceeding == sum(row[7] for row in rows)


@settings(PROFILE, max_examples=40)
@given(shape=st.one_of(SHAPES, st.sampled_from(((93, 91), (91, 93), (31, 29))),
                       st.tuples(st.just(2), st.integers(2, 512))))
def test_key_numbers_equal_first_appearance_of_float_pairs(shape):
    # the keys a scan evaluates, batch after batch, are the rows' float pairs
    # (m - n, m - wrap(n + pi)) in order of first appearance
    evaluated = []
    evaluate = search.Scan._evaluate

    def recording(self, keys):
        evaluated.extend((z.real, z.imag) for z in keys)
        return evaluate(self, keys)

    with mock.patch.object(search.Scan, "_evaluate", recording):
        _scanned_rows(scan_alpha_beta(ScanGrid(*shape), StepIndex(1.5)))
    alphas = np.linspace(0.0, TAU, shape[0], endpoint=False).tolist()
    betas = np.linspace(0.0, TAU, shape[1], endpoint=False).tolist()
    assert evaluated == list(dict.fromkeys((m - n, m - wrap_angle(n + math.pi)) for m in alphas for n in betas))


def _reference_overlap(mu, nu, step, sign):
    """The closed form as written for canonical m >= n, conjugated for m < n."""
    m, n = wrap_angle(mu), wrap_angle(nu)
    d = abs(m - n)
    value = cmath.exp(sign * step.value * d) * (TAU - d * (1.0 - cmath.exp(1j * TAU * step.value)))
    return value.conjugate() if m < n else value


WIDE_ANGLES = st.one_of(ANGLES, st.floats(-20.0, 20.0))


@PROFILE
@given(pairs=st.lists(st.one_of(st.tuples(WIDE_ANGLES, WIDE_ANGLES), WIDE_ANGLES.map(lambda a: (a, a))),
                      min_size=1, max_size=8),
       step_index=STEP_VALUES)
def test_difference_kernel_equals_overlap_integral(pairs, step_index):
    step = StepIndex(step_index)
    differences = [wrap_angle(mu) - wrap_angle(nu) for mu, nu in pairs]
    # repr tells -0.0 from 0.0, so the values are equal bit for bit
    assert repr(difference_overlaps(differences, step)) == repr(
        [overlap_integral(mu, nu, step) for mu, nu in pairs]) == repr(
        [_reference_overlap(mu, nu, step, -1j) for mu, nu in pairs])
    assert repr([overlap_integral_opposite_phase(mu, nu, step) for mu, nu in pairs]) == repr(
        [_reference_overlap(mu, nu, step, 1j) for mu, nu in pairs])
    # a signed zero difference is the overlap of equal plates
    assert repr(difference_overlaps([-0.0], step)) == repr([overlap_integral(1.0, 1.0, step)])


def _whole_text_artifacts(config) -> tuple[str, str]:
    """The CSV and JSON scan artifacts of the per-row reference, formatted value by value and written whole."""
    grid = config.scan
    reference = _reference_rows(grid[:2], grid.theta_policy, config.experiment.step_index, grid.threshold)
    rows = [dict(zip(ROW_KEYS, row)) for row in reference]
    csv_lines = ["alpha,beta,theta_a,theta_a_prime,theta_b,theta_b_prime,S,exceeds_threshold"]
    for row in rows:
        *numbers, flag = row.values()
        csv_lines.append(",".join([format(v, ".9g") for v in numbers] + [json.dumps(flag)]))
    best = dict(zip(ROW_KEYS, max(reference, key=lambda row: row[6])))
    doc = _document("scan", config, {"rows": rows, "best": best})
    return "\n".join(csv_lines) + "\n", json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _scan_config(path, alpha_steps, beta_steps, policy, step_index, threshold) -> str:
    raw = {
        "schema_version": 1,
        "experiment": {"alpha": 0.0, "beta": 0.0, "theta_a": 0.0, "theta_b": 0.0,
                       "step_index": step_index},
        "scan": {"alpha_steps": alpha_steps, "beta_steps": beta_steps, "theta_policy": policy,
                 "threshold": threshold},
    }
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def _streamed_artifacts(config_path, tmp) -> tuple[str, str]:
    texts = []
    for fmt in ("csv", "json"):
        out = tmp / f"scan.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["scan", "--config", config_path, "--out", str(out), "--format", fmt]) == 0
        texts.append(out.read_text(encoding="utf-8"))
    return tuple(texts)


def test_scan_artifacts_equal_whole_text_writers(tmp_path, monkeypatch):
    # five rows a chunk splits the 24 rows into uneven chunks
    monkeypatch.setattr(search, "_CHUNK_ROWS", 5)
    config = _scan_config(tmp_path / "config.json", 4, 6, "optimize-per-point", 1.7321, 0.1)
    assert _streamed_artifacts(config, tmp_path) == _whole_text_artifacts(load_config(config))


@pytest.mark.parametrize("policy", THETA_POLICIES)
@pytest.mark.parametrize("shape, step_index", [
    ((16, 16), 1.7321),  # square
    ((33, 32), 1.8694),  # coprime: a key per row
    ((93, 92), 0.9979),
    ((2, 5000), 1.8694),  # wide: chunks within an alpha row
    ((8, 8), 0.5),  # the diagonal rows tie for the largest S
])
def test_json_artifact_equals_json_dumps_of_the_per_row_document(tmp_path, shape, step_index, policy):
    config = _scan_config(tmp_path / "config.json", *shape, policy, step_index, 0.1)
    assert _streamed_artifacts(config, tmp_path) == _whole_text_artifacts(load_config(config))
    if shape == (8, 8):
        rows = _reference_rows(shape, policy, StepIndex(step_index), 0.1)
        assert sum(row[6] == max(r[6] for r in rows) for row in rows) > 1


@PROFILE
@given(
    alpha_steps=st.integers(2, 6),
    beta_steps=st.integers(2, 6),
    policy=st.sampled_from(THETA_POLICIES),
    step_index=STEP_VALUES,
    threshold=st.floats(-1.0, 1.0),
    chunk=st.integers(1, 8),
    memo=st.sampled_from((2**16, 12)),
)
# memos of a few keys, which each pass of the CSV scan and of the JSON scan replaces
# many times: the diagonal rows of 8 x 8 tie for the largest S, 33 x 32 has a key per row
@example(alpha_steps=8, beta_steps=8, policy="optimize-per-point", step_index=0.5, threshold=0.1,
         chunk=5, memo=12)
@example(alpha_steps=33, beta_steps=32, policy="fixed-canonical", step_index=1.8694, threshold=0.1,
         chunk=16, memo=40)
def test_streamed_scan_artifacts_equal_whole_text_writers(
    tmp_path_factory, alpha_steps, beta_steps, policy, step_index, threshold, chunk, memo
):
    # chunks of `chunk` rows and memos of `memo` keys
    tmp = tmp_path_factory.mktemp("scan")
    config = _scan_config(tmp / "config.json", alpha_steps, beta_steps, policy, step_index, threshold)
    with mock.patch.object(search, "_CHUNK_ROWS", chunk), mock.patch.object(search, "_MEMO_KEYS", memo):
        streamed = _streamed_artifacts(config, tmp)
    assert streamed == _whole_text_artifacts(load_config(config))


SECTION_KEYS = {
    "experiment": ("alpha", "beta", "theta_a", "theta_b", "step_index", "aux_phases"),
    "ch": ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime"),
    "mc": ("trials", "efficiency_a", "efficiency_b", "seed"),
    "scan": ("alpha_steps", "beta_steps", "theta_policy", "threshold"),
    "output": ("path", "format"),
}
# valid and invalid values for any key: angles with and without units, step
# counts, trial counts, seeds, efficiencies, policies, formats, wrong types
CONFIG_VALUES = st.one_of(
    st.floats(0.01, 1.0),
    st.integers(2, 6),
    st.floats(-10.0, 10.0),
    st.floats(),
    # past +-2^1024, where an integer no longer converts to a float
    st.integers(-(2**1100), 2**1100),
    st.sampled_from(
        ("45deg", " 1.5 rad", "1e400deg", "deg", "7", "", "csv", "json", "optimize-per-point",
         "fixed-canonical", True, False, None, [], [0.1, "2deg", 0.0, 1.0], [0.0] * 3, {},
         2**1024, -(2**1024), [0.0, 10**400, 0.0, 0.0])
    ),
)
COMMANDS = st.sampled_from(
    (["probe"], ["probe", "--closed-form"], ["probe", "--format", "json"], ["ch"],
     ["ch", "--assert-violation", "--format", "json"], ["mc"],
     ["mc", "--format", "json", "--set=mc.trials=20000"],
     ["scan", "--format", "csv"], ["scan", "--format", "json"], ["scan"])
)


def _base_document() -> dict:
    return {
        "schema_version": 1,
        "experiment": {"alpha": 0.3, "beta": 1.1, "theta_a": 0.2, "theta_b": 0.9,
                       "step_index": 1.7321},
        "ch": {"theta_a": 0.0, "theta_a_prime": "45deg", "theta_b": "22.5deg",
               "theta_b_prime": "67.5deg"},
        # at seed 42 these three trials see no coincidence: exit 1
        "mc": {"trials": 3, "efficiency_a": 0.3, "efficiency_b": 0.3, "seed": 42},
        "scan": {"alpha_steps": 3, "beta_steps": 4, "theta_policy": "optimize-per-point"},
    }


@st.composite
def _edits(draw):
    """(section, key, value): mostly known keys, sometimes unknown ones; key None is the section."""
    section = draw(st.sampled_from(tuple(SECTION_KEYS) + ("schema_version", "extra")))
    key = draw(st.sampled_from(SECTION_KEYS.get(section, ("x",)) + ("unknown", None)))
    return section, key, draw(CONFIG_VALUES)


@PROFILE
@given(
    command=COMMANDS,
    edits=st.lists(_edits(), max_size=2),
    dropped=st.sets(st.sampled_from(tuple(SECTION_KEYS) + ("schema_version",)), max_size=1),
    overrides=st.lists(
        st.one_of(
            _edits().map(lambda e: f"{e[0]}.{e[1]}={json.dumps(e[2])}"),
            _edits().map(lambda e: f"{e[0]}.{e[1]}={e[2]}"),
            st.text(st.sampled_from("abcdegmxst.=_ 0123456789-[]{}\"'"), max_size=16),
        ),
        max_size=2,
    ),
)
def test_main_never_raises_on_config_documents_and_overrides(
    tmp_path_factory, command, edits, dropped, overrides
):
    doc = _base_document()
    for section, key, value in edits:
        if key is None or section == "schema_version" or not isinstance(doc.get(section, {}), dict):
            doc[section] = value
        else:
            doc.setdefault(section, {})[key] = value
    for section in dropped:
        doc.pop(section, None)
    tmp = tmp_path_factory.mktemp("main")
    config = tmp / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = [*command, "--config", str(config)]
    if command[0] == "scan":
        argv += ["--out", str(tmp / "scan.out")]
    # `--set=TEXT`, so that a TEXT starting with "-" is not taken for an option
    argv += [f"--set={override}" for override in overrides]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    # a failure is one line on stderr, a success none
    assert err.getvalue().count("\n") == (code != 0)
