"""The package's immutable records: construction, validation, equality, repr and copy.

Every record is a namedtuple; those with rules are subclasses whose `__new__`
validates and normalises the fields.  One parametrized test checks all of
them alike; `same` compares two records field by field, types included.
"""

import copy
import math
from collections import namedtuple

import numpy as np
import pytest

from oamch.azimuthal import TAU, StepIndex
from oamch.cli import main
from oamch.coincidence import (
    CANONICAL_THETAS,
    AmplitudeMatrix,
    ChResult,
    ChSettings,
    ExperimentSettings,
)
from oamch.config import OutputConfig, RunConfig
from oamch.montecarlo import ChEstimate, CountRecord, McConfig
from oamch.search import ScanGrid, ScanResult
from oamch.validate import SuiteResult

HALF = StepIndex(0.5)

# cls, positional args, the fields they give, keyword overrides that are
# rejected, the message, and how records compare: "value" (== and hash by
# value) and "unhashable" (== by value; a dict or list field cannot be
# hashed).
Case = namedtuple("Case", "cls args fields bad message equality")

CASES = [
    Case(StepIndex, (2.5,), (2.5,), {"value": -1},
         "step index must be in (0, 57038.8], got -1", "value"),
    Case(ExperimentSettings, (0.1, -0.2, 0.3, 7.0, HALF),
         (0.1, TAU - 0.2, 0.3, 7.0 - TAU, HALF, (0.0, 0.0, 0.0, 0.0)),
         {"aux_phases": (0.0, 0.0, 0.0)}, "aux_phases must be four finite phases (a1, a2, b1, b2)",
         "value"),
    Case(AmplitudeMatrix, (((1.0, 0.5j), (0.5j, -1.0)),), (((1.0, 0.5j), (0.5j, -1.0)),), None,
         None, "value"),
    Case(ChSettings, (*CANONICAL_THETAS, 7.0, -0.1, HALF),
         (*CANONICAL_THETAS, 7.0 - TAU, TAU - 0.1, HALF), {"theta_b": math.nan},
         "theta_b must be finite", "value"),
    Case(ChResult, (0.2, (1.0, 0.5, 1.0, 1.0), 1.0, 1.0, 4.0),
         (0.2, (1.0, 0.5, 1.0, 1.0), 1.0, 1.0, 4.0), {"p_total": 0.0},
         "total coincidence probability must be positive", "value"),
    Case(McConfig, (1000.0,), (1000, 1.0, 1.0, 0), {"trials": 0},
         "trials must be an integer in [1, 2**63), got 0", "value"),
    # a non-finite seed is checked against its range before any int() conversion
    Case(McConfig, (1000.0,), (1000, 1.0, 1.0, 0), {"seed": math.inf},
         "seed must be a 64-bit unsigned integer, got inf", "value"),
    Case(McConfig, (1000.0,), (1000, 1.0, 1.0, 0), {"seed": math.nan},
         "seed must be a 64-bit unsigned integer, got nan", "value"),
    Case(CountRecord, ("ab", [[1, 2], [3, 4]], 12, 2), ("ab", ((1, 2), (3, 4)), 12, 2),
         {"trials": 13}, "counts plus no-coincidence outcomes must equal trials", "value"),
    # counts that add up, with a negative or a fractional no-coincidence count
    Case(CountRecord, ("ab", [[5, 5], [0, 0]], 10, 0.0), ("ab", ((5, 5), (0, 0)), 10, 0),
         {"trials": 5, "no_coincidence": -5},
         "no_coincidence must be a nonnegative integer, got -5", "value"),
    Case(CountRecord, ("ab", [[5, 5], [0, 0]], 10, np.int64(0)), ("ab", ((5, 5), (0, 0)), 10, 0),
         {"trials": 10.5, "no_coincidence": 0.5},
         "no_coincidence must be a nonnegative integer, got 0.5", "value"),
    # counts that are not a 2x2 matrix: not iterable, or 2x3
    Case(CountRecord, ("ab", [[5, 5], [0, 0]], 10, 0), ("ab", ((5, 5), (0, 0)), 10, 0),
         {"n": 5}, "n must be a 2x2 matrix of nonnegative counts", "value"),
    Case(CountRecord, ("ab", [[5, 5], [0, 0]], 10, 0), ("ab", ((5, 5), (0, 0)), 10, 0),
         {"n": [[5, 5, 0], [0, 0, 0]]}, "n must be a 2x2 matrix of nonnegative counts", "value"),
    # a fractional count; trials that are not a nonnegative integer; trials stored as an int
    Case(CountRecord, ("ab", [[1, 0], [0, 0]], 1.0, 0), ("ab", ((1, 0), (0, 0)), 1, 0),
         {"n": [[1.9, 0], [0, 0]]}, "each count in n must be a nonnegative integer, got 1.9",
         "value"),
    Case(CountRecord, ("ab", [[5, 5], [0, 0]], np.int64(10), 0), ("ab", ((5, 5), (0, 0)), 10, 0),
         {"trials": 10.5}, "trials must be a nonnegative integer, got 10.5", "value"),
    Case(CountRecord, ("ab", [[0, 0], [0, 0]], 0, 0), ("ab", ((0, 0), (0, 0)), 0, 0),
         {"trials": -1}, "trials must be a nonnegative integer, got -1", "value"),
    Case(CountRecord, ("ab", [[0, 0], [0, 0]], 0, 0), ("ab", ((0, 0), (0, 0)), 0, 0),
         {"trials": math.inf}, "trials must be a nonnegative integer, got inf", "value"),
    Case(ChEstimate, (0.2, 0.01, {"p_ab": 0.5}), (0.2, 0.01, {"p_ab": 0.5}), {"stderr": -1.0},
         "stderr must be nonnegative", "unhashable"),
    Case(ScanGrid, (4, 5.0), (4, 5, "fixed-canonical", 0.204), {"alpha_steps": 1},
         "alpha_steps must be an integer >= 2", "value"),
    Case(ScanGrid, (4, 5.0), (4, 5, "fixed-canonical", 0.204), {"alpha_steps": math.inf},
         "alpha_steps must be an integer >= 2", "value"),
    Case(ScanGrid, (4, 5.0), (4, 5, "fixed-canonical", 0.204), {"beta_steps": math.nan},
         "beta_steps must be an integer >= 2", "value"),
    Case(ScanResult, (4, 1, (0.0, 1.0, *CANONICAL_THETAS, 0.3, True)),
         (4, 1, (0.0, 1.0, *CANONICAL_THETAS, 0.3, True)), {"rows": 0}, "scan produced no rows", "value"),
    Case(SuiteResult, ("azimuthal", True, 1e-15, 1e-9), ("azimuthal", True, 1e-15, 1e-9, ""), None,
         None, "value"),
    Case(OutputConfig, (), (None, "csv"), None, None, "value"),
    Case(RunConfig, ({"schema_version": 1}, None, None, None, None, OutputConfig()),
         ({"schema_version": 1}, None, None, None, None, OutputConfig()), None, None, "unhashable"),
]


def same(a, b) -> bool:
    """Equal type and value, tuples item by item."""
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    return a == b


def _case_id(index: int) -> str:
    """The record's name; a later row of the same record adds its rejected fields."""
    case = CASES[index]
    if all(c.cls is not case.cls for c in CASES[:index]):
        return case.cls.__name__
    return "-".join([case.cls.__name__, *(f"{k}={v}" for k, v in case.bad.items())])


@pytest.mark.parametrize("case", CASES, ids=[_case_id(i) for i in range(len(CASES))])
def test_record_semantics(case):
    cls = case.cls
    rec = cls(*case.args)
    names = cls._fields
    assert same(tuple(getattr(rec, name) for name in names), case.fields)
    # keywords give the same record as positions; omitted ones take the defaults
    assert same(cls(**dict(zip(names, case.args))), rec)

    if case.bad is not None:
        with pytest.raises(ValueError) as exc:
            cls(**{**dict(zip(names, case.fields)), **case.bad})
        assert str(exc.value) == case.message

    with pytest.raises(AttributeError):
        setattr(rec, names[0], case.fields[0])

    twin = cls(*case.args)
    if case.equality in ("value", "unhashable"):
        assert rec == twin and not rec != twin
    if case.equality == "value":
        assert hash(rec) == hash(twin)
        assert {rec: "stored"}[twin] == "stored"
    if case.equality == "unhashable":
        with pytest.raises(TypeError):
            hash(rec)

    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in names)
    assert repr(rec) == f"{cls.__name__}({fields})"
    assert same(copy.copy(rec), rec)


RECORDS = tuple(case.cls for case in CASES)


def _holds_record(value) -> bool:
    if isinstance(value, RECORDS):
        return True
    return type(value) in (list, tuple) and any(_holds_record(v) for v in value)


def test_no_record_reaches_numpy_as_a_sequence(tmp_path, monkeypatch):
    # numpy unpacks a tuple, so a record passed to np.array would turn into its fields
    def guarded(fn):
        def call(obj, *args, **kwargs):
            assert not _holds_record(obj), f"{fn.__name__} got a record: {obj!r}"
            return fn(obj, *args, **kwargs)

        return call

    monkeypatch.setattr(np, "array", guarded(np.array))
    monkeypatch.setattr(np, "asarray", guarded(np.asarray))
    config = tmp_path / "config.json"
    config.write_text(
        '{"schema_version": 1,'
        ' "experiment": {"alpha": 0.3, "beta": 1.1, "step_index": 1.7321,'
        '  "aux_phases": [0.1, 0.2, 0.3, 0.4]},'
        ' "ch": {"theta_a": 0, "theta_a_prime": "45deg", "theta_b": "22.5deg",'
        '  "theta_b_prime": "67.5deg"},'
        ' "mc": {"trials": 1000, "seed": 5},'
        ' "scan": {"alpha_steps": 3, "beta_steps": 4, "theta_policy": "optimize-per-point"}}',
        encoding="utf-8",
    )
    common = ["--config", str(config)]
    zero = [*common, "--set", "experiment.aux_phases=[0,0,0,0]"]  # ch, mc and scan refuse phases
    for argv in (["probe", *common], ["ch", *zero], ["mc", *zero, "--format", "json"],
                 ["scan", *zero, "--out", str(tmp_path / "scan.json"), "--format", "json"],
                 ["validate"]):
        assert main(argv) == 0
