"""Independent reference physics and the output check of every command kind.

Nothing here imports `oamch`: the expected values come from a short numpy
re-derivation of the model, so a defect in the program cannot also hide in
its reference.

- Plate overlap, for wrapped orientations m >= n with d = m - n:
  I = exp(-i*L*d) * (2*pi - d*(1 - exp(2*pi*i*L))), and its conjugate when
  m < n.
- K[k, m] = I(alpha_k, beta_m) over the plate pairs (alpha, alpha + pi) and
  (beta, beta + pi).  Coincidence probabilities are |(Ua K Ub^T)_ij / 2|^2,
  where U is the output splitter with the per-arm phases; the per-channel
  factors of i are unit phases and drop out of every probability.
- With zero phases each analyzer measures cos(2t)*sz - sin(2t)*sx on the
  normalized state vec(K).  The CH parameter is then (CHSH - 2)/4, and its
  maximum over the four splitter angles is (|M|_F - 1)/2, where M is the x-z
  block of the correlation tensor (Horodecki criterion for coplanar
  settings).

`check(cmd, returncode, stdout, artifact)` returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

TAU = 2.0 * math.pi
MAX_VIOLATION = (math.sqrt(2.0) - 1.0) / 2.0
CANONICAL = (0.0, math.pi / 4.0, math.pi / 8.0, 3.0 * math.pi / 8.0)
SUITES = ("azimuthal", "coincidence", "appendix-a", "sign-check")

# Tolerances.  Text output has 9 significant digits (rounding error at most
# 5e-9 relative); JSON output carries every digit, so only the different
# order of floating-point operations separates it from the reference.
TEXT_REL = 6e-9
JSON_REL = 1e-12
OPTIMUM_ABS = 1e-9
MC_SIGMAS = 5.0


# --------------------------------------------------------------- reference

def parse_angle(value) -> float:
    if isinstance(value, str):
        text = value.strip().lower()
        if text.endswith("deg"):
            return float(text[:-3]) * math.pi / 180.0
        if text.endswith("rad"):
            return float(text[:-3])
        raise ValueError(f"angle string without unit: {value!r}")
    return float(value)


def _wrap(x):
    r = np.mod(np.asarray(x, dtype=float), TAU)
    return np.where(r >= TAU, 0.0, r)


def overlap(mu, nu, step: float):
    m, n = _wrap(mu), _wrap(nu)
    d = np.abs(m - n)
    value = np.exp(-1j * step * d) * (TAU - d * (1.0 - np.exp(1j * TAU * step)))
    return np.where(m < n, np.conj(value), value)


def overlap_matrix(alpha, beta, step: float) -> np.ndarray:
    """K with shape alpha.shape + (2, 2); alpha and beta broadcast."""
    a = _wrap(alpha)
    b = _wrap(beta)
    plates_a = (a, _wrap(a + math.pi))
    plates_b = (b, _wrap(b + math.pi))
    rows = [np.stack([overlap(pa, pb, step) for pb in plates_b], axis=-1) for pa in plates_a]
    return np.stack(rows, axis=-2)


def _splitter(theta: float, phase_1: float = 0.0, phase_2: float = 0.0) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    p1, p2 = np.exp(1j * phase_1), np.exp(1j * phase_2)
    return np.array([[p1 * c, -p2 * s], [p1 * s, p2 * c]])


def probabilities(k: np.ndarray, theta_a: float, theta_b: float, aux=(0.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """Unnormalized p_ij for one setting."""
    c = 0.5 * _splitter(theta_a, aux[0], aux[1]) @ k @ _splitter(theta_b, aux[2], aux[3]).T
    return np.abs(c) ** 2


def _row(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.cos(t), -np.sin(t)], axis=-1)


def ch_terms(k: np.ndarray, ta, ta_p, tb, tb_p) -> dict:
    """The six CH probabilities and S; k has shape (..., 2, 2), angles broadcast."""
    def joint(t1, t2):
        return np.abs(0.5 * np.einsum("...k,...km,...m->...", _row(t1), k, _row(t2))) ** 2

    joints = (joint(ta, tb), joint(ta, tb_p), joint(ta_p, tb), joint(ta_p, tb_p))
    marg_a = 0.25 * np.sum(np.abs(np.einsum("...k,...km->...m", _row(ta_p), k)) ** 2, axis=-1)
    marg_b = 0.25 * np.sum(np.abs(np.einsum("...km,...m->...k", k, _row(tb))) ** 2, axis=-1)
    total = 0.25 * np.sum(np.abs(k) ** 2, axis=(-2, -1))
    s = (joints[0] - joints[1] + joints[2] + joints[3] - marg_a - marg_b) / total
    return {"joint": joints, "marg_a": marg_a, "marg_b": marg_b, "total": total, "s": s}


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def optimal_s(k: np.ndarray):
    """max S over the four splitter angles, in closed form; k has shape (..., 2, 2)."""
    norm = np.sum(np.abs(k) ** 2, axis=(-2, -1))
    block = [[np.einsum("...km,kl,...lm->...", np.conj(k), si, k @ sj.T).real / norm
              for sj in (_SX, _SZ)] for si in (_SX, _SZ)]
    frobenius = np.sqrt(sum(v * v for row in block for v in row))
    return (frobenius - 1.0) / 2.0


def estimate_s(counts: list, trials: int) -> float:
    """The CH estimator from the four runs' 2x2 counts (protocol order ab, ab', a'b, a'b')."""
    f = [np.asarray(n, dtype=float) / trials for n in counts]
    p_a_prime = (f[2][0, 0] + f[2][0, 1] + f[3][0, 0] + f[3][0, 1]) / 2.0
    p_b = (f[0][0, 0] + f[0][1, 0] + f[2][0, 0] + f[2][1, 0]) / 2.0
    p_total = sum(x.sum() for x in f) / 4.0
    return (f[0][0, 0] - f[1][0, 0] + f[2][0, 0] + f[3][0, 0] - p_a_prime - p_b) / p_total


# ------------------------------------------------------------ config views

def _effective(cmd: dict) -> dict:
    doc = json.loads(json.dumps(cmd["config"]))
    for section, values in cmd["overrides"].items():
        doc.setdefault(section, {}).update(values)
    return doc


def _experiment(doc: dict):
    e = doc["experiment"]
    step = float(e["step_index"])
    k = overlap_matrix(parse_angle(e.get("alpha", 0.0)), parse_angle(e.get("beta", 0.0)), step)
    aux = tuple(parse_angle(p) for p in e.get("aux_phases", (0.0, 0.0, 0.0, 0.0)))
    return k, parse_angle(e.get("theta_a", 0.0)), parse_angle(e.get("theta_b", 0.0)), aux


def _ch_reference(doc: dict) -> dict:
    k, _, _, _ = _experiment(doc)
    c = doc["ch"]
    angles = [parse_angle(c[n]) for n in ("theta_a", "theta_a_prime", "theta_b", "theta_b_prime")]
    return {key: (tuple(float(x) for x in v) if key == "joint" else float(v))
            for key, v in ch_terms(k, *angles).items()}


def _compare(problems: list, label: str, got, want, rel: float, scale: float) -> None:
    """Relative agreement, with an absolute floor of 1e-12 * scale for values near zero."""
    got = np.asarray(got, dtype=float).ravel()
    want = np.asarray(want, dtype=float).ravel()
    if got.shape != want.shape:
        problems.append(f"{label}: {got.size} values, expected {want.size}")
        return
    bad = np.flatnonzero(~(np.abs(got - want) <= rel * np.abs(want) + 1e-12 * scale))
    if bad.size:
        i = int(bad[0])
        problems.append(f"{label}: got {got[i]!r}, reference {want[i]!r} (item {i})")


def _values(text: str) -> list[float]:
    """The numbers after each ' = ' in a line of text output."""
    return [float(v) for v in re.findall(r"= (\S+)", text)]


def _row_values(line: str) -> list[float]:
    return [float(v) for v in line.split()]


# ------------------------------------------------------------------ checks

def _check_probe(cmd: dict, stdout: str, problems: list) -> None:
    doc = _effective(cmd)
    k, ta, tb, aux = _experiment(doc)
    p = probabilities(k, ta, tb, aux)
    total = float(p.sum())
    ref = {"p": p, "lambda_sq": p / total, "a": p[0, 0] + p[0, 1], "b": p[0, 0] + p[1, 0],
           "total": total}
    closed_ref = (p[0, 0], ref["a"], ref["b"], total)
    closed_form = "--closed-form" in cmd["args"]
    if "json" in cmd["args"]:
        res = json.loads(stdout)["results"]
        got = {"p": res["p"], "lambda_sq": res["lambda_sq"], "a": res["p_a_marginal"],
               "b": res["p_b_marginal"], "total": res["p_total"]}
        rel = JSON_REL
        closed = res.get("closed_form")
        closed = None if closed is None else [closed[n] for n in ("joint", "a_marginal", "b_marginal", "total")]
    else:
        lines = stdout.splitlines()
        head = {line.rstrip(":"): i for i, line in enumerate(lines) if line.endswith(":")}
        pi = head["unnormalized p_ij (radial constant omitted)"]
        li = head["normalized |lambda_ij|^2"]
        m = _values(next(line for line in lines if line.startswith("marginals:")))
        got = {"p": [_row_values(lines[pi + 1]), _row_values(lines[pi + 2])],
               "lambda_sq": [_row_values(lines[li + 1]), _row_values(lines[li + 2])],
               "a": m[0], "b": m[1], "total": m[2]}
        rel = TEXT_REL
        cl = [line for line in lines if line.startswith("closed form:")]
        closed = _values(cl[0]) if cl else None
    for key in ("p", "a", "b", "total"):
        _compare(problems, f"probe {key}", got[key], ref[key], rel, total)
    _compare(problems, "probe lambda_sq", got["lambda_sq"], ref["lambda_sq"], rel, 1.0)
    if abs(float(np.sum(got["lambda_sq"])) - 1.0) > 4 * rel:
        problems.append(f"probe lambda_sq sums to {np.sum(got['lambda_sq'])!r}, not 1")
    if closed_form != (closed is not None):
        problems.append("probe closed-form block missing or unexpected")
    elif closed is not None:
        # An independent closed form: agreement is limited by the 9 printed digits
        # or, in JSON, by the appendix-a oracle tolerance.
        _compare(problems, "probe closed form", closed, closed_ref, max(rel, 1e-9), total)


_CH_TEXT = ("P(a ,b )", "P(a ,b')", "P(a',b )", "P(a',b')", "P(a',inf)", "P(inf,b )", "P(inf,inf)")


def _check_ch(cmd: dict, stdout: str, problems: list) -> None:
    ref = _ch_reference(_effective(cmd))
    want = [*ref["joint"], ref["marg_a"], ref["marg_b"], ref["total"]]
    if "json" in cmd["args"]:
        res = json.loads(stdout)["results"]
        pj = res["p_joint"]
        got = [pj["ab"], pj["ab_prime"], pj["a_prime_b"], pj["a_prime_b_prime"],
               res["p_a_prime_marginal"], res["p_b_marginal"], res["p_total"]]
        _compare(problems, "ch probabilities", got, want, JSON_REL, ref["total"])
        _compare(problems, "ch S", res["s"], ref["s"], JSON_REL, 1.0)
        if res["violated"] != (ref["s"] > 0.0):
            problems.append("ch violated flag disagrees with the reference S")
        return
    values = {}
    for line in stdout.splitlines():
        label, _, value = line.partition(" = ")
        if value:
            values[label] = value
    got = [float(values[label]) for label in _CH_TEXT]
    _compare(problems, "ch probabilities", got, want, TEXT_REL, ref["total"])
    s = float(values["S"])
    if abs(s - ref["s"]) > 5.01e-8:  # printed to 7 decimals
        problems.append(f"ch S: got {s!r}, reference {ref['s']!r}")
    if "--assert-violation" in cmd["args"] and not ref["s"] > 0.0:
        problems.append("ch --assert-violation on a setting the reference says does not violate")


def _check_mc(cmd: dict, stdout: str, problems: list) -> None:
    doc = _effective(cmd)
    ref = _ch_reference(doc)
    trials = int(doc["mc"]["trials"])
    if "json" in cmd["args"]:
        res = json.loads(stdout)["results"]
        counts = [r["counts"] for r in res["runs"]]
        none = [r["no_coincidence"] for r in res["runs"]]
        s_hat, stderr, s_tol = res["s_hat"], res["stderr"], 1e-12
        if res["seed"] != doc["mc"]["seed"] or res["trials_per_run"] != trials:
            problems.append("mc echoes the wrong seed or trial count")
        for r, n in zip(res["runs"], counts):
            _compare(problems, "mc frequencies", r["frequencies"], np.asarray(n) / trials, JSON_REL, 1.0)
    else:
        runs = re.findall(r"counts \[\[(\d+), (\d+)\], \[(\d+), (\d+)\]\] none=(\d+)", stdout)
        counts = [[[int(r[0]), int(r[1])], [int(r[2]), int(r[3])]] for r in runs]
        none = [int(r[4]) for r in runs]
        found = re.search(r"S_hat = (\S+) \+/- (\S+)", stdout)
        s_hat, stderr, s_tol = float(found.group(1)), float(found.group(2)), 5.01e-8
        if f"seed: {doc['mc']['seed']}" not in stdout:
            problems.append("mc echoes the wrong seed")
    if len(counts) != 4:
        problems.append(f"mc printed {len(counts)} runs, expected 4")
        return
    for n, z in zip(counts, none):
        if sum(map(sum, n)) + z != trials:
            problems.append(f"mc counts {n} plus none={z} do not sum to {trials} trials")
    if abs(estimate_s(counts, trials) - s_hat) > s_tol:
        problems.append(f"mc S_hat {s_hat!r} does not follow from the printed counts")
    if not abs(s_hat - ref["s"]) <= MC_SIGMAS * stderr:
        problems.append(f"mc |S_hat - S| = {abs(s_hat - ref['s']):.3g} exceeds {MC_SIGMAS} x stderr {stderr!r}")


def _grid(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    scan = doc["scan"]
    alphas = np.linspace(0.0, TAU, int(scan["alpha_steps"]), endpoint=False)
    betas = np.linspace(0.0, TAU, int(scan["beta_steps"]), endpoint=False)
    return np.repeat(alphas, betas.size), np.tile(betas, alphas.size)


def _check_scan_optimized(cmd: dict, artifact: str, problems: list) -> None:
    doc = _effective(cmd)
    rows = json.loads(artifact)["results"]["rows"]
    alpha, beta = _grid(doc)
    if len(rows) != alpha.size:
        problems.append(f"scan wrote {len(rows)} rows, expected {alpha.size}")
        return
    got = {key: np.array([r[key] for r in rows], dtype=float)
           for key in ("alpha", "beta", "theta_a", "theta_a_prime", "theta_b", "theta_b_prime", "s")}
    _compare(problems, "scan alpha", got["alpha"], alpha, JSON_REL, TAU)
    _compare(problems, "scan beta", got["beta"], beta, JSON_REL, TAU)
    k = overlap_matrix(alpha, beta, float(doc["experiment"]["step_index"]))
    best = optimal_s(k)
    worst = int(np.argmax(np.abs(got["s"] - best)))
    if not abs(got["s"][worst] - best[worst]) <= OPTIMUM_ABS:
        problems.append(f"scan row {worst}: S = {got['s'][worst]!r}, closed-form optimum {best[worst]!r}")
    if not np.all(got["s"] <= MAX_VIOLATION + OPTIMUM_ABS):
        problems.append(f"scan S = {got['s'].max()!r} exceeds the maximum violation")
    at_angles = ch_terms(k, got["theta_a"], got["theta_a_prime"], got["theta_b"], got["theta_b_prime"])["s"]
    _compare(problems, "scan S at the reported angles", got["s"], at_angles, JSON_REL, 1.0)
    threshold = float(doc["scan"]["threshold"])
    if any(r["exceeds_threshold"] != (r["s"] > threshold) for r in rows):
        problems.append("scan exceeds_threshold flag disagrees with S")


def _check_scan_canonical(cmd: dict, artifact: str, problems: list) -> None:
    doc = _effective(cmd)
    lines = artifact.splitlines()
    header = "alpha,beta,theta_a,theta_a_prime,theta_b,theta_b_prime,S,exceeds_threshold"
    if not lines or lines[0] != header:
        problems.append("scan CSV header missing or wrong")
        return
    alpha, beta = _grid(doc)
    if len(lines) - 1 != alpha.size:
        problems.append(f"scan CSV has {len(lines) - 1} rows, expected {alpha.size}")
        return
    cells = [line.split(",") for line in lines[1:]]
    values = np.array([c[:7] for c in cells], dtype=float)
    flags = [c[7] for c in cells]
    k = overlap_matrix(alpha, beta, float(doc["experiment"]["step_index"]))
    s = ch_terms(k, *CANONICAL)["s"]
    _compare(problems, "scan CSV alpha", values[:, 0], alpha, TEXT_REL, TAU)
    _compare(problems, "scan CSV beta", values[:, 1], beta, TEXT_REL, TAU)
    for j, theta in enumerate(CANONICAL):
        _compare(problems, "scan CSV theta", values[:, 2 + j], np.full(alpha.size, theta), TEXT_REL, 1.0)
    _compare(problems, "scan CSV S", values[:, 6], s, TEXT_REL, 1.0)
    threshold = float(doc["scan"]["threshold"])
    clear = np.abs(s - threshold) > 1e-12  # the flag comes from the unrounded S
    want = np.where(s > threshold, "true", "false")
    if any(f != w for f, w, c in zip(flags, want, clear) if c):
        problems.append("scan CSV exceeds_threshold flag disagrees with the reference S")


_SUITE_LINE = re.compile(r"suite (\S+)\s+(PASS|FAIL)\s+max error (\S+) \(tolerance (\S+)\)")


def _check_validate(stdout: str, problems: list) -> None:
    found = [_SUITE_LINE.match(line) for line in stdout.splitlines()]
    found = [m for m in found if m]
    if tuple(m.group(1) for m in found) != SUITES:
        problems.append(f"validate printed suites {[m.group(1) for m in found]}, expected {list(SUITES)}")
    for m in found:
        if m.group(2) != "PASS" or not float(m.group(3)) <= float(m.group(4)):
            problems.append(f"validate suite {m.group(1)}: {m.group(0)}")


def check(cmd: dict, returncode: int, stdout: str, artifact: str | None) -> list[str]:
    """Problems with one command's output; empty when it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}, expected 0"]
    if cmd["artifact"] and artifact is None:
        return [f"exit code 0 but no artifact at {cmd['artifact']}"]
    problems: list[str] = []
    kind = cmd["kind"]
    try:
        if kind == "probe":
            _check_probe(cmd, stdout, problems)
        elif kind == "ch":
            _check_ch(cmd, stdout, problems)
        elif kind == "mc":
            _check_mc(cmd, stdout, problems)
        elif kind == "scan-optimized":
            _check_scan_optimized(cmd, artifact, problems)
        elif kind == "scan-canonical":
            _check_scan_canonical(cmd, artifact, problems)
        elif kind == "validate":
            _check_validate(stdout, problems)
        else:
            problems.append(f"no check for command kind {kind!r}")
    except (KeyError, IndexError, ValueError, TypeError, AttributeError, StopIteration) as exc:
        problems.append(f"unreadable {kind} output: {type(exc).__name__}: {exc}")
    return problems
