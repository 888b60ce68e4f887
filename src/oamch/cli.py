"""Command-line interface.

Subcommands wrap the library one capability each: `probe` (one setting's
probabilities), `ch` (the CH table and S), `mc` (finite-statistics counting
runs), `scan` (the alpha-beta violation landscape), and `validate` (the
analytic-vs-quadrature suites).  Every command is deterministic given its
full config, including the seed.

Every JSON output (`--format json`, the JSON scan artifact, the scan summary) is
`json.dumps(indent=2, sort_keys=True)` of one document: `schema_version`, `command`,
`inputs_echo` (the config after `--set`) and `results`.  The summary's results are
`artifact`, `format`, `rows`, `threshold`, `exceeding` and `best`.

Exit codes: 0 success, 1 assertion or suite failure or an `mc` run without
coincidences, 2 config error, 3 output I/O error, a failed or closed stdout
included, 130 interrupted (SIGINT), which leaves a partial scan artifact.
"""

from __future__ import annotations

import argparse
import errno
import json
import operator
import os
import sys
from pathlib import Path

from .coincidence import (amplitude_matrix, ch_parameter, ch_violated, closed_form_from_settings,
                          normalized_amplitudes)
from .config import OUTPUT_FORMATS, SCHEMA_VERSION, ConfigError, RunConfig, load_config
from .montecarlo import (
    RNG_ALGORITHM,
    InsufficientStatisticsError,
    estimate_S,
    frequency,
    simulate_ch_runs,
)
from .search import FIXED_THETAS, scan_alpha_beta
from .validate import SUITE_NAMES, run_suites, select_suites


def _g9(x: float) -> str:
    """Nine significant digits, locale-independent."""
    return format(float(x), ".9g")


def _document(command: str, config: RunConfig, results: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs_echo": config.raw,
        "results": results,
    }


def _dump(command: str, config: RunConfig, results: dict) -> str:
    return json.dumps(_document(command, config, results), indent=2, sort_keys=True)


def _emit(lines: list[str], out_path: str | None = None, fmt: str = "text", doc: tuple = ()) -> None:
    """Write `lines`, or `_dump(*doc)` if `fmt` is "json", and a newline to `out_path` or stdout, flushed."""
    text = _dump(*doc) if fmt == "json" else "\n".join(lines)
    if out_path is None:
        if sys.stdout is None:  # fd 1 was closed when the interpreter started
            raise OSError(errno.EBADF, "stdout is closed")
        sys.stdout.write(text + "\n")
        sys.stdout.flush()
    else:
        Path(out_path).write_text(text + "\n", encoding="utf-8")


def _matrix_lines(label: str, m) -> list[str]:
    return [
        f"{label}:",
        f"  {_g9(m[0][0])}  {_g9(m[0][1])}",
        f"  {_g9(m[1][0])}  {_g9(m[1][1])}",
    ]


def _require(section, name: str):
    if section is None:
        raise ConfigError(f"this command requires the {name!r} config section")
    return section


def _require_zero_aux_phases(settings, command: str) -> None:
    """Refuse the phases that the CH settings and landscape leave out."""
    if settings.has_aux_phases:
        raise ConfigError(f"{command} requires zero auxiliary phases (experiment.aux_phases)")


def cmd_probe(config: RunConfig, args: argparse.Namespace) -> int:
    settings = _require(config.experiment, "experiment")
    m = amplitude_matrix(settings)
    results = {
        "p": m.p,
        "lambda_sq": normalized_amplitudes(m).p,
        "p_a_marginal": m.p[0][0] + m.p[0][1],
        "p_b_marginal": m.p[0][0] + m.p[1][0],
        "p_total": m.p_total,
    }
    lines = _matrix_lines("unnormalized p_ij (radial constant omitted)", m.p)
    lines += _matrix_lines("normalized |lambda_ij|^2", results["lambda_sq"])
    lines.append(
        f"marginals: P(theta_a,inf) = {_g9(results['p_a_marginal'])}  "
        f"P(inf,theta_b) = {_g9(results['p_b_marginal'])}  P(inf,inf) = {_g9(m.p_total)}"
    )
    if args.closed_form:
        try:
            closed = closed_form_from_settings(settings)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        names = ("joint", "a-marginal", "b-marginal", "total")
        results["closed_form"] = {name.replace("-", "_"): v for name, v in zip(names, closed)}
        lines.append("closed form: " + "  ".join(f"{name} = {_g9(v)}" for name, v in zip(names, closed)))
    _emit(lines, args.out, args.format, (args.command, config, results))
    return 0


def cmd_ch(config: RunConfig, args: argparse.Namespace) -> int:
    cfg = _require(config.ch, "ch")
    _require_zero_aux_phases(config.experiment, "ch")
    result = ch_parameter(cfg)
    violated, margin = ch_violated(result)
    results = {
        "s": result.s,
        "p_joint": dict(zip(("ab", "ab_prime", "a_prime_b", "a_prime_b_prime"), result.p_joint)),
        "p_a_prime_marginal": result.p_marg_a,
        "p_b_marginal": result.p_marg_b,
        "p_total": result.p_total,
        "violated": violated,
        "margin": margin,
    }
    labels = ("P(a ,b )", "P(a ,b')", "P(a',b )", "P(a',b')", "P(a',inf)", "P(inf,b )", "P(inf,inf)")
    values = (*result.p_joint, result.p_marg_a, result.p_marg_b, result.p_total)
    lines = [f"{lab} = {_g9(v)}" for lab, v in zip(labels, values)]
    lines.append(f"S = {result.s:.7f}")
    lines.append(f"CH violated (S > 0): {'yes' if violated else 'no'}")
    _emit(lines, args.out, args.format, (args.command, config, results))

    if args.assert_violation and not violated:
        print(f"assertion failed: S = {result.s:.7f} <= 0", file=sys.stderr)
        return 1
    return 0


def cmd_mc(config: RunConfig, args: argparse.Namespace) -> int:
    cfg = _require(config.ch, "ch")
    mc = _require(config.mc, "mc")
    _require_zero_aux_phases(config.experiment, "mc")
    runs = simulate_ch_runs(cfg, mc)
    est = estimate_S(runs)
    results = {
        "rng": RNG_ALGORITHM,
        "trials_per_run": mc.trials,
        "efficiency_a": mc.efficiency_a,
        "efficiency_b": mc.efficiency_b,
        "seed": mc.seed,
        "runs": [
            {
                "setting": r.setting_label,
                "counts": r.n,
                "no_coincidence": r.no_coincidence,
                "frequencies": frequency(r),
            }
            for r in runs
        ],
        "terms": est.terms,
        "s_hat": est.s_hat,
        "stderr": est.stderr,
    }
    lines = [f"rng: {RNG_ALGORITHM}", f"trials per run: {mc.trials}  seed: {mc.seed}"]
    for r, run in zip(runs, results["runs"]):
        f = run["frequencies"]
        lines.append(
            f"run {r.setting_label:4s} counts "
            f"[[{r.n[0][0]}, {r.n[0][1]}], [{r.n[1][0]}, {r.n[1][1]}]] "
            f"none={r.no_coincidence}"
        )
        lines += [f"  F = {_g9(f[0][0])}  {_g9(f[0][1])}", f"      {_g9(f[1][0])}  {_g9(f[1][1])}"]
    lines.append(f"S_hat = {est.s_hat:.7f} +/- {est.stderr:.7f}")
    _emit(lines, args.out, args.format, (args.command, config, results))
    return 0


_CSV_HEADER = "alpha,beta,theta_a,theta_a_prime,theta_b,theta_b_prime,S,exceeds_threshold"
_ROW_KEYS = ("alpha", "beta", "theta_a", "theta_a_prime", "theta_b", "theta_b_prime", "s",
             "exceeds_threshold")


def _layout(start: str, sep: str, end: str, cells: dict, thetas=None) -> tuple:
    """A row's alpha part and beta part, as templates, and its tail, as a scan `tail` function.

    The row is `start`, `cells` (alpha and beta first) joined by `sep`, and
    `end`; angles given as `thetas`, the same on every row, are written in once.
    """
    names = list(cells)[2:]
    if thetas is not None:
        cells = {**cells, **{k: cells[k] % x for k, x in zip(_ROW_KEYS[2:6], thetas)}}
        names = [k for k in names if k not in _ROW_KEYS[2:6]]
    tail = sep.join(list(cells.values())[2:]) + end
    order = operator.itemgetter(*map(_ROW_KEYS[2:].index, names))

    def text(thetas, s, flag) -> str:
        return tail % order((*thetas, s, "true" if flag else "false"))

    return start + cells["alpha"] + sep, cells["beta"] + sep, text


# A row of each artifact, a %-conversion per cell.  "%.9g" is format(x, ".9g"),
# and "%r" json's text of a finite float (a scan's angles and S are finite).  A
# JSON row, as `json.dumps(indent=2, sort_keys=True)` writes it inside
# `results.rows`, starts with the ",\n" that separates it.
_CSV_ROW = ("", ",", "\n", {k: "%s" if k == "exceeds_threshold" else "%.9g" for k in _ROW_KEYS})
_JSON_ROW = (",\n      {\n", ",\n", "\n      }", {
    k: f'        "{k}": ' + ("%s" if k == "exceeds_threshold" else "%r") for k in sorted(_ROW_KEYS)})


def _write_rows(fh, scan, row: tuple, skip: int = 0) -> None:
    """Write the scan's rows laid out as `row`, less the first `skip` characters, a chunk at a time."""
    alpha, beta, _ = row
    columns = cells = None
    for alphas, betas, tails in scan:
        if betas != columns:  # chunks of whole alpha rows share their betas
            columns, cells = betas, [beta % b for b in betas]
        # a row is its alpha's part, its beta's part and its tail
        pieces, width = [None] * (3 * len(tails)), 3 * len(betas)
        for k, a in enumerate(alphas):
            pieces[k * width:(k + 1) * width:3] = [alpha % a] * len(betas)
        pieces[1::3] = cells * len(alphas)
        pieces[2::3] = tails
        fh.write("".join(pieces)[skip:])
        skip = 0


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> int:
    grid = _require(config.scan, "scan")
    settings = _require(config.experiment, "experiment")
    _require_zero_aux_phases(settings, "scan")
    out_path = args.out or config.output.path
    if out_path is None:
        raise ConfigError("scan needs an output path (--out or output.path)")
    fmt = args.format or config.output.format

    row = _layout(*(_JSON_ROW if fmt == "json" else _CSV_ROW), FIXED_THETAS.get(grid.theta_policy))
    # open first, so an unwritable path fails before the landscape is computed
    with open(out_path, "w", encoding="utf-8") as fh:
        scan = scan_alpha_beta(grid, settings.step_index, row[2])
        if fmt == "json":
            # a scan for the best row, which the document puts before the rows, formats nothing
            first = scan_alpha_beta(grid, settings.step_index, lambda thetas, s, flag: None)
            for _ in first:
                pass
            best = dict(zip(_ROW_KEYS, first.result.best))
            head, tail = _dump("scan", config, {"rows": [], "best": best}).rsplit('"rows": []', 1)
            fh.write(head + '"rows": [\n')
            _write_rows(fh, scan, row, skip=2)
            fh.write("\n    ]" + tail + "\n")
        else:
            fh.write(_CSV_HEADER + "\n")
            _write_rows(fh, scan, row)

    rows, exceeding, best = scan.result
    summary = {"artifact": str(out_path), "format": fmt, "rows": rows, "threshold": grid.threshold,
               "exceeding": exceeding, "best": dict(zip(_ROW_KEYS, best))}
    _emit([], None, "json", ("scan-summary", config, summary))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    names = None
    if args.suites is not None:
        names = [n.strip() for n in args.suites.split(",") if n.strip()]
    try:
        select_suites(names)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    results = run_suites(names)
    lines = [f"suite {r.name:12s} {'PASS' if r.passed else 'FAIL'}  max error {r.max_error:.3e} "
             f"(tolerance {r.tolerance:.1e}) - {r.detail}" for r in results]
    _emit(lines)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oamch",
        description=(
            "Simulate Clauser-Horne tests of two-photon orbital-angular-momentum "
            "entanglement analyzed by spiral-plate Mach-Zehnder interferometers."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], default_fmt) -> None:
        p.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override one config value (repeatable)",
        )
        p.add_argument("--out", default=None, metavar="PATH", help="write output to PATH")
        p.add_argument("--format", choices=formats, default=default_fmt)

    probe = sub.add_parser("probe", help="probabilities and normalized state for one setting")
    add_common(probe, ("text", "json"), "text")
    probe.add_argument(
        "--closed-form",
        action="store_true",
        help="also evaluate the aligned-misalignment closed forms (zero aux phases only)",
    )

    ch = sub.add_parser("ch", help="the six CH probabilities and the parameter S")
    add_common(ch, ("text", "json"), "text")
    ch.add_argument(
        "--assert-violation",
        action="store_true",
        help="exit 1 unless S > 0",
    )

    mc = sub.add_parser("mc", help="simulated counting runs and the estimated S")
    add_common(mc, ("text", "json"), "text")

    scan = sub.add_parser("scan", help="S landscape over the alpha-beta grid")
    add_common(scan, OUTPUT_FORMATS, None)

    validate = sub.add_parser("validate", help="analytic-vs-quadrature oracle suites")
    validate.add_argument(
        "--suites",
        default=None,
        metavar="LIST",
        help=f"comma-separated subset of: {', '.join(SUITE_NAMES)}",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    commands = {"probe": cmd_probe, "ch": cmd_ch, "mc": cmd_mc, "scan": cmd_scan}
    try:
        if args.command == "validate":
            return cmd_validate(args)
        return commands[args.command](load_config(args.config, args.overrides), args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InsufficientStatisticsError as exc:
        print(f"insufficient statistics: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        try:
            if sys.stdout is not None:
                sys.stdout.flush()
        except OSError:  # stdout failed: point fd 1 at devnull, or the flush at exit fails again
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
