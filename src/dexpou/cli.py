"""Command-line front end.

Subcommands::

    dexpou simulate    write a simulated path CSV plus a JSON metadata sidecar
    dexpou estimate    calibrate a t,x CSV; emit estimates/covariance/intervals JSON
    dexpou experiment  convergence table over path lengths and seeds
    dexpou gcurve      export the root function g(p) for uniqueness inspection

Options may come from flags or from a JSON config file (``--config``); flags
override the file.  Exit codes: 0 success, 2 input/config error, 3 typed
estimation error (the error name and stage appear in the JSON output).
Outputs are byte-deterministic in (config, seed); no timestamps are emitted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import confidence_intervals, covariance_estimate
from .errors import EstimationError
from .estimate import (
    FVector,
    compute_f,
    empirical_moments,
    estimate_all,
    estimate_theta,
    scan_g,
)
from .model import ModelParams
from .pathio import (
    _write_float_csv,
    fmt,
    metadata_path,
    read_path_csv,
    write_metadata,
    write_path_csv,
)
from .simulate import simulate_path

__all__ = ["main"]

TABLE_N_VALUES = [50, 100, 200, 300, 400, 500, 600, 1000, 2000, 3000]


def _out(default):
    """The ``--out`` option with a per-subcommand default."""
    return ("--out", str, default, "output path")


# Options as (name, type, default, help); a name without leading dashes is
# positional.  The parser and the option merge are both derived from these
# tables.  PATH_OPTIONS are shared by the two subcommands that simulate.
PATH_OPTIONS = (
    ("--theta", float, 2.0, None),
    ("--p", float, 0.6, None),
    ("--eta", float, 1.2, None),
    ("--phi", float, 1.6, None),
    ("--h", float, 0.02, None),
    ("--x0", float, 0.0, None),
    ("--burn-in", int, None, None),
    ("--seed", int, 1, None),
)
OPTIONS = {
    "simulate": PATH_OPTIONS + (
        ("--lam", float, 1.0, None),
        ("--sigma", float, 1.0, None),
        ("--n", int, 3000, None),
        ("--replication", int, 0, None),
        _out("path.csv"),
    ),
    "estimate": (
        ("input", str, None, "two-column t,x CSV with constant spacing"),
        ("--level", float, 0.95, None),
        _out(None),
    ),
    "experiment": PATH_OPTIONS + (
        ("--n-values", str, TABLE_N_VALUES, "comma-separated path lengths"),
        ("--seeds", int, 20, "replications per length"),
        _out("experiment.csv"),
    ),
    "gcurve": (
        ("--input", str, None, "t,x CSV to compute f statistics from"),
        ("--f1", float, None, None),
        ("--f2", float, None, None),
        ("--f3", float, None, None),
        ("--grid", int, 2001, None),
        _out("gcurve.csv"),
    ),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        options = _merge_options(args)
        return args.handler(options)
    except EstimationError as exc:
        print(f"error: {type(exc).__name__} (stage {exc.stage}): {exc}",
              file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dexpou",
        description="Simulation and moment calibration for the "
                    "double-exponential Ornstein-Uhlenbeck process.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "simulate": (cmd_simulate, "simulate a path to CSV"),
        "estimate": (cmd_estimate, "calibrate a t,x CSV"),
        "experiment": (cmd_experiment, "convergence table over (N, seed)"),
        "gcurve": (cmd_gcurve, "export g(p) over a grid"),
    }
    for command, (handler, summary) in handlers.items():
        cmd = sub.add_parser(command, help=summary)
        # flags default to None so that _merge_options can tell them apart
        for name, kind, _, help_text in OPTIONS[command]:
            cmd.add_argument(name, type=kind, help=help_text)
        cmd.add_argument("--config", help="JSON file with option defaults")
        cmd.set_defaults(handler=handler)
    return parser


def _fits(value, kind, default) -> bool:
    """Whether a JSON config value fits an option of type ``kind`` and
    default ``default``: a JSON integer is also a float, true/false is no
    number, null fits a null default and a list a list default
    (``n_values``) item by item."""
    if isinstance(value, list) and isinstance(default, list):
        return all(_fits(v, type(default[0]), default[0]) for v in value)
    if value is None or isinstance(value, bool):
        return value is None and default is None
    return isinstance(value, (int, float) if kind is float else kind)


def _merge_options(args: argparse.Namespace) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags.
    Each config value must fit its option's type (:func:`_fits`)."""
    # '--burn-in' is stored under 'burn_in', as argparse does
    options = {name.lstrip("-").replace("-", "_"): (kind, default)
               for name, kind, default, _ in OPTIONS[args.command]}
    merged = {key: default for key, (_, default) in options.items()}
    if args.config:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError(f"config {args.config}: expected a JSON object")
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise ValueError(
                f"config {args.config}: unknown option(s) {unknown} "
                f"for '{args.command}'"
            )
        for key, value in loaded.items():
            kind, default = options[key]
            if not _fits(value, kind, default):
                want = kind.__name__
                if isinstance(default, list):
                    want += f" or a list of {type(default[0]).__name__}"
                raise ValueError(
                    f"config {args.config}: option '{key}' must be {want}, "
                    f"got {json.dumps(value)}"
                )
        merged.update(loaded)
    for key in options:
        value = getattr(args, key)
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("n_values"), str):
        merged["n_values"] = [int(s) for s in merged["n_values"].split(",")]
    merged["command"] = args.command
    return merged


def _provenance(options: dict) -> dict:
    return {
        "tool": "dexpou",
        "version": __version__,
        "command": options["command"],
        "options": {k: v for k, v in options.items() if k != "command"},
    }


def _jsonable(obj):
    """Recursively convert to JSON-safe values; non-finite floats become
    null (an unbounded interval endpoint serializes as null)."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _write_json(payload: dict, out) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(options: dict) -> int:
    params = ModelParams(theta=options["theta"], eta=options["eta"],
                         phi=options["phi"], p=options["p"],
                         lam=options["lam"], sigma=options["sigma"])
    path = simulate_path(params, x0=options["x0"], h=options["h"],
                         n=options["n"], seed=options["seed"],
                         burn_in=options["burn_in"],
                         replication=options["replication"])
    out = options["out"]
    write_path_csv(path, out)
    write_metadata(path, out, params, extra={"provenance": _provenance(options)})
    print(out)
    return 0


def cmd_estimate(options: dict) -> int:
    _require(0 < options["level"] < 1,
             f"level must be in (0, 1), got {options['level']}")
    path = read_path_csv(options["input"])
    payload = {"provenance": _provenance(options)}
    try:
        result = estimate_all(path)
        payload["estimates"] = result.estimates_dict()
        payload["diagnostics"] = {
            "correlation_length": 1.0 / (result.theta_hat * path.h),
            "moments": asdict(result.moments),
            "f": asdict(result.f),
        }
        cov = covariance_estimate(path, result)
        payload["diagnostics"]["jacobian_condition"] = cov.jacobian_condition
        payload["covariance"] = {
            "A": cov.A, "Sigma": cov.Sigma, "n": cov.n,
            "sigma_min_eigenvalue_ratio": cov.min_eigenvalue_ratio(),
        }
        ci = confidence_intervals(result, cov, level=options["level"])
        payload["intervals"] = {
            "level": ci.level,
            **{name: list(lohi) for name, lohi in sorted(ci.intervals.items())},
        }
        payload["warnings"] = list(ci.warnings)
    except EstimationError as exc:
        payload["error"] = {
            "name": type(exc).__name__,
            "stage": exc.stage,
            "message": str(exc),
        }
        _write_json(payload, options["out"])
        return 3
    _write_json(payload, options["out"])
    return 0


def cmd_experiment(options: dict) -> int:
    n_values = sorted(set(int(n) for n in options["n_values"]))
    _require(len(n_values) > 0, "n_values must be non-empty")
    _require(min(n_values) >= 2, f"n_values must all be >= 2, got {min(n_values)}")
    _require(options["seeds"] >= 1, f"seeds must be >= 1, got {options['seeds']}")
    params = ModelParams(theta=options["theta"], eta=options["eta"],
                         phi=options["phi"], p=options["p"])
    params.require_unit_scale()
    n_max = max(n_values)
    # Replication j keeps one stream for every N: shorter rows are prefixes of
    # the same trajectory, a single growing observation window per seed.  The
    # trajectory itself depends on n_max, so cells match only within a run.
    cells = {}
    for j in range(options["seeds"]):
        full = simulate_path(params, x0=options["x0"], h=options["h"],
                             n=n_max, seed=options["seed"],
                             burn_in=options["burn_in"], replication=j)
        for n in n_values:
            try:
                r = estimate_all(replace(full, values=full.values[:n]))
                cells[(n, j)] = (r.p_hat, r.eta_hat, r.phi_hat, r.theta_hat, "")
            except EstimationError as exc:
                cells[(n, j)] = (None, None, None, None, type(exc).__name__)

    out = options["out"]
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["N", "seed", "p_hat", "eta_hat", "phi_hat",
                         "theta_hat", "error"])
        for n in n_values:
            block = []
            for j in range(options["seeds"]):
                p_h, eta_h, phi_h, th_h, err = cells[(n, j)]
                row = [n, j] + ["" if v is None else fmt(v)
                                for v in (p_h, eta_h, phi_h, th_h)] + [err]
                writer.writerow(row)
                if not err:
                    block.append((p_h, eta_h, phi_h, th_h))
            if block:
                # the summaries are over the fits that succeeded
                failed = options["seeds"] - len(block)
                note = f"{failed} of {options['seeds']} failed" if failed else ""
                arr = np.array(block)
                med = np.median(arr, axis=0)
                q25, q75 = np.percentile(arr, [25, 75], axis=0)
                writer.writerow([n, "median"] + [fmt(v) for v in med] + [note])
                writer.writerow([n, "iqr"] + [fmt(v) for v in q75 - q25]
                                + [note])
            else:
                writer.writerow([n, "median", "", "", "", "", "all cells failed"])
    _write_json({"provenance": _provenance(options)}, metadata_path(out))
    print(out)
    return 0


def cmd_gcurve(options: dict) -> int:
    if options["input"] is not None:
        path = read_path_csv(options["input"])
        moments = empirical_moments(path)
        f = compute_f(moments, estimate_theta(moments))
    elif all(options[k] is not None for k in ("f1", "f2", "f3")):
        f = FVector(f1=options["f1"], f2=options["f2"], f3=options["f3"])
    else:
        raise ValueError("gcurve needs either --input or all of --f1/--f2/--f3")

    scan = scan_g(f, options["grid"])
    gprime = np.gradient(scan.g, scan.grid)
    _write_float_csv(options["out"], ("p", "g", "g_prime"),
                     (scan.grid, scan.g, gprime))
    print(f"sign_change_count={len(scan.brackets)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
