"""Command-line surface.

Subcommands: `analytic` (closed-form figures), `simulate` (cycle sampler
or timeline), `validate` (analytic vs Monte Carlo report), `sweep`
(figure-data tables).  Configuration comes from an optional flat
key-value config file plus flags; flags win.  Every command echoes its
effective configuration (all defaults included, and the seed of the
randomized commands) so a run is reproducible from its own output, and
no output contains timestamps.

Exit codes: 0 success, 1 validation failed, 2 configuration error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .analytic import baseline_power_saved, energy_figures
from .experiments import (FIGURE_PRESETS, METRICS, SweepGrid, emit_table,
                          figure_preset, run_sweep, run_validation)
from .params import CANONICAL, Fidelity, ModelParams, ParamError, parse_speed
from .simulate import (RngSpec, default_window, estimate_energy,
                       run_timeline, sample_cycles)

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3

_PARAM_KEYS = ("rho", "r0", "D", "P0", "Ec")

#: Keys a config file cannot set: the subcommand and the per-run flags.
_NOT_CONFIG = ("command", "config", "format", "out", "json_errors")


class ConfigError(ValueError):
    pass


def read_config(path: str) -> Dict[str, str]:
    """Parse a flat key = value config document.

    One assignment per line; `#` starts a comment; values may be quoted
    strings, bare scalars, or bracketed comma lists.  Keys mirror the
    command-line flag names.
    """
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
                value = value[1:-1]
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if not value:
                raise ConfigError(
                    f"{path}:{lineno}: parameter '{key}' has no value")
            values[key] = value
    return values


def float_list(text: str) -> List[float]:
    """Parse a comma list of numbers, optionally in brackets."""
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    return [float(part) for part in inner.split(",") if part.strip()]


def build_params(args) -> ModelParams:
    """Assemble ModelParams from the parsed options; speeds not given stay
    CANONICAL's."""
    kwargs = {key: getattr(args, key) for key in _PARAM_KEYS}
    for key in ("a", "b"):
        if getattr(args, key) is not None:
            kwargs[key] = parse_speed(getattr(args, key))
    try:
        kwargs["fidelity"] = Fidelity(args.fidelity)
    except ValueError:
        raise ParamError("fidelity", f"must be 'paper' or 'corrected', "
                         f"got {args.fidelity!r}") from None
    return CANONICAL.replace(**kwargs)


def echo_config(command: str, params: ModelParams, extra: Dict[str, object],
                out) -> None:
    print(f"# effective config: {command}", file=out)
    for key in ("rho", "r0", "D", "a", "b", "P0", "Ec"):
        print(f"{key} = {getattr(params, key)!r}", file=out)
    print(f"fidelity = {params.fidelity.value}", file=out)
    for key, value in extra.items():
        print(f"{key} = {value!r}", file=out)
    print("", file=out)


def _write_output(data: bytes, path: Optional[str], out) -> None:
    if path:
        with open(path, "wb") as handle:
            handle.write(data)
        print(f"wrote {path}", file=out)
    else:
        out.write(data.decode("utf-8"))


def _write_doc(doc: Dict[str, object], lines: List[str], args, out) -> None:
    """Write `doc` as JSON, or `lines` as text, to --out or `out`."""
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = "\n".join(lines) + "\n"
    _write_output(text.encode("utf-8"), args.out, out)


def _figures_doc(figures, params: ModelParams) -> Dict[str, object]:
    return {
        "expected_gap_m": figures.expected_gap,
        "prob_sleep": figures.prob_sleep,
        "expected_sleep_time_s": figures.expected_sleep_time,
        "expected_power_saved_W": figures.expected_power_saved,
        "baseline_power_saved_W": baseline_power_saved(params),
        "mean_speed_mps": figures.mean_speed,
        "fidelity": params.fidelity.value,
    }


def cmd_analytic(args, out) -> int:
    params = build_params(args)
    echo_config("analytic", params, {}, out)
    figures = energy_figures(params)
    doc = _figures_doc(figures, params)
    sleep = ("none (no sleep opportunity)"
             if figures.expected_sleep_time is None
             else f"{figures.expected_sleep_time:.6g} s")
    _write_doc(doc, [
        f"E[X]            = {figures.expected_gap:.6g} m",
        f"P(X > D)        = {figures.prob_sleep:.6g}",
        f"E[T_off]        = {sleep}",
        f"E[P_save]       = {figures.expected_power_saved:.6g} W",
        f"baseline P_save = {doc['baseline_power_saved_W']:.6g} W",
        f"fidelity        = {params.fidelity.value}",
    ], args, out)
    return EXIT_OK


def _estimate_doc(est) -> Dict[str, object]:
    return {
        "n_cycles": est.n_cycles,
        "expected_gap_m": [est.expected_gap, est.expected_gap_se],
        "prob_sleep": [est.prob_sleep, est.prob_sleep_se],
        "expected_sleep_time_s": [est.expected_sleep_time,
                                  est.expected_sleep_time_se],
        "expected_power_saved_W": [est.expected_power_saved,
                                   est.expected_power_saved_se],
        "time_average_power_saved_W": est.time_average_power_saved,
        "duty_cycle": est.duty_cycle,
    }


def _timeline_doc(report) -> Dict[str, object]:
    return {
        "sim_duration_s": report.sim_duration,
        "sleep_fraction": report.sleep_fraction,
        "n_transitions": report.n_transitions,
        "energy_saved_J": report.energy_saved,
        "mean_power_saved_W": report.mean_power_saved,
        "n_cycles": report.n_cycles,
        "cycle_mean_power_saved_W": report.cycle_mean_power_saved,
        "cycle_mean_power_se_W": report.cycle_mean_power_se,
        "complete": report.complete,
        "processed_time_s": report.processed_time,
    }


def cmd_simulate(args, out) -> int:
    params = build_params(args)
    mode, seed = args.mode, args.seed
    rng = RngSpec(master_seed=seed, stream_id=0)
    if mode == "cycles":
        echo_config("simulate", params, {"mode": mode, "n": args.n,
                                         "seed": seed}, out)
        batch = sample_cycles(params, args.n, rng)
        doc = _estimate_doc(estimate_energy(batch, params))
    elif mode in ("timeline-common", "timeline-heterogeneous"):
        v = parse_speed(args.v) if args.v is not None else None
        speed_mode = mode.removeprefix("timeline-")
        if speed_mode == "common" and v is None:
            raise ParamError("v", "timeline-common requires --v "
                             "(e.g. 60kmh)")
        window = (default_window(params, args.duration, speed_mode, v)
                  if args.window_length is None else args.window_length)
        echo_config("simulate", params,
                    {"mode": mode, "duration": args.duration,
                     "window_length": window, "v": v, "seed": seed}, out)
        report = run_timeline(params, args.duration, window, speed_mode, rng,
                              v=v)
        doc = _timeline_doc(report)
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected 'cycles', "
                          "'timeline-common', or 'timeline-heterogeneous'")
    doc["seed"] = seed
    _write_doc(doc, [f"{key} = {value!r}" for key, value in doc.items()],
               args, out)
    return EXIT_OK


def cmd_validate(args, out) -> int:
    params = build_params(args)
    grid = SweepGrid(rho_values=args.rho_values, r0_values=args.r0_values,
                     fixed=params)
    sampler = Fidelity(args.mc_fidelity) if args.mc_fidelity else None
    echo_config("validate", params,
                {"rho_values": list(grid.rho_values),
                 "r0_values": list(grid.r0_values),
                 "n": args.n, "seed": args.seed,
                 "mc_fidelity": args.mc_fidelity or "matched"}, out)
    report = run_validation(grid, args.n, RngSpec(args.seed),
                            workers=args.workers,
                            sampler_fidelity=sampler)
    _write_output(emit_table(report, args.format), args.out, out)
    if not report.all_passed:
        failing = [(r.rho, r.r0, r.fidelity, r.metric, r.z)
                   for r in report.rows if not r.passed]
        print(f"validation FAILED: {len(failing)} comparison(s) out of "
              f"{len(report.rows)} exceed |z| = 3", file=out)
        for rho, r0, fidelity, metric, z in failing:
            print(f"  rho={rho} r0={r0} {fidelity} {metric} z={z:+.2f}",
                  file=out)
        return EXIT_VALIDATION_FAILED
    print(f"validation passed: {len(report.rows)} comparisons within "
          "|z| = 3", file=out)
    return EXIT_OK


def cmd_sweep(args, out) -> int:
    params = build_params(args)
    if args.preset:
        presets = [p.strip() for p in args.preset.split(",") if p.strip()]
        for preset in presets:
            grid = figure_preset(preset, params)
            echo_config("sweep", params,
                        {"preset": preset}, out)
            table = run_sweep(grid, workers=args.workers)
            path = args.out
            if path is None or len(presets) > 1:
                path = f"{path or 'sweep'}_{preset}.{args.format}"
            _write_output(emit_table(table, args.format), path, out)
        return EXIT_OK
    metrics = (tuple(m.strip() for m in args.metrics.split(","))
               if args.metrics else METRICS)
    grid = SweepGrid(rho_values=args.rho_values, r0_values=args.r0_values,
                     fixed=params, metrics=metrics)
    echo_config("sweep", params,
                {"rho_values": list(grid.rho_values),
                 "r0_values": list(grid.r0_values),
                 "metrics": list(grid.metrics)}, out)
    table = run_sweep(grid, workers=args.workers)
    _write_output(emit_table(table, args.format), args.out, out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, formats) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--fidelity", choices=["paper", "corrected"],
                        default=CANONICAL.fidelity.value)
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", help="output path")
    parser.add_argument("--json-errors", action="store_true",
                        help="report failures as JSON on stderr")
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float,
                            default=getattr(CANONICAL, key))
    parser.add_argument("--a", help="minimum speed, e.g. 40kmh")
    parser.add_argument("--b", help="maximum speed, e.g. 80kmh")


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rho-values", dest="rho_values", type=float_list,
                        default="0.005,0.02,0.08")
    parser.add_argument("--r0-values", dest="r0_values", type=float_list,
                        default="100,200,400")


def make_parser(config: Optional[Dict[str, str]] = None
                ) -> argparse.ArgumentParser:
    """The sleepnet parser; `config` values become the subcommands'
    defaults, converted like the flags they name."""
    parser = argparse.ArgumentParser(
        prog="sleepnet",
        description="Base-station sleep-scheduling energy model: "
                    "closed forms, simulators, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form energy figures")
    _add_common(p, ("text", "json"))

    p = sub.add_parser("simulate", help="Monte Carlo cycles or timeline")
    _add_common(p, ("text", "json"))
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--mode", choices=["cycles", "timeline-common",
                                      "timeline-heterogeneous"],
                   default="cycles")
    p.add_argument("--n", type=int, default=100_000,
                   help="number of renewal cycles")
    p.add_argument("--duration", type=float, default=86_400.0,
                   help="timeline length, s")
    p.add_argument("--window-length", dest="window_length", type=float,
                   help="road window length, m")
    p.add_argument("--v", help="common-mode speed, e.g. 60kmh")

    p = sub.add_parser("validate", help="analytic vs Monte Carlo report")
    _add_common(p, ("csv", "json"))
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.add_argument("--workers", type=int, help="worker processes")
    p.add_argument("--n", type=int, default=100_000, help="cycles per cell")
    _add_grid(p)
    p.add_argument("--mc-fidelity", dest="mc_fidelity",
                   choices=["paper", "corrected"],
                   help="force the sampler fidelity (negative control)")

    p = sub.add_parser("sweep", help="figure-data tables")
    _add_common(p, ("csv", "json"))
    p.add_argument("--workers", type=int, help="worker processes")
    p.add_argument("--preset", help="comma list from: "
                   + ", ".join(FIGURE_PRESETS))
    _add_grid(p)
    p.add_argument("--metrics", help="comma list from: " + ", ".join(METRICS))

    defaults = {key: value for key, value in (config or {}).items()
                if key not in _NOT_CONFIG}
    for p in sub.choices.values():
        p.set_defaults(**defaults)
    return parser


_COMMANDS = {
    "analytic": cmd_analytic,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout

    def fail(code: int, kind: str, exc: Exception) -> int:
        if args.json_errors:
            doc = {"error": kind, "message": str(exc), "exit_code": code}
            print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return code

    try:
        args = make_parser().parse_args(argv)
        if args.config:
            args = make_parser(read_config(args.config)).parse_args(argv)
    except SystemExit as exc:  # argparse: a bad command line, or --help
        return exc.code
    except (OSError, ConfigError) as exc:
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    try:
        return _COMMANDS[args.command](args, out)
    except ValueError as exc:  # ParamError, ConfigError, WindowTooSmallError
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    except ArithmeticError as exc:
        return fail(EXIT_NUMERIC_FAILURE, "numeric", exc)


if __name__ == "__main__":
    sys.exit(main())
