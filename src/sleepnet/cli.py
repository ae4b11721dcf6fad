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
import os
import sys
from typing import Dict, List, Optional

from .analytic import baseline_power_saved, energy_figures
from .experiments import (FIGURE_PRESETS, METRICS, SweepGrid, emit_table,
                          figure_preset, run_sweep, run_validation)
from .params import (CANONICAL, Fidelity, ModelParams, ParamError,
                     parse_speed)
from .simulate import RngSpec, estimate_energy, run_timeline, sample_cycles

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3

_PARAM_KEYS = ("rho", "r0", "D", "P0", "Ec")
_SPEED_KEYS = ("a", "b", "v")


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


def _parse_float_list(text: str, key: str) -> List[float]:
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    try:
        return [float(part) for part in inner.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"parameter '{key}': {exc}") from None


def _merged_option(args, config: Dict[str, str], key: str,
                   default=None) -> Optional[str]:
    flag_value = getattr(args, key, None)
    if flag_value is not None:
        return str(flag_value)
    if key in config:
        return config[key]
    return None if default is None else str(default)


def build_params(args, config: Dict[str, str]) -> ModelParams:
    """Assemble ModelParams from defaults, config file, and flags."""
    kwargs = {}
    for key in _PARAM_KEYS:
        text = _merged_option(args, config, key)
        if text is not None:
            try:
                kwargs[key] = float(text)
            except ValueError:
                raise ParamError(key, f"not a number: {text!r}") from None
    for key in ("a", "b"):
        text = _merged_option(args, config, key)
        if text is not None:
            kwargs[key] = parse_speed(text)
    fidelity = _merged_option(args, config, "fidelity")
    if fidelity is not None:
        try:
            kwargs["fidelity"] = Fidelity(fidelity)
        except ValueError:
            raise ParamError(
                "fidelity", f"must be 'paper' or 'corrected', "
                f"got {fidelity!r}") from None
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


def cmd_analytic(args, config: Dict[str, str], out) -> int:
    params = build_params(args, config)
    echo_config("analytic", params, {}, out)
    figures = energy_figures(params)
    doc = _figures_doc(figures, params)
    if args.format == "json":
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        _write_output(data, args.out, out)
        return EXIT_OK
    sleep = ("none (no sleep opportunity)"
             if figures.expected_sleep_time is None
             else f"{figures.expected_sleep_time:.6g} s")
    lines = [
        f"E[X]            = {figures.expected_gap:.6g} m",
        f"P(X > D)        = {figures.prob_sleep:.6g}",
        f"E[T_off]        = {sleep}",
        f"E[P_save]       = {figures.expected_power_saved:.6g} W",
        f"baseline P_save = {doc['baseline_power_saved_W']:.6g} W",
        f"fidelity        = {params.fidelity.value}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_output(text.encode("utf-8"), args.out, out)
    else:
        out.write(text)
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


def cmd_simulate(args, config: Dict[str, str], out) -> int:
    params = build_params(args, config)
    mode = _merged_option(args, config, "mode", "cycles")
    seed = int(_merged_option(args, config, "seed", 0))
    rng = RngSpec(master_seed=seed, stream_id=0)
    if mode == "cycles":
        n = int(_merged_option(args, config, "n", 100_000))
        echo_config("simulate", params, {"mode": mode, "n": n,
                                         "seed": seed}, out)
        batch = sample_cycles(params, n, rng)
        doc = _estimate_doc(estimate_energy(batch, params))
    elif mode in ("timeline-common", "timeline-heterogeneous"):
        duration = float(_merged_option(args, config, "duration", 86_400))
        v_text = _merged_option(args, config, "v")
        v = parse_speed(v_text) if v_text is not None else None
        speed_mode = "common" if mode == "timeline-common" \
            else "heterogeneous"
        if speed_mode == "common":
            if v is None:
                raise ParamError("v", "timeline-common requires --v "
                                 "(e.g. 60kmh)")
            travel = v
        else:
            travel = params.b
        window_text = _merged_option(args, config, "window_length")
        if window_text is None:
            window = (travel * duration + params.D + 2.0 * params.r0
                      + 50.0 * max(1.0 / params.rho, params.r0))
        else:
            window = float(window_text)
        echo_config("simulate", params,
                    {"mode": mode, "duration": duration,
                     "window_length": window, "v": v, "seed": seed}, out)
        report = run_timeline(params, duration, window, speed_mode, rng,
                              v=v)
        doc = _timeline_doc(report)
    else:
        raise ConfigError(f"unknown mode {mode!r}; expected 'cycles', "
                          "'timeline-common', or 'timeline-heterogeneous'")
    doc["seed"] = seed
    if args.format == "json":
        data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        _write_output(data, args.out, out)
        return EXIT_OK
    lines = [f"{key} = {value!r}" for key, value in doc.items()]
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_output(text.encode("utf-8"), args.out, out)
    else:
        out.write(text)
    return EXIT_OK


def _build_grid(args, config: Dict[str, str],
                params: ModelParams, default_metrics) -> SweepGrid:
    rho_text = _merged_option(args, config, "rho_values",
                              "0.005,0.02,0.08")
    r0_text = _merged_option(args, config, "r0_values", "100,200,400")
    metrics_text = _merged_option(args, config, "metrics")
    metrics = (tuple(m.strip() for m in metrics_text.split(","))
               if metrics_text else tuple(default_metrics))
    return SweepGrid(rho_values=_parse_float_list(rho_text, "rho_values"),
                     r0_values=_parse_float_list(r0_text, "r0_values"),
                     fixed=params, metrics=metrics)


def _workers(args, config: Dict[str, str]) -> Optional[int]:
    text = _merged_option(args, config, "workers",
                          os.environ.get("SLEEPNET_WORKERS"))
    return int(text) if text is not None else None


def cmd_validate(args, config: Dict[str, str], out) -> int:
    params = build_params(args, config)
    grid = _build_grid(args, config, params, ("E_X", "E_Toff", "E_Psave"))
    n = int(_merged_option(args, config, "n", 100_000))
    seed = int(_merged_option(args, config, "seed", 0))
    mc_fidelity = _merged_option(args, config, "mc_fidelity")
    sampler = Fidelity(mc_fidelity) if mc_fidelity else None
    echo_config("validate", params,
                {"rho_values": list(grid.rho_values),
                 "r0_values": list(grid.r0_values),
                 "n": n, "seed": seed,
                 "mc_fidelity": mc_fidelity or "matched"}, out)
    report = run_validation(grid, n, RngSpec(seed),
                            workers=_workers(args, config),
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


def cmd_sweep(args, config: Dict[str, str], out) -> int:
    params = build_params(args, config)
    workers = _workers(args, config)
    preset_text = _merged_option(args, config, "preset")
    ext = "json" if args.format == "json" else "csv"
    if preset_text:
        presets = [p.strip() for p in preset_text.split(",") if p.strip()]
        for preset in presets:
            grid = figure_preset(preset, params)
            echo_config("sweep", params,
                        {"preset": preset}, out)
            table = run_sweep(grid, workers=workers)
            path = args.out
            if path is None or len(presets) > 1:
                base = path or "sweep"
                path = f"{base}_{preset}.{ext}"
            _write_output(emit_table(table, args.format), path, out)
        return EXIT_OK
    grid = _build_grid(args, config, params, METRICS)
    echo_config("sweep", params,
                {"rho_values": list(grid.rho_values),
                 "r0_values": list(grid.r0_values),
                 "metrics": list(grid.metrics)}, out)
    table = run_sweep(grid, workers=workers)
    _write_output(emit_table(table, args.format), args.out, out)
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int,
                        help="master RNG seed (simulate, validate)")
    parser.add_argument("--fidelity", choices=["paper", "corrected"])
    parser.add_argument("--format", choices=["csv", "json", "text"],
                        default=None)
    parser.add_argument("--out", help="output path")
    parser.add_argument("--workers", type=int,
                        help="worker processes for sweeps/validation")
    parser.add_argument("--json-errors", action="store_true",
                        help="report failures as JSON on stderr")
    for key in _PARAM_KEYS:
        parser.add_argument(f"--{key}", type=float)
    parser.add_argument("--a", help="minimum speed, e.g. 40kmh")
    parser.add_argument("--b", help="maximum speed, e.g. 80kmh")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sleepnet",
        description="Base-station sleep-scheduling energy model: "
                    "closed forms, simulators, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="closed-form energy figures")
    _add_common(p)

    p = sub.add_parser("simulate", help="Monte Carlo cycles or timeline")
    _add_common(p)
    p.add_argument("--mode", choices=["cycles", "timeline-common",
                                      "timeline-heterogeneous"])
    p.add_argument("--n", type=int, help="number of renewal cycles")
    p.add_argument("--duration", type=float, help="timeline length, s")
    p.add_argument("--window-length", dest="window_length", type=float,
                   help="road window length, m")
    p.add_argument("--v", help="common-mode speed, e.g. 60kmh")

    p = sub.add_parser("validate", help="analytic vs Monte Carlo report")
    _add_common(p)
    p.add_argument("--n", type=int, help="cycles per cell")
    p.add_argument("--rho-values", dest="rho_values")
    p.add_argument("--r0-values", dest="r0_values")
    p.add_argument("--mc-fidelity", dest="mc_fidelity",
                   choices=["paper", "corrected"],
                   help="force the sampler fidelity (negative control)")

    p = sub.add_parser("sweep", help="figure-data tables")
    _add_common(p)
    p.add_argument("--preset", help="comma list from: "
                   + ", ".join(FIGURE_PRESETS))
    p.add_argument("--rho-values", dest="rho_values")
    p.add_argument("--r0-values", dest="r0_values")
    p.add_argument("--metrics", help="comma list from: " + ", ".join(METRICS))

    return parser


_COMMANDS = {
    "analytic": cmd_analytic,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "sweep": cmd_sweep,
}


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.format is None:
        args.format = "csv" if args.command in ("validate", "sweep") \
            else "text"
    if args.command in ("validate", "sweep") and args.format == "text":
        print("error: --format text is not available for this command",
              file=sys.stderr)
        return EXIT_CONFIG_ERROR

    def fail(code: int, kind: str, exc: Exception) -> int:
        if getattr(args, "json_errors", False):
            doc = {"error": kind, "message": str(exc), "exit_code": code}
            print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return code

    try:
        config = read_config(args.config) if args.config else {}
    except (OSError, ConfigError) as exc:
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    try:
        return _COMMANDS[args.command](args, config, out)
    except ValueError as exc:  # ParamError, ConfigError, WindowTooSmallError
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    except ArithmeticError as exc:
        return fail(EXIT_NUMERIC_FAILURE, "numeric", exc)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
