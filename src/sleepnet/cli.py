"""Command-line surface.

Subcommands: `analytic` (closed-form figures), `simulate` (cycle sampler
or timeline), `validate` (analytic vs Monte Carlo report), `sweep`
(figure-data tables); `_CALLS` lists the options each call takes.
Options come from an optional flat key-value config file plus flags;
flags win.  Every command echoes its effective configuration as config
lines (defaults and seed included): given back through `--config` with
the same subcommand, `--format` and `--out`, the echo block repeats the
run byte for byte.  No output contains timestamps.

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
from .simulate import RngSpec, estimate_energy, run_timeline, sample_cycles

EXIT_OK = 0
EXIT_VALIDATION_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3


class ConfigError(ValueError):
    pass


def _comma_list(text: str) -> List[str]:
    """Split a comma list, optionally in brackets."""
    inner = text.strip()
    if inner.startswith("[") and inner.endswith("]"):
        inner = inner[1:-1]
    return [part.strip() for part in inner.split(",") if part.strip()]


def float_list(text: str) -> List[float]:
    """Parse a comma list of numbers, optionally in brackets."""
    return [float(part) for part in _comma_list(text)]


def _speed(text: str) -> float:
    """parse_speed for argparse, which shows only the reason."""
    try:
        return parse_speed(text)
    except ParamError as exc:
        raise argparse.ArgumentTypeError(exc.constraint) from None


_FIDELITIES = ("paper", "corrected")

#: Every option a config file can set, as argparse keywords.
_OPTIONS = {
    **{key: dict(type=float, default=getattr(CANONICAL, key))
       for key in ("rho", "r0", "D", "P0", "Ec")},
    "a": dict(type=_speed, default=CANONICAL.a, help="min speed, e.g. 40kmh"),
    "b": dict(type=_speed, default=CANONICAL.b, help="max speed, e.g. 80kmh"),
    "fidelity": dict(choices=_FIDELITIES, default=CANONICAL.fidelity.value),
    "mode": dict(choices=("cycles", "timeline-common",
                          "timeline-heterogeneous"), default="cycles"),
    "n": dict(type=int, default=100_000, help="renewal cycles (per cell)"),
    "duration": dict(type=float, default=86_400.0, help="timeline length, s"),
    "v": dict(type=_speed, required=True, help="common speed, e.g. 60kmh"),
    "seed": dict(type=int, default=0, help="master RNG seed"),
    "rho_values": dict(type=float_list, default="0.005,0.02,0.08"),
    "r0_values": dict(type=float_list, default="100,200,400"),
    "metrics": dict(type=_comma_list,
                    help="comma list from: " + ", ".join(METRICS)),
    "mc_fidelity": dict(choices=_FIDELITIES, help="force sampler fidelity"),
    "workers": dict(type=int, help="worker processes"),
    "preset": dict(type=_comma_list,
                   help="comma list from: " + ", ".join(FIGURE_PRESETS)),
}

#: The model parameters and --fidelity, which every call takes.
_MODEL = ("rho", "r0", "D", "a", "b", "P0", "Ec", "fidelity")

#: The subcommand and the per-run flags, which no config key sets.
_NOT_CONFIG = ("command", "config", "format", "out", "json_errors")

_TEXT, _TABLE = ("text", "json"), ("csv", "json")

#: Each call: its --format choices (the first is the default) and its
#: options besides _MODEL and the per-run flags.  simulate's mode and a
#: sweep's preset, given by flag or config key, pick the call.
_CALLS = {
    "analytic": (_TEXT, ()),
    "simulate --mode cycles": (_TEXT, ("mode", "n", "seed")),
    "simulate --mode timeline-common": (_TEXT,
                                        ("mode", "duration", "v", "seed")),
    "simulate --mode timeline-heterogeneous": (_TEXT,
                                               ("mode", "duration", "seed")),
    "validate": (_TABLE, ("rho_values", "r0_values", "n", "seed",
                          "mc_fidelity", "workers")),
    "sweep": (_TABLE, ("rho_values", "r0_values", "metrics")),
    "sweep --preset": (_TABLE, ("preset",)),
}


def read_config(path: str) -> Dict[str, str]:
    """Parse a flat key = value config document.

    One assignment per line; `#` starts a comment; values may be quoted
    strings, bare scalars, or bracketed comma lists.  Keys mirror the
    command-line flag names; a key that names no option of any call is
    an error.
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
            if key not in _OPTIONS and key not in _NOT_CONFIG:
                raise ConfigError(
                    f"{path}:{lineno}: '{key}' names no option of any call")
            if not value:
                raise ConfigError(
                    f"{path}:{lineno}: parameter '{key}' has no value")
            values[key] = value
    return values


def echo_config(args, out) -> None:
    """Print the call's options in config syntax; workers sets no result."""
    lines = [f"# effective config: {args.command}"]
    for key in _MODEL + _CALLS[args.call][1]:
        value = getattr(args, key)
        if value is None or key == "workers":
            continue
        if key in ("a", "b", "v"):
            value = f"{value!r}mps"
        elif isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"{key} = {value}")
    print("\n".join(lines) + "\n", file=out)


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


def cmd_analytic(args, params: ModelParams, out) -> int:
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


def cmd_simulate(args, params: ModelParams, out) -> int:
    rng = RngSpec(master_seed=args.seed, stream_id=0)
    if args.mode == "cycles":
        sums = sample_cycles(params, args.n, rng)
        doc = _estimate_doc(estimate_energy(sums, params))
    else:
        doc = _timeline_doc(run_timeline(params, args.duration, rng,
                                         v=getattr(args, "v", None)))
    doc["seed"] = args.seed
    _write_doc(doc, [f"{key} = {value!r}" for key, value in doc.items()],
               args, out)
    return EXIT_OK


def cmd_validate(args, params: ModelParams, out) -> int:
    grid = SweepGrid(rho_values=args.rho_values, r0_values=args.r0_values,
                     fixed=params)
    sampler = Fidelity(args.mc_fidelity) if args.mc_fidelity else None
    report = run_validation(grid, args.n, RngSpec(args.seed),
                            workers=args.workers,
                            sampler_fidelity=sampler)
    _write_output(emit_table(report, args.format), args.out, out)
    if not report.all_passed:
        failing = [r for r in report.rows if not r.passed]
        print(f"validation FAILED: {len(failing)} comparison(s) out of "
              f"{len(report.rows)} exceed |z| = 3", file=out)
        for r in failing:
            print(f"  rho={r.rho} r0={r.r0} {r.fidelity} {r.metric} "
                  f"z={r.z:+.2f}", file=out)
        return EXIT_VALIDATION_FAILED
    print(f"validation passed: {len(report.rows)} comparisons within "
          "|z| = 3", file=out)
    return EXIT_OK


def cmd_sweep(args, params: ModelParams, out) -> int:
    if args.call == "sweep --preset":
        for preset in args.preset:
            table = run_sweep(figure_preset(preset, params))
            path = args.out
            if path is None or len(args.preset) > 1:
                path = f"{path or 'sweep'}_{preset}.{args.format}"
            _write_output(emit_table(table, args.format), path, out)
        return EXIT_OK
    grid = SweepGrid(rho_values=args.rho_values, r0_values=args.r0_values,
                     fixed=params, metrics=args.metrics or METRICS)
    _write_output(emit_table(run_sweep(grid), args.format), args.out, out)
    return EXIT_OK


_COMMANDS = {
    "analytic": (cmd_analytic, "closed-form energy figures"),
    "simulate": (cmd_simulate, "Monte Carlo cycles or timeline, by --mode"),
    "validate": (cmd_validate, "analytic vs Monte Carlo report"),
    "sweep": (cmd_sweep, "figure-data tables, over a grid or a --preset"),
}


def _add_call(parser: argparse.ArgumentParser, call: str) -> None:
    formats, options = _CALLS[call]
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--format", choices=formats, default=formats[0])
    parser.add_argument("--out", help="output path")
    parser.add_argument("--json-errors", action="store_true",
                        help="report failures as JSON on stderr")
    for key in _MODEL + options:
        parser.add_argument("--" + key.replace("_", "-"), dest=key,
                            **_OPTIONS[key])
    parser.set_defaults(command=call.split()[0], call=call)


def make_parser() -> argparse.ArgumentParser:
    """The sleepnet parser, each subcommand at its first call in _CALLS."""
    parser = argparse.ArgumentParser(
        prog="sleepnet",
        description="Base-station sleep-scheduling energy model: "
                    "closed forms, simulators, and sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for call in _CALLS:
        command = call.split()[0]
        if command not in sub.choices:
            _add_call(sub.add_parser(command, prog=f"sleepnet {call}",
                                     help=_COMMANDS[command][1]), call)
    return parser


def parse_args(argv: List[str]) -> argparse.Namespace:
    """Parse argv with the parser of the call it makes: simulate's --mode
    and sweep's --preset, by flag or else by config key, pick it.  That
    call's config keys go before the flags, so the flags win."""
    if not argv or argv[0] not in _COMMANDS:
        return make_parser().parse_args(argv)  # usage, --help or a typo
    command = argv[0]
    pre = argparse.ArgumentParser(f"sleepnet {command}", add_help=False,
                                  allow_abbrev=False)
    for key in ("config", "mode", "preset"):
        pre.add_argument("--" + key)
    given = pre.parse_known_args(argv[1:])[0]
    config = read_config(given.config) if given.config else {}
    call = command
    if command == "simulate":
        call = f"simulate --mode {given.mode or config.get('mode', 'cycles')}"
        if call not in _CALLS:  # an unknown mode: --mode's choices name it
            call = "simulate --mode cycles"
    elif command == "sweep" and (given.preset or "preset" in config):
        call = "sweep --preset"
    flags = [f"--{key.replace('_', '-')}={value}"
             for key, value in config.items()
             if key in _MODEL + _CALLS[call][1]]
    parser = argparse.ArgumentParser(f"sleepnet {call}", allow_abbrev=False)
    _add_call(parser, call)
    return parser.parse_args(flags + argv[1:])


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)

    def fail(code: int, kind: str, exc: Exception) -> int:
        if "--json-errors" in argv:
            doc = {"error": kind, "message": str(exc), "exit_code": code}
            print(json.dumps(doc, sort_keys=True), file=sys.stderr)
        else:
            print(f"error ({kind}): {exc}", file=sys.stderr)
        return code

    try:
        args = parse_args(argv)
    except SystemExit as exc:  # argparse: a bad command line, or --help
        return exc.code
    except (OSError, ConfigError) as exc:
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    try:
        params = ModelParams(**{key: getattr(args, key) for key in _MODEL})
        echo_config(args, out)
        return _COMMANDS[args.command][0](args, params, out)
    except ValueError as exc:  # ParamError, ConfigError, a rejected value
        return fail(EXIT_CONFIG_ERROR, "config", exc)
    except ArithmeticError as exc:
        return fail(EXIT_NUMERIC_FAILURE, "numeric", exc)


if __name__ == "__main__":
    sys.exit(main())
