import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import sleepnet
from sleepnet.cli import (_CALLS, EXIT_CONFIG_ERROR, EXIT_NUMERIC_FAILURE,
                          EXIT_OK, EXIT_VALIDATION_FAILED, ConfigError, main,
                          parse_args, read_config)
from sleepnet.params import CANONICAL
from sleepnet.simulate import RngSpec, estimate_energy, sample_cycles


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def _strict_json(path):
    """The JSON document in path, refusing Infinity and NaN, which the
    standard library reads but JSON does not have."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(encoding="utf-8"),
                      parse_constant=refuse)


class TestReadConfig:
    def test_parses_flat_keys(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# canonical scenario\n"
            "rho = 0.01\n"
            "a = \"40kmh\"\n"
            "n = 20000   # cycles\n"
            "\n")
        values = read_config(str(path))
        assert values == {"rho": "0.01", "a": "40kmh", "n": "20000"}

    def test_empty_value_names_key(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("r0 =\n")
        with pytest.raises(ConfigError, match="'r0' has no value"):
            read_config(str(path))

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError):
            read_config(str(path))


class TestAnalyticCommand:
    def test_text_output_and_echo(self):
        code, text = run_cli(["analytic"])
        assert code == EXIT_OK
        assert text.startswith("# effective config: analytic")
        assert "rho = 0.01" in text
        assert "E[X]" in text
        assert "fidelity        = corrected" in text

    def test_json_output(self):
        code, text = run_cli(["analytic", "--format", "json",
                              "--fidelity", "paper"])
        assert code == EXIT_OK
        body = text.split("\n\n", 1)[1]
        doc = json.loads(body)
        assert doc["fidelity"] == "paper"
        assert doc["expected_gap_m"] > 0.0
        assert 0.0 < doc["prob_sleep"] < 1.0

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("rho = 0.05\nD = 500\n")
        code, text = run_cli(["analytic", "--config", str(path),
                              "--rho", "0.02"])
        assert code == EXIT_OK
        assert "rho = 0.02" in text
        assert "D = 500.0" in text

    def test_bad_speed_is_config_error(self):
        code, _ = run_cli(["analytic", "--a", "40"])
        assert code == EXIT_CONFIG_ERROR

    def test_bad_param_is_config_error(self):
        code, _ = run_cli(["analytic", "--rho", "-1"])
        assert code == EXIT_CONFIG_ERROR

    def test_arithmetic_failure_is_numeric_error(self, capsys):
        # at rho*r0 = 1000 exp(-rho*r0) underflows to zero
        code, _ = run_cli(["analytic", "--r0", "1e5", "--json-errors"])
        assert code == EXIT_NUMERIC_FAILURE
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "numeric"
        assert doc["exit_code"] == EXIT_NUMERIC_FAILURE
        assert "rho=" in doc["message"] and "r0=" in doc["message"]

    @pytest.mark.parametrize("rho,r0", [("1e-3", "700000"),
                                        ("1e-4", "7000000"),
                                        ("1e-3", "699300")])
    def test_panel_edge_overflow_is_numeric_error(self, capsys, rho, r0):
        # at or below the rho*r0 limit, but the gap law's tail scale
        # e^{rho r0}/rho puts its integration panels past the largest
        # double: at r0 = 699300 only the second tail panel's edge overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(["analytic", "--rho", rho, "--r0", r0,
                                  "--json-errors"])
        assert code == EXIT_NUMERIC_FAILURE
        assert "prob_sleep" not in text
        message = json.loads(capsys.readouterr().err)["message"]
        for part in (f"rho={float(rho)!r}", f"r0={float(r0)!r}",
                     f"rho*r0 = {float(rho) * float(r0)!r}"):
            assert part in message

    def test_near_zero_density_is_numeric_error(self, capsys):
        # at rho*r0 = 2e-18 exp(-rho*r0) rounds to 1, and the gap law
        # would take the log of 1 - 1
        code, text = run_cli(["analytic", "--rho", "1e-20", "--json-errors"])
        assert (code, text) == (EXIT_NUMERIC_FAILURE, "")
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("rho*r0 = 1.9999999999999998e-18 "
                                  "(rho=1e-20, r0=200.0) is too small")

    def test_paper_law_below_its_density_limit_is_numeric_error(self,
                                                                capsys):
        # at rho*r0 = 1e-8 the paper law's subtraction keeps about 7.7
        # digits; the corrected law at the same cell is exact
        argv = ["analytic", "--rho", "1e-10", "--r0", "100", "--json-errors"]
        code, text = run_cli(argv + ["--fidelity", "paper"])
        assert (code, text) == (EXIT_NUMERIC_FAILURE, "")
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("rho*r0 = 1e-08 (rho=1e-10, r0=100.0) "
                                  "is below the paper law's limit 5e-08")
        assert run_cli(argv)[0] == EXIT_OK

    def test_small_rho_dense_cell_runs(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = run_cli(["analytic", "--rho", "1e-3", "--r0",
                                  "600000", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(text.split("\n\n", 1)[1])
        assert doc["prob_sleep"] == 1.0
        assert doc["expected_gap_m"] == pytest.approx(math.exp(600.0) / 1e-3,
                                                      rel=1e-8)


class TestSimulateCommand:
    def test_arithmetic_failure_is_numeric_error(self, capsys):
        code, _ = run_cli(["simulate", "--mode", "cycles", "--r0", "1e5",
                           "--json-errors"])
        assert code == EXIT_NUMERIC_FAILURE
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "numeric"
        assert doc["exit_code"] == EXIT_NUMERIC_FAILURE
        assert "rho=" in doc["message"] and "r0=" in doc["message"]

    def test_near_zero_density_is_numeric_error(self, capsys):
        code, text = run_cli(["simulate", "--rho", "1e-20", "--n", "1000",
                              "--json-errors"])
        assert (code, text) == (EXIT_NUMERIC_FAILURE, "")
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith("rho*r0 = 1.9999999999999998e-18 "
                                  "(rho=1e-20, r0=200.0) is too small")

    def test_cycles_deterministic(self):
        argv = ["simulate", "--n", "20000", "--seed", "42",
                "--format", "json"]
        a = run_cli(argv)
        b = run_cli(argv)
        assert a == b
        assert a[0] == EXIT_OK
        doc = json.loads(a[1].split("\n\n", 1)[1])
        assert doc["n_cycles"] == 20000
        assert doc["seed"] == 42

    def test_one_sleeping_cycle_has_no_standard_error(self, tmp_path):
        # one cycle of 1000 outlasts a 4 km coverage: its sleep time is a
        # mean with no standard error, JSON null rather than Infinity
        path = tmp_path / "cycles.json"
        code, _ = run_cli(["simulate", "--mode", "cycles", "--n", "1000",
                           "--fidelity", "paper", "--D", "4000", "--seed",
                           "0", "--format", "json", "--out", str(path)])
        assert code == EXIT_OK
        doc = _strict_json(path)
        assert doc["prob_sleep"][0] == 0.001
        mean, se = doc["expected_sleep_time_s"]
        assert mean > 0.0 and se is None

    def test_one_timeline_cycle_has_no_standard_error(self, tmp_path):
        path = tmp_path / "timeline.json"
        code, _ = run_cli(["simulate", "--mode", "timeline-common", "--v",
                           "60kmh", "--duration", "40", "--seed", "1",
                           "--format", "json", "--out", str(path)])
        assert code == EXIT_OK
        doc = _strict_json(path)
        assert doc["n_cycles"] == 1
        assert doc["cycle_mean_power_saved_W"] is not None
        assert doc["cycle_mean_power_se_W"] is None

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    def test_estimates_are_python_numbers(self, fidelity):
        # a numpy scalar would print its repr, np.float64(...), in the
        # text output; np.float64 subclasses float, so the check is on type
        params = CANONICAL.replace(fidelity=fidelity)
        est = estimate_energy(sample_cycles(params, 20_000, RngSpec(4)),
                              params)
        for f in fields(est):
            assert type(getattr(est, f.name)) in (int, float, type(None)), \
                f.name
        code, text = run_cli(["simulate", "--mode", "cycles", "--n", "20000",
                              "--fidelity", fidelity, "--seed", "4"])
        assert code == EXIT_OK
        assert "expected_power_saved_W = [" in text
        assert "np.float64(" not in text

    def test_seed_changes_output(self):
        _, a = run_cli(["simulate", "--n", "20000", "--seed", "1",
                        "--format", "json"])
        _, b = run_cli(["simulate", "--n", "20000", "--seed", "2",
                        "--format", "json"])
        assert a != b

    def test_timeline_common(self):
        code, text = run_cli(["simulate", "--mode", "timeline-common",
                              "--v", "60kmh", "--duration", "2000",
                              "--seed", "3", "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(text.split("\n\n", 1)[1])
        assert doc["complete"] is True
        assert 0.0 <= doc["sleep_fraction"] <= 1.0

    def test_timeline_common_requires_v(self):
        code, _ = run_cli(["simulate", "--mode", "timeline-common",
                           "--duration", "1000"])
        assert code == EXIT_CONFIG_ERROR

    def test_timeline_heterogeneous(self):
        code, text = run_cli(["simulate", "--mode",
                              "timeline-heterogeneous",
                              "--duration", "300", "--seed", "4",
                              "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(text.split("\n\n", 1)[1])
        assert doc["complete"] is True

    def test_heterogeneous_rejects_v(self, capsys):
        # --v sets the common speed only; every vehicle keeps its own here
        code, text = run_cli(["simulate", "--mode", "timeline-heterogeneous",
                              "--duration", "300", "--v", "60kmh"])
        assert code == EXIT_CONFIG_ERROR
        assert text == ""
        assert ("sleepnet simulate --mode timeline-heterogeneous: error: "
                "unrecognized arguments: --v 60kmh") in capsys.readouterr().err

    @pytest.mark.parametrize("tail", [
        ["--mode", "timeline-common", "--v", "60kmh", "--duration", "nan"],
        ["--mode", "timeline-common", "--v", "60kmh", "--duration", "inf"],
        ["--mode", "timeline-common", "--v", "1e400kmh", "--duration", "10"],
        ["--mode", "timeline-heterogeneous", "--duration", "nan"],
    ])
    def test_timeline_rejects_non_finite(self, capsys, tail):
        code, _ = run_cli(["simulate", "--json-errors"] + tail)
        assert code == EXIT_CONFIG_ERROR
        option = "duration" if "nan" in tail or "inf" in tail else "v"
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(f"parameter '{option}': must be finite")

    def test_bad_mode_from_config(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("mode = warp\n")
        code, _ = run_cli(["simulate", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("n", ["-5", "0"])
    def test_too_few_cycles_is_config_error(self, capsys, n):
        code, text = run_cli(["simulate", "--mode", "cycles", "--n", n])
        assert code == EXIT_CONFIG_ERROR
        assert "n_cycles" not in text
        err = capsys.readouterr().err
        assert f"need at least 1000 cycles, got {n}" in err

    def test_sampler_density_limit_is_numeric_error(self, capsys):
        # rho*r0 = 50 is past the limit the plain sampler is validated to
        code, text = run_cli(["simulate", "--mode", "cycles", "--rho",
                              "0.02", "--r0", "2500", "--json-errors"])
        assert code == EXIT_NUMERIC_FAILURE
        assert "n_cycles" not in text
        message = json.loads(capsys.readouterr().err)["message"]
        for part in ("rho=0.02", "r0=2500.0", "rho*r0 = 50.0", "limit 40.0"):
            assert part in message


@pytest.mark.parametrize("command", ["analytic", "simulate"])
def test_text_commands_reject_csv(command):
    code, text = run_cli([command, "--format", "csv"])
    assert code == EXIT_CONFIG_ERROR
    assert text == ""


#: A valid value of each option a call can take besides the model's.
_VALUES = {"mode": "cycles", "n": "5000", "duration": "5", "v": "60kmh",
           "seed": "1", "rho_values": "0.5", "r0_values": "100",
           "metrics": "E_X", "mc_fidelity": "paper", "preset": "fig5"}


#: What a call needs besides its name: a preset, the common speed.
_BASE = {"sweep --preset": ["fig5"],
         "simulate --mode timeline-common": ["--v", "60kmh"]}


def _table_walk():
    """For each call, each option another call takes and it does not."""
    every = {key for _, options in _CALLS.values() for key in options}
    for call, (_, options) in _CALLS.items():
        argv = call.split() + _BASE.get(call, [])
        for key in sorted(every - set(options)):
            if call == "sweep" and key == "preset":
                continue  # it picks the other sweep call
            flag = "--" + key.replace("_", "-")
            yield pytest.param(argv + [flag, _VALUES[key]],
                               id=f"{call} {flag}")


@pytest.mark.parametrize("argv", [
    ["analytic", "--seed", "5"],
    ["analytic", "--workers", "2"],
    ["simulate", "--workers", "2"],
    ["sweep", "--seed", "5"],
    ["sweep", "--workers", "2"],
    ["simulate", "--window-length", "5e4"],
    pytest.param(["simulate", "--mode", "cycles", "--n", "1000", "--v",
                  "junk", "--duration", "-5"], id="cycles --v --duration"),
    pytest.param(["simulate", "--mode", "timeline-heterogeneous",
                  "--duration", "10", "--n", "5000"], id="heterogeneous --n"),
    pytest.param(["sweep", "--preset", "fig5", "--rho-values", "0.5",
                  "--metrics", "E_X"], id="preset --rho-values --metrics"),
    pytest.param(["analytic", "--rh", "0.02"], id="abbreviation"),
    *_table_walk(),
    # --workers, which validate took until it ran in one process
    *(pytest.param(call.split() + _BASE.get(call, []) + ["--workers", "2"],
                   id=f"{call} --workers") for call in _CALLS),
])
def test_commands_reject_options_they_ignore(argv, capsys):
    # Each call takes only the options its row of the table lists;
    # elsewhere an option would be accepted and do nothing.  The
    # timeline sizes its own road, so there is no --window-length to set.
    code, text = run_cli(argv)
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    err = capsys.readouterr().err.rstrip()
    assert "unrecognized arguments" in err
    assert err.endswith(" ".join(argv[-2:]))


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "5"],
    ["sweep", "--preset", "fig9"],
    ["sweep", "--preset", "fig3,fig9", "--format", "json"],
    ["simulate", "--mode", "timeline-common", "--v", "60kmh", "--duration",
     "nan"],
    ["simulate", "--mode", "timeline-heterogeneous", "--duration", "-1"],
    ["validate", "--n", "50"],
    ["validate", "--rho-values", "-0.5"],
    ["sweep", "--metrics", "entropy"],
], ids=" ".join)
def test_config_errors_print_nothing(argv, tmp_path, monkeypatch):
    # the values are checked before the echo block is printed, and a
    # multi-preset sweep writes no file when one of its presets is bad
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(argv)
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", ","],
    ["sweep", "--preset", ""],
    ["sweep", "--metrics", ""],
    ["sweep", "--metrics", "[ , ]"],
    ["sweep", "--rho-values", ","],
    ["validate", "--r0-values", ""],
], ids=" ".join)
def test_empty_lists_are_config_errors(argv, capsys):
    code, text = run_cli(argv)
    assert code == EXIT_CONFIG_ERROR
    assert text == ""
    assert (f"argument {argv[-2]}: expected a nonempty comma list"
            in capsys.readouterr().err)


class TestPresetFlags:
    """A --rho or --r0 that every chosen preset sets itself exits 2."""

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig4", "--r0", "300"],
        ["--preset", "fig4", "--rho", "0.05"],
        ["--preset", "fig2", "--rho", "0.05"],
        ["--preset", "fig2", "--r0=300"],
        ["--preset", "fig3", "--r0", "300"],
        ["--preset", "fig5", "--rho", "0.05"],
        ["--preset", "fig2,fig4", "--r0", "300"],
    ], ids=" ".join)
    def test_ignored_flag_is_config_error(self, argv, capsys):
        code, text = run_cli(["sweep", "--json-errors"] + argv)
        assert code == EXIT_CONFIG_ERROR
        assert text == ""
        key = "rho" if "--rho" in argv else "r0"
        message = json.loads(capsys.readouterr().err)["message"]
        assert message.startswith(f"--{key} is ignored")

    @pytest.mark.parametrize("argv", [
        ["--preset", "fig3", "--rho", "0.02"],
        ["--preset", "fig5", "--r0", "300"],
        ["--preset", "fig4,fig5", "--r0", "300"],
    ], ids=" ".join)
    def test_flag_a_preset_takes_is_kept(self, tmp_path, argv):
        code, text = run_cli(["sweep"] + argv + ["--out",
                                                 str(tmp_path / "f")])
        assert code == EXIT_OK
        assert f"{argv[-2][2:]} = {argv[-1]}" in text.split("\n\n", 1)[0]

    def test_config_keys_are_not_flags(self, tmp_path):
        # one config file serves several calls, an echo block among them
        path = tmp_path / "run.conf"
        path.write_text("rho = 0.05\nr0 = 300\n")
        code, _ = run_cli(["sweep", "--preset", "fig2", "--config",
                           str(path), "--out", str(tmp_path / "f")])
        assert code == EXIT_OK


#: A short run of each call, with options away from their defaults.
_ROUND_TRIPS = {
    "analytic": ["analytic", "--rho", "0.02", "--a", "30kmh",
                 "--format", "json"],
    "simulate --mode cycles": ["simulate", "--n", "2000", "--seed", "3",
                               "--b", "90kmh", "--fidelity", "paper"],
    "simulate --mode timeline-common": [
        "simulate", "--mode", "timeline-common", "--v", "50kmh",
        "--duration", "400", "--seed", "3"],
    "simulate --mode timeline-heterogeneous": [
        "simulate", "--mode", "timeline-heterogeneous", "--duration", "100",
        "--seed", "4", "--D", "600", "--format", "json"],
    "validate": ["validate", "--rho-values", "0.02", "--r0-values", "200",
                 "--n", "10000", "--seed", "5", "--mc-fidelity", "paper"],
    "sweep": ["sweep", "--rho-values", "0.01,0.02", "--r0-values", "200",
              "--metrics", "E_X,prob_sleep", "--format", "json"],
    "sweep --preset": ["sweep", "--preset", "fig3", "--D", "600",
                       "--Ec", "5"],
}


@pytest.mark.parametrize("call", list(_CALLS))
def test_echo_block_repeats_the_run(tmp_path, call):
    argv = _ROUND_TRIPS[call]
    first, again = tmp_path / "first", tmp_path / "again"
    code, text = run_cli(argv + ["--out", str(first)])
    echo = tmp_path / "echo.conf"
    echo.write_text(text.split("\n\n", 1)[0] + "\n")
    fmt = argv[argv.index("--format"):][:2] if "--format" in argv else []
    rerun = [argv[0], "--config", str(echo), "--out", str(again)] + fmt
    assert run_cli(rerun)[0] == code
    assert again.read_bytes() == first.read_bytes()


def _readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    for block in re.findall(r"^```\w*\n(.*?)^```", text, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("sleepnet "):
                yield shlex.split(line, comments=True)[1:]


@pytest.mark.parametrize("argv", list(_readme_commands()), ids=" ".join)
def test_readme_commands_parse(argv):
    # parsed for the call each makes, not run
    parse_args(argv)


_VALIDATE = ["validate", "--rho-values", "0.02", "--r0-values", "200"]
_TIMELINE = ["simulate", "--mode", "timeline-common"]


class TestConfigFile:
    @pytest.mark.parametrize("argv, key, value", [
        (["simulate", "--seed", "1"], "n", "20000"),
        (["simulate", "--n", "20000"], "seed", "3"),
        (["simulate", "--duration", "50", "--seed", "2"], "mode",
         "timeline-heterogeneous"),
        (_TIMELINE + ["--v", "60kmh"], "duration", "500"),
        (_TIMELINE + ["--duration", "500"], "v", "60kmh"),
        (_TIMELINE + ["--v", "60kmh", "--duration", "500"], "rho", "0.02"),
        (_VALIDATE, "n", "10000"),
        (_VALIDATE + ["--n", "10000"], "seed", "4"),
        (_VALIDATE + ["--n", "10000"], "mc_fidelity", "paper"),
        (["validate", "--r0-values", "200", "--n", "10000"], "rho_values",
         "0.02"),
        (["validate", "--rho-values", "0.02", "--n", "10000"], "r0_values",
         "[100, 200]"),
        (["sweep"], "preset", "fig5"),
        (["sweep", "--rho-values", "0.02", "--r0-values", "200"], "metrics",
         "E_X,prob_sleep"),
    ])
    def test_config_matches_flag(self, tmp_path, monkeypatch, argv, key,
                                 value):
        monkeypatch.chdir(tmp_path)   # the sweep preset writes a file
        path = tmp_path / "run.conf"
        path.write_text(f"{key} = {value}\n")
        by_flag = run_cli(argv + ["--" + key.replace("_", "-"), value])
        by_config = run_cli(argv + ["--config", str(path)])
        assert by_config == by_flag

    def test_flag_beats_config(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("n = 30000\nseed = 8\n")
        code, text = run_cli(["simulate", "--config", str(path),
                              "--n", "20000"])
        assert code == EXIT_OK
        assert "n = 20000\n" in text and "seed = 8\n" in text

    def test_keys_of_other_calls_are_ignored(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("command = sweep\nmetrics = E_X\n")
        assert (run_cli(["analytic", "--config", str(path)])
                == run_cli(["analytic"]))

    @pytest.mark.parametrize("key", ["width", "rh0", "rho-values"])
    def test_key_naming_no_option_is_error(self, tmp_path, capsys, key):
        path = tmp_path / "run.conf"
        path.write_text(f"command = sweep\nmetrics = E_X\n{key} = 3\n")
        code, text = run_cli(["analytic", "--config", str(path)])
        assert code == EXIT_CONFIG_ERROR
        assert text == ""
        assert (f"{path}:3: '{key}' names no option of any call"
                in capsys.readouterr().err)


class TestValidateCommand:
    def test_passes_on_small_grid(self):
        code, text = run_cli(["validate", "--rho-values", "0.02",
                              "--r0-values", "200", "--n", "20000",
                              "--seed", "5"])
        assert code == EXIT_OK
        assert "validation passed" in text
        assert "rho,r0,D,a,b,P0,Ec,fidelity,metric,value,stderr,status," \
               "analytic,z,passed,fidelity_gap" in text

    def test_mismatch_control_exits_one(self):
        code, text = run_cli(["validate", "--rho-values", "0.005",
                              "--r0-values", "200", "--n", "50000",
                              "--seed", "6", "--mc-fidelity", "corrected"])
        assert code == EXIT_VALIDATION_FAILED
        assert "validation FAILED" in text
        assert "paper" in text

    def test_rejects_text_format(self):
        code, _ = run_cli(["validate", "--format", "text"])
        assert code == EXIT_CONFIG_ERROR

    def test_near_zero_density_cell_keeps_the_report(self):
        # the (1e-20, 100) cell fails in its rows, analytic and sampler
        # alike, and the (0.01, 100) cell is still validated
        code, text = run_cli(["validate", "--rho-values", "1e-20,0.01",
                              "--r0-values", "100", "--n", "10000"])
        assert code == EXIT_VALIDATION_FAILED
        rows = list(csv.DictReader(io.StringIO(
            text.split("\n\n", 1)[1].split("validation FAILED")[0])))
        assert len(rows) == 12
        for row in rows[:6]:
            assert row["status"].startswith(
                "error: rho*r0 = 9.999999999999999e-19 (rho=1e-20, "
                "r0=100.0) is too small"), row
        assert all(row["status"] == "ok" and row["passed"] == "true"
                   for row in rows[6:])
        assert "validation FAILED: 6 row(s) out of 12 could not be " \
               "compared\n" in text

    def test_paper_law_below_its_density_limit_is_recorded_in_rows(self):
        # the sampler draws the (1e-10, 100) cell, but its paper rows
        # have no analytic target: they carry the gap law's error
        code, text = run_cli(["validate", "--rho-values", "1e-10,0.01",
                              "--r0-values", "100", "--n", "10000"])
        assert code == EXIT_VALIDATION_FAILED
        rows = list(csv.DictReader(io.StringIO(
            text.split("\n\n", 1)[1].split("validation FAILED")[0])))
        paper = {row["metric"]: row for row in rows[:3]}
        assert paper["E_X"]["status"] == "ok"
        for metric in ("E_Toff", "E_Psave"):
            assert paper[metric]["status"].startswith(
                "error: rho*r0 = 1e-08 (rho=1e-10, r0=100.0) is below "
                "the paper law's limit 5e-08"), metric
            assert paper[metric]["z"] == "nan"
        assert rows[3]["fidelity"] == "corrected"
        assert all(row["status"] == "ok" for row in rows[3:])

    def test_cell_past_the_sampler_limit_keeps_the_report(self):
        # the (0.2, 300) cell is past the sampler's limit: it fails in
        # its rows, and the (0.02, 300) cell is still validated
        code, text = run_cli(["validate", "--rho-values", "0.02,0.2",
                              "--r0-values", "300", "--n", "20000"])
        assert code == EXIT_VALIDATION_FAILED
        assert text.count("\n0.02,300,") == 6
        assert text.count("\n0.20000000000000001,300,") == 6
        # the refused rows have no z: none of them counts as a comparison
        assert "exceed |z| = 3" not in text
        assert "validation FAILED: 6 row(s) out of 12 could not be " \
               "compared\n" in text
        assert "  rho=0.2 r0=300.0 corrected E_Psave (error: rho*r0 = " \
               "60.0" in text

    def test_no_sleep_rows_are_not_comparisons(self):
        # no gap outlasts a 200 km coverage: both E_Toff rows have no
        # estimate, and both E_Psave rows (0 W, se 0) pass
        code, text = run_cli(["validate", "--rho-values", "0.02",
                              "--r0-values", "200", "--D", "200000",
                              "--n", "10000"])
        assert code == EXIT_VALIDATION_FAILED
        assert text.endswith(
            "validation FAILED: 2 row(s) out of 6 could not be compared\n"
            "  rho=0.02 r0=200.0 paper E_Toff (no sleep opportunity)\n"
            "  rho=0.02 r0=200.0 corrected E_Toff (no sleep opportunity)\n")

    def test_one_sleeping_cycle_is_not_a_comparison(self, tmp_path):
        # one of 10^4 paper-law cycles outlasts a 5 km coverage: its sleep
        # time has no standard error, nor has the corrected law's, whose
        # sampled part is that one cycle, so neither row is compared and
        # both fail
        path = tmp_path / "validate.json"
        code, text = run_cli(["validate", "--rho-values", "0.01",
                              "--r0-values", "200", "--D", "5000", "--n",
                              "10000", "--seed", "0", "--format", "json",
                              "--out", str(path)])
        assert code == EXIT_VALIDATION_FAILED
        rows = {(row["fidelity"], row["metric"]): row
                for row in _strict_json(path)["rows"]}
        for fidelity in ("paper", "corrected"):
            row = rows[(fidelity, "E_Toff")]
            assert row["value"] > 0.0
            assert (row["stderr"], row["z"], row["passed"],
                    row["status"]) == (None, None, False,
                                       "one sample: no standard error")
        assert text.endswith(
            "validation FAILED: 2 row(s) out of 6 could not be compared\n"
            "  rho=0.01 r0=200.0 paper E_Toff (one sample: no standard "
            "error)\n"
            "  rho=0.01 r0=200.0 corrected E_Toff (one sample: no standard "
            "error)\n")

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_workers_is_rejected(self, tmp_path, capsys, how):
        # validate runs in one process and takes no --workers: the flag
        # is an unrecognized argument, the config key names no option
        argv = ["validate", "--n", "10000"]
        if how == "flag":
            argv += ["--workers", "2"]
            want = "unrecognized arguments: --workers 2"
        else:
            path = tmp_path / "run.conf"
            path.write_text("n = 10000\nworkers = 2\n")
            argv += ["--config", str(path)]
            want = f"{path}:2: 'workers' names no option of any call"
        assert run_cli(argv) == (EXIT_CONFIG_ERROR, "")
        assert capsys.readouterr().err.rstrip().endswith(want)


class TestSweepCommand:
    def test_custom_grid_csv_to_stdout(self):
        code, text = run_cli(["sweep", "--rho-values", "0.01,0.02",
                              "--r0-values", "200",
                              "--metrics", "E_X,E_Psave"])
        assert code == EXIT_OK
        body = text.split("\n\n", 1)[1]
        lines = body.strip().splitlines()
        assert lines[0].startswith("rho,r0,D,a,b,P0,Ec,fidelity,metric")
        assert len(lines) == 1 + 2 * 2

    def test_preset_writes_file(self, tmp_path):
        out_path = tmp_path / "fig3.csv"
        code, text = run_cli(["sweep", "--preset", "fig3",
                              "--out", str(out_path)])
        assert code == EXIT_OK
        assert out_path.exists()
        assert f"wrote {out_path}" in text
        header = out_path.read_text().splitlines()[0]
        assert header.startswith("rho,r0")

    def test_multi_preset_suffixes_outputs(self, tmp_path):
        base = tmp_path / "figures"
        code, _ = run_cli(["sweep", "--preset", "fig3,fig5",
                           "--out", str(base)])
        assert code == EXIT_OK
        assert (tmp_path / "figures_fig3.csv").exists()
        assert (tmp_path / "figures_fig5.csv").exists()

    def test_deterministic_bytes(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _ = run_cli(["sweep", "--preset", "fig3",
                               "--out", str(path)])
            assert code == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_density_limit_is_recorded_in_rows(self):
        # rho r0 = 800 is past the gap law's limit: the cell's analytic
        # metrics carry the named error and the sweep still succeeds
        code, text = run_cli(["sweep", "--rho-values", "4",
                              "--r0-values", "200"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text.split("\n\n", 1)[1])))
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["E_X"]["status"].startswith("error: rho*r0 = 800")
        assert "exceeds the limit 700" in by_metric["E_X"]["status"]
        assert by_metric["baseline_Psave"]["status"] == "ok"

    def test_near_zero_density_is_recorded_in_rows(self):
        # the gap law refuses rho*r0 = 1e-18; E_X and the baseline are
        # closed forms that stay finite there
        code, text = run_cli(["sweep", "--rho-values", "1e-20",
                              "--r0-values", "100"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text.split("\n\n", 1)[1])))
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["E_X"]["status"] == "ok"
        assert by_metric["baseline_Psave"]["status"] == "ok"
        for metric in ("E_Toff", "E_Psave", "prob_sleep"):
            assert by_metric[metric]["status"].startswith(
                "error: rho*r0 = 9.999999999999999e-19 (rho=1e-20, "
                "r0=100.0) is too small"), metric

    def test_paper_law_below_its_density_limit_is_recorded_in_rows(self):
        code, text = run_cli(["sweep", "--fidelity", "paper", "--rho-values",
                              "1e-10", "--r0-values", "100"])
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(text.split("\n\n", 1)[1])))
        by_metric = {row["metric"]: row for row in rows}
        assert by_metric["E_X"]["status"] == "ok"
        assert by_metric["baseline_Psave"]["status"] == "ok"
        for metric in ("E_Toff", "E_Psave", "prob_sleep"):
            assert by_metric[metric]["status"].startswith(
                "error: rho*r0 = 1e-08 (rho=1e-10, r0=100.0) is below "
                "the paper law's limit 5e-08"), metric

    def test_environment_does_not_set_workers(self, monkeypatch, capsys):
        # sweep runs serially whatever the environment says
        monkeypatch.setenv("SLEEPNET_WORKERS", "junk")
        code, _ = run_cli(["sweep", "--rho-values", "0.02",
                           "--r0-values", "200", "--metrics", "E_X"])
        assert code == EXIT_OK
        assert "--workers" not in capsys.readouterr().err

    def test_config_workers_is_an_error(self, tmp_path, capsys):
        # no call takes workers, so a config file that sets it fails
        # every call, sweep too, and names its line
        path = tmp_path / "run.conf"
        path.write_text("workers = 2\n")
        code, text = run_cli(["sweep", "--rho-values", "0.01,0.02",
                              "--r0-values", "200", "--config", str(path)])
        assert (code, text) == (EXIT_CONFIG_ERROR, "")
        assert capsys.readouterr().err == (
            f"error (config): {path}:1: 'workers' names no option of any "
            "call\n")

    def test_unknown_preset(self):
        code, _ = run_cli(["sweep", "--preset", "fig9"])
        assert code == EXIT_CONFIG_ERROR

    def test_unknown_metric(self):
        code, _ = run_cli(["sweep", "--rho-values", "0.01",
                           "--r0-values", "200", "--metrics", "entropy"])
        assert code == EXIT_CONFIG_ERROR


def test_start_up_loads_no_process_pool():
    # the CLI runs in one process: neither its import nor its parser
    # loads multiprocessing
    code = ("import sys; from sleepnet import cli; cli.make_parser(); "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'}"
            " & set(sys.modules)))")
    src = str(Path(sleepnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
