"""Regenerate bench/references.json from the current sources.

    python3 bench/make_references.py --program "sleepnet 0.1.0 at <commit>"

Run it only at a commit whose outputs are the accepted reference: the
file records the program's own analytic outputs at 17 significant digits
(source "program"), the E[X] identity (source "identity") and the
decimal F(D) series (source "oracle") from oracle.py, and the seeded
timeline outputs of every pool seed.  Takes about four minutes.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from checks import ANALYTIC_KEYS, CANONICAL_CELL, ref_key  # noqa: E402
from workloads import (COMMON_POOL, COMMON_SPEED, FIDELITIES,  # noqa: E402
                       GRID_R0, GRID_RHO, HETERO_DURATION, HETERO_POOL,
                       figures_pass)

from sleepnet import cli  # noqa: E402
from sleepnet.params import CANONICAL  # noqa: E402

TOLERANCES = {
    "analytic_rel": 1e-8,
    "timeline_rel": 1e-9,
    "mc_gross_rel": 0.05,
    "mc_gross_z": 6.0,
}


def _run(argv, workdir: Path) -> dict:
    path = workdir / "out.json"
    code = cli.main(argv + ["--format", "json", "--out", str(path)],
                    out=io.StringIO())
    if code not in (0, 1):
        raise SystemExit(f"{argv}: exit code {code}")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def analytic_references(workdir: Path) -> dict:
    table = {}
    cells = set()

    def put(fidelity, rho, r0, metric, value):
        table.setdefault(ref_key(fidelity, rho, r0, metric),
                         {})["program"] = value
        cells.add((fidelity, float(rho), float(r0)))

    for op in figures_pass(0, 0, workdir):
        code = cli.main(op.argv, out=io.StringIO())
        if code not in (0, 1):
            raise SystemExit(f"{op.argv}: exit code {code}")
        for path in op.outputs:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
            if op.kind == "analytic":
                rho, r0 = CANONICAL_CELL
                for metric, key in ANALYTIC_KEYS.items():
                    put(doc["fidelity"], rho, r0, metric, doc[key])
                continue
            for row in doc["rows"]:
                value = row["analytic"] if op.kind == "validate" \
                    else row["value"]
                put(row["fidelity"], row["rho"], row["r0"], row["metric"],
                    value)
    for rho in GRID_RHO:
        for r0 in GRID_R0:
            for fidelity in FIDELITIES:
                cells.add((fidelity, float(rho), float(r0)))
    for fidelity, rho, r0 in sorted(cells):
        table[ref_key(fidelity, rho, r0, "F_D")] = {
            "oracle": oracle.gap_cdf(rho, r0, CANONICAL.D, fidelity)}
        if fidelity == "corrected":
            table.setdefault(ref_key(fidelity, rho, r0, "E_X"), {})[
                "identity"] = oracle.expected_gap_corrected(rho, r0)
    return dict(sorted(table.items()))


def timeline_references(workdir: Path) -> dict:
    hetero, common = {}, {}
    for seed in range(HETERO_POOL):
        doc = _run(["simulate", "--mode", "timeline-heterogeneous",
                    "--duration", HETERO_DURATION, "--seed", str(seed)],
                   workdir)
        hetero[str(seed)] = {"n_transitions": doc["n_transitions"],
                             "sleep_fraction": doc["sleep_fraction"]}
        print(f"heterogeneous seed {seed}", file=sys.stderr, flush=True)
    for seed in range(COMMON_POOL):
        doc = _run(["simulate", "--mode", "timeline-common", "--v",
                    COMMON_SPEED, "--seed", str(seed)], workdir)
        common[str(seed)] = {
            "n_transitions": doc["n_transitions"],
            "n_cycles": doc["n_cycles"],
            "sleep_fraction": doc["sleep_fraction"],
            "cycle_mean_power_saved_W": doc["cycle_mean_power_saved_W"]}
    return {"heterogeneous": hetero, "common": common}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--program", required=True,
                        help="label of the program version measured")
    args = parser.parse_args()
    workdir = HERE.parent / ".bench_out" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = {
            "schema": "sleepnet-bench-references/1",
            "program": args.program,
            "sources": {
                "program": "the program's own output at that version, "
                           "17 significant digits",
                "identity": "E[X] = exp(rho r0) / rho, corrected fidelity",
                "oracle": "F(D) by the delayed-exponential series in "
                          "decimal at 80 digits (oracle.py); the "
                          "prob_sleep reference is 1 - F(D)",
                "timeline": "seeded simulate runs at that version, "
                            "by pool seed",
            },
            "tolerances": TOLERANCES,
            "analytic": analytic_references(workdir),
            "timeline": timeline_references(workdir),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(HERE / "references.json", "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
