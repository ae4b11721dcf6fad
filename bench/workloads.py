"""Workload definitions: the CLI calls one pass of each workload makes.

A pass is a fixed list of operations; operation i has the same kind in
every pass, so its timings can be pooled across passes.  The inputs of a
pass are a pure function of (workload seed, pass index): the program only
ever sees the generated command-line arguments.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

WORKLOADS = ("figures", "cycles", "timeline")

GRID_RHO = ("0.005", "0.02", "0.08")
GRID_R0 = ("100", "200", "400")
FIDELITIES = ("paper", "corrected")

CYCLES_N = 1_000_000
HETERO_DURATION = "1600"
COMMON_SPEED = "60kmh"

#: Timeline runs draw their --seed from these stored-reference pools (the
#: reference for the event loop is its output at the seed commit, which
#: exists only for stored seeds).  The workload seed picks the offset.
HETERO_POOL = 96
COMMON_POOL = 96

#: Canonical speed band (40-80 km/h) in m/s and E[1/V] for uniform V.
SPEED_A = 40.0 / 3.6
SPEED_B = 80.0 / 3.6
MEAN_INV_SPEED = (math.log1p((SPEED_B - SPEED_A) / SPEED_A)
                  / (SPEED_B - SPEED_A))


def derive_seed(*keys) -> int:
    """A 31-bit seed from any tuple of keys, stable across processes."""
    digest = hashlib.sha256(repr(keys).encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


@dataclass
class Op:
    """One CLI call: its arguments, the files it writes, and what it is."""

    kind: str
    argv: List[str]
    outputs: List[Path]
    meta: Dict[str, object] = field(default_factory=dict)


def _json_out(workdir: Path, name: str) -> Tuple[List[str], Path]:
    path = workdir / f"{name}.json"
    return ["--format", "json", "--out", str(path)], path


def figures_pass(seed: int, index: int, workdir: Path) -> List[Op]:
    ops = []
    args, path = _json_out(workdir, "analytic")
    ops.append(Op("analytic", ["analytic"] + args, [path]))
    args, path = _json_out(workdir, "sweep")
    ops.append(Op("sweep", ["sweep"] + args, [path]))
    base = workdir / "preset"
    ops.append(Op("presets",
                  ["sweep", "--preset", "fig4,fig5", "--format", "json",
                   "--out", str(base)],
                  [Path(f"{base}_fig4.json"), Path(f"{base}_fig5.json")]))
    args, path = _json_out(workdir, "validate")
    vseed = derive_seed("figures", seed, index)
    ops.append(Op("validate", ["validate", "--seed", str(vseed)] + args,
                  [path]))
    return ops


def cycles_pass(seed: int, index: int, workdir: Path) -> List[Op]:
    ops = []
    for rho in GRID_RHO:
        for r0 in GRID_R0:
            for fidelity in FIDELITIES:
                run_seed = derive_seed("cycles", seed, index, rho, r0,
                                       fidelity)
                args, path = _json_out(workdir, "cycles")
                ops.append(Op(
                    "cycles",
                    ["simulate", "--mode", "cycles", "--n", str(CYCLES_N),
                     "--rho", rho, "--r0", r0, "--fidelity", fidelity,
                     "--seed", str(run_seed)] + args,
                    [path],
                    {"rho": float(rho), "r0": float(r0),
                     "fidelity": fidelity, "n": CYCLES_N}))
    return ops


def timeline_pass(seed: int, index: int, workdir: Path) -> List[Op]:
    ops = []
    offset = derive_seed("timeline", seed)
    for i in range(3):
        pool_seed = (offset + 3 * index + i) % HETERO_POOL
        args, path = _json_out(workdir, "hetero")
        ops.append(Op(
            "hetero",
            ["simulate", "--mode", "timeline-heterogeneous", "--duration",
             HETERO_DURATION, "--seed", str(pool_seed)] + args,
            [path], {"seed": pool_seed}))
    pool_seed = (offset + index) % COMMON_POOL
    args, path = _json_out(workdir, "common")
    ops.append(Op(
        "common",
        ["simulate", "--mode", "timeline-common", "--v", COMMON_SPEED,
         "--seed", str(pool_seed)] + args,
        [path], {"seed": pool_seed}))
    return ops


_PASSES = {"figures": figures_pass, "cycles": cycles_pass,
           "timeline": timeline_pass}


def build_pass(workload: str, seed: int, index: int,
               workdir: Path) -> List[Op]:
    return _PASSES[workload](seed, index, workdir)


def warmup_argv(workload: str, workdir: Path) -> List[str]:
    """A small untimed call that loads the code paths a workload uses."""
    out = ["--format", "json", "--out", str(workdir / "warmup.json")]
    if workload == "figures":
        return ["analytic", "--rho", "0.05", "--r0", "100"] + out
    if workload == "cycles":
        return ["simulate", "--mode", "cycles", "--n", "20000"] + out
    return ["simulate", "--mode", "timeline-heterogeneous", "--duration",
            "50", "--seed", "0"] + out
