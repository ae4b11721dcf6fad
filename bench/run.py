"""sleepnet benchmark: run one workload through `sleepnet.cli.main`
in-process, check every output against the stored references, and print
the metrics named in BENCHMARK.json.

    python3 bench/run.py --workload figures --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (and writes its spans under .bench_out/).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 bench/run.py --steadiness 5 --seconds 30

runs two sets of runs per workload, each with its own seeds, and reports
per metric the quartile spread of all runs and whether the two sets'
medians agree within the bounds in BENCHMARK.json.

The run is serial and single-process: one CLI call at a time, no worker
pools (SLEEPNET_WORKERS is removed from the environment).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))

from checks import DIGITS_CAP, OpResult, References, check_op  # noqa: E402
from workloads import WORKLOADS, Op, build_pass, warmup_argv  # noqa: E402

#: setup_s: at least this many fresh interpreters, then one whenever this
#: many seconds have passed since the last (after one untimed run that
#: byte-compiles the package).
SETUP_MIN_SAMPLES = 5
SETUP_EVERY_S = 4.0
SETUP_CODE = "import sleepnet.cli as cli; cli.make_parser()"

#: Fixed probe points, in units of r0, inside the quadrature branch
#: [2 r0, switch) of the canonical gap density.
PROBE_PDF_POINTS = tuple(2.13 + 0.41 * k for k in range(9))
PROBE_CDF_POINTS = tuple(2.31 + 0.37 * k for k in range(9))

Sample = Tuple[float, OpResult]


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# -- running operations -----------------------------------------------------


def run_op(cli, op, refs: References) -> Sample:
    for path in op.outputs:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main(op.argv, out=sink)
    except Exception:  # a crash is a failed operation, not a failed run
        code = None
        traceback.print_exc()
    elapsed = time.perf_counter() - start
    result = check_op(op, code, refs)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return elapsed, result


class SetupTimer:
    """Times fresh interpreters that import sleepnet.cli and build its
    parser.  Samples are spread over the run, between operations, so
    their median follows the run rather than one moment of it."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self._env = env
        self._cmd = [sys.executable, "-c", SETUP_CODE]
        self.times: List[float] = []
        self.last = -math.inf
        self._run()  # untimed: byte-compiles the package

    def _run(self) -> None:
        subprocess.run(self._cmd, env=self._env, cwd=ROOT, check=True)

    def sample(self) -> None:
        start = time.perf_counter()
        self._run()
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def due(self) -> bool:
        return (len(self.times) < SETUP_MIN_SAMPLES
                or time.perf_counter() - self.last >= SETUP_EVERY_S)


def run_rounds(workload: str, seed: int, seconds: float, workdir: Path,
               run_one: Callable[[int, Op], Sample],
               ) -> Tuple[Dict[int, List[Sample]], int]:
    """Operations in pass order, round after round, until the next one
    would end after `seconds`; the first pass always completes.
    `run_one(pass_index, op)` runs one operation and returns its sample;
    its time is what the stopping rule budgets for.

    Returns the samples of each operation position and the number of
    complete passes.
    """
    samples: Dict[int, List[Sample]] = defaultdict(list)
    start = time.perf_counter()
    index = 0
    while True:
        for pos, op in enumerate(build_pass(workload, seed, index, workdir)):
            if index > 0:
                expected = statistics.median(t for t, _ in samples[pos])
                if time.perf_counter() - start + expected > seconds:
                    return samples, index
            samples[pos].append(run_one(index, op))
        index += 1


# -- metrics ----------------------------------------------------------------


def _all(samples: Dict[int, List[Sample]]) -> List[OpResult]:
    return [res for rows in samples.values() for _, res in rows]


def accuracy_metrics(results: List[OpResult]) -> Dict[str, float]:
    digits = [d for r in results for d in r.digits]
    shortfall = [d for r in results for d in r.shortfall_digits]
    return {"digits": min(digits, default=DIGITS_CAP),
            "shortfall_digits": min(shortfall, default=DIGITS_CAP)}


def end_to_end(samples: Dict[int, List[Sample]], setup_s: float,
               ) -> Dict[str, float]:
    """Per-pass figures from the per-position medians."""
    def med(pos, fn):
        return statistics.median(fn(t, r) for t, r in samples[pos])

    positions = sorted(samples)
    times = {pos: med(pos, lambda t, r: t) for pos in positions}
    wall = sum(times.values())
    cells = sum(med(pos, lambda t, r: r.cells) for pos in positions)
    cycles = sum(med(pos, lambda t, r: r.cycles) for pos in positions)
    sim_pos = [pos for pos in positions
               if samples[pos][0][1].sim_s is not None]
    if sim_pos:
        # event-loop runs: their simulated time over their own time
        sim_s = sum(med(pos, lambda t, r: r.sim_s) for pos in sim_pos)
        sim_wall = sum(times[pos] for pos in sim_pos)
    else:
        # renewal cycles: a fixed road time per pass over the pass time,
        # a constant multiple of 1 / wall_s
        sim_s = sum(med(pos, lambda t, r: r.road_s) for pos in positions)
        sim_wall = wall
    attempted = sum(med(pos, lambda t, r: r.attempted) for pos in positions)
    failed = sum(statistics.fmean(r.failed for _, r in samples[pos])
                 for pos in positions)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "cells_per_s": cells / wall,
        "cycles_per_s": cycles / wall,
        "sim_s_per_s": sim_s / sim_wall if sim_wall else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Jeffreys estimate (f + 1/2) / (n + 1): never 0, and equal to
        # the plain share to within 1/n once failures occur
        "failed_share": (failed + 0.5) / (attempted + 1.0),
    }
    metrics.update(accuracy_metrics(_all(samples)))
    return metrics


def monte_carlo_metrics(results: List[OpResult]) -> Dict[str, float]:
    abs_z = [z for r in results for z in r.abs_z]
    rel_se = [s for r in results for s in r.rel_se_psave]
    return {
        "max_abs_z": max(abs_z, default=0.0),
        "mc_failed_share": (sum(r.z_failed for r in results) / len(abs_z)
                            if abs_z else 0.0),
        "simulate.rel_se_psave": statistics.median(rel_se) if rel_se
        else 0.0,
    }


def probe_metrics(tracer) -> Dict[str, float]:
    """Single evaluations on a freshly built canonical distribution; all
    absent if the distribution API they call no longer exists."""
    from sleepnet import analytic
    from sleepnet.params import CANONICAL

    params = CANONICAL
    clock = time.perf_counter

    def timed(fn):
        start = clock()
        value = fn()
        return clock() - start, value

    try:
        dist = analytic.ChGapDistribution(params)
        pdf_us = [timed(lambda: dist.pdf(x * params.r0))[0] * 1e6
                  for x in PROBE_PDF_POINTS]
        cdf_us = [timed(lambda: dist.cdf(x * params.r0))[0] * 1e6
                  for x in PROBE_CDF_POINTS]
        ex_s, ex = timed(lambda: analytic.expected_ch_gap(params, dist))
        psleep_s, _ = timed(lambda: dist.integral(lo=params.D))
        inv_s, _ = timed(lambda: dist.integral(lambda xs: 1.0 / xs,
                                               lo=params.D))
    except AttributeError:
        return {}
    tracer.record_distribution(dist)
    tracer.record_expected_gap(params, ex)
    return {
        "analytic.probe_pdf_us": statistics.median(pdf_us),
        "analytic.probe_cdf_us": statistics.median(cdf_us),
        "analytic.E_X_s": ex_s,
        "analytic.P_sleep_s": psleep_s,
        "analytic.E_inv_s": inv_s,
    }


# -- one run ------------------------------------------------------------------


def run_untraced(cli, args, workdir, refs):
    """Each operation once; a setup sample follows it when one is due."""
    setup = SetupTimer()

    def run_one(index, op):
        sample = run_op(cli, op, refs)
        if setup.due():
            setup.sample()
        return sample

    samples, _ = run_rounds(args.workload, args.seed, args.seconds,
                            workdir, run_one)
    sizes = {pos: len(rows) for pos, rows in samples.items()}
    print(f"# {args.workload}: {len(sizes)} operations per pass, "
          f"samples per operation {sorted(set(sizes.values()))}, "
          f"setup from {len(setup.times)} fresh interpreters")
    return _all(samples), end_to_end(samples,
                                     statistics.median(setup.times))


def run_traced(cli, args, workdir, refs):
    """Each operation once traced and once untraced, alternating which
    goes first.  Per-layer metrics are medians over complete passes."""
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    results: List[OpResult] = []
    overheads: Dict[int, float] = defaultdict(float)
    order = [False, True]

    def run_one(index, op):
        tracer.pass_index = index
        elapsed = 0.0
        for traced in order:
            if traced:
                tracer.install()
            try:
                took, res = run_op(cli, op, refs)
            finally:
                tracer.uninstall()
            overheads[index] += took if traced else -took
            elapsed += took
            results.append(res)
        order.reverse()
        return elapsed, res

    _, passes = run_rounds(args.workload, args.seed, args.seconds, workdir,
                           run_one)
    # the probe's distribution joins the health figures, so they exist
    # on workloads that build none
    probes = probe_metrics(tracer)
    metrics = layer_metrics(tracer, list(range(passes)))
    metrics.update(probes)
    metrics.update(monte_carlo_metrics(results))
    by_pass = [overheads[p] for p in range(passes)]
    metrics["trace.overhead_s"] = statistics.median(by_pass)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "overhead_s_by_pass": by_pass})
    print(f"# {args.workload}: {passes} complete traced pass(es), each "
          f"operation also run untraced; spans written to "
          f"{path.relative_to(ROOT)}")
    return results, metrics


def report(spec: Dict, metrics: Dict[str, float], trace: bool,
           results: List[OpResult]) -> Dict:
    kind = "per_layer" if trace else "end_to_end"
    out = {}
    for entry in spec[kind]:
        name = entry["name"]
        if name not in metrics:
            print(f"# {name}: absent (its target no longer exists)")
            continue
        value = float(metrics[name])
        out[name] = {"value": value, "unit": entry["unit"]}
        print(f"{name:32s} {value:>16.6g} {entry['unit']:8s} "
              f"{entry['better']} is better")
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": out}


def run_workload(args) -> int:
    spec = load_spec()
    refs = References.load(HERE / "references.json")
    sys.path.insert(0, str(SRC))
    os.environ.pop("SLEEPNET_WORKERS", None)
    from sleepnet import cli

    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        code = cli.main(warmup_argv(args.workload, workdir),
                        out=io.StringIO())
        if code != 0:
            print(f"warm-up call exited with {code}", file=sys.stderr)
            return 1
        runner = run_traced if args.trace else run_untraced
        results, metrics = runner(cli, args, workdir, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    doc = report(spec, metrics, bool(args.trace), results)
    print(json.dumps(doc, sort_keys=True))
    return 0


# -- steadiness -----------------------------------------------------------


def quartile_spread(values: List[float]) -> float:
    """(Q3 - Q1) / median, with Python's default quartile method."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median) if median else math.inf


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0.0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def judge(entry: Dict, a: List[float], b: List[float]) -> Dict:
    """One metric over two sets of runs: steady if the quartile spread of
    all runs is within the bound, agreeing if set b's median is not worse
    than set a's by more than the bound."""
    spread = quartile_spread(a + b)
    drift = worse_by(statistics.median(a), statistics.median(b),
                     entry["better"])
    return {"values_a": a, "values_b": b,
            "median_a": statistics.median(a),
            "median_b": statistics.median(b),
            "spread": spread, "worse_by": drift, "bound": entry["bound"],
            "agree": drift <= entry["bound"],
            "steady": spread <= entry["bound"]}


def run_steadiness(args) -> int:
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    summary = {}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets: List[List[Dict]] = [[], []]
        for set_index in range(2):
            for k in range(args.steadiness):
                seed = 1 + set_index * args.steadiness + k
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                start = time.perf_counter()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(proc.stderr, file=sys.stderr)
                    print(f"{workload} seed {seed}: exit {proc.returncode}")
                    return 1
                doc = json.loads(lines[-1])
                sets[set_index].append(doc)
                print(f"# {workload} set {'AB'[set_index]} seed {seed}: "
                      f"{time.perf_counter() - start:.1f} s, correct="
                      f"{doc['correct']}", flush=True)
        rows = {}
        for entry in spec["end_to_end"]:
            name = entry["name"]
            row = judge(entry,
                        [d["metrics"][name]["value"] for d in sets[0]],
                        [d["metrics"][name]["value"] for d in sets[1]])
            ok = ok and row["agree"] and row["steady"]
            rows[name] = row
            print(f"{workload:9s} {name:17s} A {row['median_a']:12.6g} "
                  f"B {row['median_b']:12.6g} spread {row['spread']:7.2%} "
                  f"worse {row['worse_by']:+7.2%} bound {entry['bound']:.0%} "
                  f"{'agree' if row['agree'] else 'DISAGREE'}"
                  f"{'' if row['steady'] else ' UNSTEADY'}", flush=True)
        summary[workload] = rows
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "steadiness.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    print(json.dumps({"steady_and_agree": ok}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS",
                        help="runs per set; two sets per workload")
    args = parser.parse_args(argv)
    if not (SRC / "sleepnet" / "cli.py").is_file():
        print(f"error: no sleepnet sources under {SRC}", file=sys.stderr)
        return 2
    if args.steadiness:
        return run_steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
