"""Generative-model engines independent of the closed-form route:

- a renewal-cycle sampler drawing (cluster-head gap, speed) pairs, with
  the per-cycle energy bookkeeping (``_cycle_energy``) that the
  common-speed timeline shares, reduced block by block to ``CycleSums``,
- a spatial Poisson snapshot sampler with cluster extraction, and
- a time-domain base-station sleep/wake simulator on a road it sizes
  from the run's duration and fastest speed (``_road_window``),
  vectorised when a common speed is given and event-driven at
  per-vehicle speeds otherwise, the road kept in order between events by
  swaps at overtakes and its candidate events in a kinetic queue (the
  bits of a full re-sort and rescan at every event); both modes charge
  the run through ``_timeline_report``.

All samplers are pure functions of an RngSpec: identical (master_seed,
stream_id) pairs reproduce bit-identical sample streams, so parallel
streams are independent and individually replayable.  The renewal
sampler draws its cycles in fixed blocks, each from its own PCG64
stream spawned from one draw of the caller's generator, on one
process-wide pool of two threads, started on first use, that take whole
blocks as they come free, each thread keeping its own block scratch from
call to call; the sums are pooled in block order, so its bits depend on
the seed only, not on the CPU count, the thread count or ``--workers``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Union

import numpy as np

from .params import Fidelity, ModelParams, ParamError, check_density

__all__ = [
    "RngSpec",
    "Snapshot",
    "ClusterSet",
    "CycleSums",
    "EnergyEstimate",
    "TimelineReport",
    "WindowTooSmallError",
    "sample_snapshot",
    "extract_clusters",
    "sample_cycles",
    "estimate_energy",
    "run_timeline",
]

#: Cluster sizes up to this draw every intra-cluster gap explicitly; larger
#: clusters use a moment-matched normal for the gap sum (exact mean and
#: variance, shape error O(1/size)).
DIRECT_SUM_LIMIT = 256

#: Largest rho*r0 ``sample_cycles`` accepts.  Its float cluster size does
#: not saturate; the limit stays until a sampler validated beyond it lands
#: (ROADMAP item 4: the plain one is biased from rho*r0 = 32, and
#: ``_trunc_exp_stats`` squares expm1(rho*r0), which overflows past 355).
SAMPLER_RHO_R0_LIMIT = 40.0

#: Cycles one block of ``sample_cycles`` draws from its own stream: part
#: of the seeded output, not a tuning option.
_CYCLE_BLOCK = 1 << 16

#: Intra-cluster gaps drawn at once by the direct-sum branch of a block.
_GAP_CHUNK = 1 << 16

#: Threads of the block pool, the most ``sample_cycles`` was measured
#: with, and so the most block scratches the process keeps.
_MAX_CYCLE_THREADS = 2

#: Hard cap on processed events in the heterogeneous timeline.
MAX_EVENTS = 100_000_000

#: The heterogeneous timeline's next event is the earliest candidate
#: more than _EPS seconds ahead.
_EPS = 1e-9

#: Unit roundoff of a double: the event queue's error bounds are in it.
_U = 2.0 ** -53


class WindowTooSmallError(ValueError):
    """Raised when a spatial window is too short for unbiased statistics."""

    def __init__(self, window_length: float, required: float):
        self.window_length = window_length
        self.required = required
        super().__init__(
            f"window_length={window_length!r} m is too small; "
            f"need at least {required!r} m")


@dataclass(frozen=True)
class RngSpec:
    """Counter-based stream derivation: (master_seed, stream_id) names one
    reproducible, statistically independent random stream."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed,
                                     spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.Philox(seq))


def _as_generator(rng: Union[RngSpec, np.random.Generator]
                  ) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    return rng


@dataclass(frozen=True)
class Snapshot:
    """One instant of road state: sorted vehicle positions on
    [0, window_length] with matching speeds."""

    window_length: float
    positions: np.ndarray
    speeds: np.ndarray

    def __post_init__(self):
        if len(self.positions) != len(self.speeds):
            raise ValueError("positions and speeds must have equal length")

    @property
    def n_vehicles(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class ClusterSet:
    """Maximal runs of vehicles with consecutive gaps <= r0, ordered by
    position.  The head of a cluster is its front-most (largest-coordinate)
    member."""

    head_positions: np.ndarray
    tail_positions: np.ndarray
    member_counts: np.ndarray


def _snapshot_window(params: ModelParams) -> float:
    return 50.0 * max(1.0 / params.rho, params.r0)


def sample_snapshot(params: ModelParams, window_length: float,
                    rng: Union[RngSpec, np.random.Generator]) -> Snapshot:
    """Draw one homogeneous-Poisson road snapshot.

    Vehicle count ~ Poisson(rho * window_length); positions i.i.d. uniform
    then sorted; speeds i.i.d. uniform(a, b).  The window must be at least
    50 * max(1/rho, r0) so edge censoring leaves enough interior.
    """
    required = _snapshot_window(params)
    if window_length < required:
        raise WindowTooSmallError(window_length, required)
    gen = _as_generator(rng)
    n = int(gen.poisson(params.rho * window_length))
    positions = np.sort(gen.uniform(0.0, window_length, size=n))
    speeds = gen.uniform(params.a, params.b, size=n)
    return Snapshot(window_length, positions, speeds)


def extract_clusters(snapshot: Snapshot, r0: float) -> ClusterSet:
    """Split the sorted snapshot into maximal runs with consecutive gaps
    <= r0 (a gap of exactly r0 joins)."""
    pos = snapshot.positions
    if len(pos) == 0:
        empty = np.empty(0)
        return ClusterSet(empty, empty, np.empty(0, dtype=np.int64))
    breaks = np.flatnonzero(np.diff(pos) > r0)
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(pos) - 1]))
    return ClusterSet(head_positions=pos[ends], tail_positions=pos[starts],
                      member_counts=(ends - starts + 1).astype(np.int64))


def _trunc_exp_stats(rho: float, r0: float) -> tuple:
    """Mean and variance of an exponential(rho) conditioned on <= r0."""
    alpha = rho * r0
    em1 = math.expm1(alpha)
    mean = 1.0 / rho - r0 / em1
    var = 1.0 / rho ** 2 - r0 ** 2 * math.exp(alpha) / em1 ** 2
    return mean, var


def _cycle_energy(x, v, params: ModelParams, out=None) -> tuple:
    """Energy bookkeeping of renewal cycles with gaps x and speeds v.

    Returns (t_off, t_on, e_off, p_save), elementwise: the station sleeps
    t_off = max((x - D)/v, 0) and is on t_on = min(x, D)/v; a cycle that
    sleeps saves e_off = P0 t_off - Ec (one switching cost, possibly
    negative when the sleep is too short to amortize it), one that does
    not saves nothing; p_save = e_off / (t_off + t_on) is its mean power.
    ``out``, four arrays of x's shape, receives the result if given.
    """
    t_off, t_on, e_off, p_save = out = (
        np.empty((4,) + np.broadcast(x, v).shape) if out is None else out)
    np.divide(np.subtract(x, params.D, out=t_off), v, out=t_off)
    np.maximum(t_off, 0.0, out=t_off)
    np.divide(np.minimum(x, params.D, out=t_on), v, out=t_on)
    np.subtract(np.multiply(t_off, params.P0, out=e_off), params.Ec,
                out=e_off)
    np.putmask(e_off, t_off == 0.0, 0.0)
    np.divide(e_off, np.add(t_off, t_on, out=p_save), out=p_save)
    return tuple(out)


def _pooled(a: tuple, b: tuple) -> tuple:
    """Pool the (count, mean, M2) of two disjoint samples by the update of
    Chan, Golub & LeVeque (1983)."""
    (na, mean_a, m2_a), (nb, mean_b, m2_b) = a, b
    if na == 0 or nb == 0:
        return b if na == 0 else a
    n, delta = na + nb, mean_b - mean_a
    return (n, mean_a + delta * nb / n,
            m2_a + m2_b + delta * delta * na * nb / n)


def _moments(values: np.ndarray, tmp: np.ndarray) -> tuple:
    """(count, mean, M2) of values, M2 the sum of squared deviations, by
    np.square in tmp: a BLAS np.dot on the block threads oversubscribes."""
    mean = float(np.sum(values)) / max(len(values), 1)
    dev = np.square(np.subtract(values, mean, out=tmp), out=tmp)
    return len(values), mean, float(np.sum(dev))


@dataclass(frozen=True)
class CycleSums:
    """Sufficient statistics of renewal cycles: the (count, mean, M2) of
    the gap x and the power p_save over all cycles and of t_off over the
    cycles that sleep, and totals, the sums of e_off, t_off and t_on
    (``_cycle_energy``).  ``a + b`` pools two disjoint sets of cycles."""

    x: tuple
    sleep: tuple
    p_save: tuple
    totals: tuple

    def __len__(self) -> int:
        return self.x[0]

    def __add__(self, o: CycleSums) -> CycleSums:
        return CycleSums(_pooled(self.x, o.x), _pooled(self.sleep, o.sleep),
                         _pooled(self.p_save, o.p_save),
                         tuple(a + b for a, b in zip(self.totals, o.totals)))


class _BlockScratch:
    """One thread's cycle fields (x, v, t_off, t_on, e_off, p_save), two
    rows for the sums, mask, gap chunk and chunk offsets for blocks of up
    to m cycles, allocated once per thread (``_thread_scratch``): threads
    allocate little.  ``_cycle_block`` writes every slot it reads, so
    what an earlier block left in it changes no bit."""

    def __init__(self, m: int):
        self.m = m
        self.fields = np.empty((8, m))
        self.mask = np.empty(m, dtype=bool)
        self.buf = np.empty(_gap_buf_len(m))
        self.offsets = np.empty(min(_GAP_CHUNK, m), dtype=np.int64)

    def covers(self, m: int) -> bool:
        """Whether blocks of up to m cycles fit (``_GAP_CHUNK`` may have
        changed since the scratch was made)."""
        return (self.m >= m and len(self.buf) >= _gap_buf_len(m)
                and len(self.offsets) >= min(_GAP_CHUNK, m))


def _gap_buf_len(m: int) -> int:
    return min(max(_GAP_CHUNK, DIRECT_SUM_LIMIT), DIRECT_SUM_LIMIT * m)


#: Each thread's block scratch, kept from one block, and one call, to the
#: next: a fresh one costs faulting in about 5 MB.
_local = threading.local()


def _thread_scratch(m: int) -> _BlockScratch:
    """This thread's scratch, replaced by a full-block one when it does
    not cover blocks of m cycles."""
    s = getattr(_local, "scratch", None)
    if s is None or not s.covers(m):
        _local.scratch = None               # free the old one first
        s = _local.scratch = _BlockScratch(_CYCLE_BLOCK)
    return s


#: The block pool, started on first use (``_block_pool``).
_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the pool's threads were not copied."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _block_pool() -> Optional[ThreadPoolExecutor]:
    """The pool of _MAX_CYCLE_THREADS block threads, or None where blocks
    run on the caller's thread: where the process may use one CPU, or in
    a process-pool worker (``validate --workers``), whose pool already
    has the CPUs."""
    global _pool
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if cpus < 2 or multiprocessing.parent_process() is not None:
        return None
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_MAX_CYCLE_THREADS,
                                       thread_name_prefix="sleepnet-block")
        return _pool


def _direct_spans(gen: np.random.Generator, ends: np.ndarray, q: float,
                  rho: float, spans: np.ndarray, s: _BlockScratch) -> None:
    """Fill spans[i] with the sum of the intra-cluster gaps
    (ends[i-1], ends[i]] (from 0 for i = 0; ends are whole floats), each
    -log1p(-u q)/rho for one uniform u, drawn from gen in chunks that end
    on cluster boundaries and hold at most _GAP_CHUNK gaps (one cluster,
    at most DIRECT_SUM_LIMIT, if larger), in the scratch s.buf and
    s.offsets.  The division by -rho is made once per cluster."""
    start = base = 0
    while start < len(ends):
        stop = max(int(np.searchsorted(ends, base + _GAP_CHUNK, "right")),
                   start + 1)
        g = s.buf[:int(ends[stop - 1]) - base]
        np.log1p(np.multiply(gen.random(out=g), -q, out=g), out=g)
        off = s.offsets[:stop - start]
        off[0] = 0
        np.subtract(ends[start:stop - 1], base, out=off[1:],
                    casting="unsafe")
        np.add.reduceat(g, off, out=spans[start:stop])
        start, base = stop, int(ends[stop - 1])
    np.divide(spans, -rho, out=spans)


def _cluster_gaps(gen: np.random.Generator, p_head: float, shift: float,
                  out: np.ndarray) -> None:
    """Fill out with floats that cannot saturate: geometric(p_head) - 1,
    P{n >= k} = (1 - p_head)^k, by inversion of a standard exponential,
    plus shift (1 under the paper fidelity)."""
    np.divide(gen.standard_exponential(out=out), -math.log1p(-p_head),
              out=out)
    np.add(np.floor(out, out=out), shift, out=out)


def _cycle_block(seed: np.random.SeedSequence, m: int,
                 params: ModelParams, shift: float,
                 s: _BlockScratch) -> CycleSums:
    """Draw m cycles from PCG64(seed) into s.fields[:6, :m] (x, v, t_off,
    t_on, e_off, p_save), in stream order: cluster sizes, direct gaps,
    big-cluster normals, head-to-tail jumps, speeds; return their sums."""
    gen = np.random.Generator(np.random.PCG64(seed))
    x, v, t_off, t_on, e_off, p_save, asleep, dev = out = s.fields[:, :m]
    rho, r0 = params.rho, params.r0
    # the bookkeeping rows hold the temporaries until _cycle_energy
    n_gaps, mask = p_save, s.mask[:m]
    _cluster_gaps(gen, math.exp(-rho * r0), shift, n_gaps)

    x.fill(0.0)
    np.greater(n_gaps, 0.0, out=mask)
    mask &= n_gaps <= DIRECT_SUM_LIMIT
    n_direct = int(np.count_nonzero(mask))
    spans, ends = t_off[:n_direct], t_on[:n_direct]
    np.cumsum(np.compress(mask, n_gaps, out=spans), out=ends)
    _direct_spans(gen, ends, -math.expm1(-rho * r0), rho, spans, s)
    np.place(x, mask, spans)
    np.greater(n_gaps, DIRECT_SUM_LIMIT, out=mask)
    n_big = int(np.count_nonzero(mask))
    k, z, w = t_off[:n_big], t_on[:n_big], e_off[:n_big]
    np.compress(mask, n_gaps, out=k)
    mean, var = _trunc_exp_stats(rho, r0)
    # gen.normal(k*mean, sqrt(k*var)) in the same rounding, clamped to the
    # span's support [0, k r0]
    np.sqrt(np.multiply(k, var, out=w), out=w)
    np.multiply(w, gen.standard_normal(out=z), out=z)
    np.add(np.multiply(k, mean, out=w), z, out=z)
    np.clip(z, 0.0, np.multiply(k, r0, out=w), out=z)
    np.place(x, mask, z)

    x1 = t_off                             # r0 + exponential(1/rho)
    np.multiply(gen.standard_exponential(out=x1), 1.0 / rho, out=x1)
    np.add(x, np.add(x1, r0, out=x1), out=x)
    np.multiply(gen.random(out=v), params.b - params.a, out=v)
    np.add(v, params.a, out=v)             # uniform(a, b), same rounding
    _cycle_energy(x, v, params, out=out[2:6])

    x_sums, p_sums = _moments(x, dev), _moments(p_save, dev)
    n_sleep = int(np.count_nonzero(np.greater(t_off, 0.0, out=mask)))
    sleep = _moments(np.compress(mask, t_off, out=asleep[:n_sleep]),
                     dev[:n_sleep])
    return CycleSums(x_sums, sleep, p_sums,
                     tuple(float(np.sum(f)) for f in (e_off, t_off, t_on)))


def sample_cycles(params: ModelParams, n: int,
                  rng: Union[RngSpec, np.random.Generator]) -> CycleSums:
    """Sum n >= 1000 independent renewal cycles of the generative model.

    Cluster size is geometric with success probability exp(-rho r0)
    (``_cluster_gaps``); the cluster span is the sum of (size - 1)
    intra-cluster gaps, each an exponential(rho) conditioned on <= r0, or
    above DIRECT_SUM_LIMIT gaps a moment-matched normal clamped to the
    span's support; the head-to-tail jump is r0 + exponential(rho); the
    speed is uniform(a, b).  Under ``params.fidelity`` `paper` the
    cluster size is conditioned on >= 2 vehicles.

    Block b of _CYCLE_BLOCK cycles draws from PCG64 seeded by child b of
    SeedSequence(root), root being one two-word draw from ``rng`` and all
    that ``rng`` advances by.  The blocks go to the threads of the block
    pool (``_block_pool``) as they come free, also a single block, and
    the sums are pooled in block order, so the bits depend on the seed
    only, not on the thread count or on which thread drew a block.
    Memory is one _BlockScratch per block thread (about 5 MB), whatever
    n, allocated once and kept from call to call; concurrent calls share
    the threads, never a scratch.  Raises ValueError when n < 1000 and
    ArithmeticError when rho*r0 > SAMPLER_RHO_R0_LIMIT, before any draw.
    """
    if n < 1000:
        raise ValueError(f"need at least 1000 cycles, got {n}")
    check_density(params, SAMPLER_RHO_R0_LIMIT,
                  "the plain renewal sampler is not validated beyond it")
    gen = _as_generator(rng)
    shift = 1.0 if params.fidelity is Fidelity.PAPER else 0.0
    root = gen.integers(1 << 64, size=2, dtype=np.uint64)
    n_blocks = -(-n // _CYCLE_BLOCK)
    seeds = np.random.SeedSequence(root).spawn(n_blocks)
    sizes = [min(_CYCLE_BLOCK, n - b * _CYCLE_BLOCK) for b in range(n_blocks)]

    def run(seed, m):
        return _cycle_block(seed, m, params, shift, _thread_scratch(m))

    pool = _block_pool()
    sums = list((map if pool is None else pool.map)(run, seeds, sizes))
    return sum(sums[1:], sums[0])


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo estimates of the energy figures, with standard errors
    (``_mean_se``), from the sums of ``sample_cycles``.

    expected_sleep_time conditions on cycles that actually sleep and is
    None when no cycle slept.  expected_power_saved is the plain mean of
    the per-cycle power p_save (a mean of ratios); the time-averaged power
    sum(e_off)/sum(t_off + t_on) (a ratio of means) is reported separately,
    as is the sleeping duty fraction sum(t_off)/sum(t_off + t_on).
    """

    n_cycles: int
    expected_gap: float
    expected_gap_se: float
    prob_sleep: float
    prob_sleep_se: float
    expected_sleep_time: Optional[float]
    expected_sleep_time_se: Optional[float]
    expected_power_saved: float
    expected_power_saved_se: float
    time_average_power_saved: float
    duty_cycle: float


def _mean_se(moments: tuple) -> tuple:
    """(mean, standard error of the mean) from (count, mean, M2)."""
    count, mean, m2 = moments
    if count < 2:
        return mean, math.inf
    return mean, math.sqrt(m2 / (count - 1)) / math.sqrt(count)


def estimate_energy(sums: CycleSums, params: ModelParams) -> EnergyEstimate:
    """Estimate the energy figures from the sums of ``sample_cycles``, by
    scalar arithmetic only."""
    n, k = len(sums), sums.sleep[0]
    mean_x, se_x = _mean_se(sums.x)
    mean_toff, se_toff = _mean_se(sums.sleep) if k else (None, None)
    mean_psave, se_psave = _mean_se(sums.p_save)
    e_off, t_off, t_on = sums.totals
    prob = k / n
    return EnergyEstimate(
        n_cycles=n,
        expected_gap=mean_x, expected_gap_se=se_x,
        prob_sleep=prob, prob_sleep_se=math.sqrt(prob * (1.0 - prob) / n),
        expected_sleep_time=mean_toff, expected_sleep_time_se=se_toff,
        expected_power_saved=mean_psave, expected_power_saved_se=se_psave,
        time_average_power_saved=e_off / (t_off + t_on),
        duty_cycle=t_off / (t_off + t_on))


@dataclass(frozen=True)
class TimelineReport:
    """Outcome of a time-domain base-station simulation.

    energy_saved = sleep_time * P0 - (n_transitions / 2) * Ec, charging
    one switching cost per off/on pair; mean_power_saved is the time
    average energy_saved / sim_duration.  cycle_mean_power_saved is the
    mean over completed head-to-head cycles of the per-cycle power (the
    mean-of-ratios estimand) and is None when no full cycle was observed.
    complete is False when the event cap stopped the run early, in which
    case processed_time is the simulated time actually covered.
    """

    sim_duration: float
    sleep_fraction: float
    n_transitions: int
    energy_saved: float
    mean_power_saved: float
    n_cycles: int
    cycle_mean_power_saved: Optional[float]
    cycle_mean_power_se: Optional[float]
    complete: bool = True
    processed_time: Optional[float] = None


def _timeline_report(params: ModelParams, duration: float,
                     sleep_time: float, n_transitions: int,
                     cycle_power: np.ndarray, complete: bool = True,
                     processed: Optional[float] = None) -> TimelineReport:
    """Charge a run Ec per off/on pair against its sleep, averaged over
    ``processed`` seconds if given, else ``duration``; ``cycle_power``
    holds the per-cycle power of the completed cycles, possibly none."""
    energy_saved = sleep_time * params.P0 - (n_transitions / 2.0) * params.Ec
    span = duration if processed is None else processed
    if len(cycle_power):
        cycle_mean, cycle_se = _mean_se(
            _moments(cycle_power, np.empty_like(cycle_power)))
    else:
        cycle_mean = cycle_se = None
    return TimelineReport(
        sim_duration=duration,
        sleep_fraction=sleep_time / span,
        n_transitions=n_transitions,
        energy_saved=energy_saved,
        mean_power_saved=energy_saved / span,
        n_cycles=len(cycle_power),
        cycle_mean_power_saved=cycle_mean,
        cycle_mean_power_se=cycle_se,
        complete=complete,
        processed_time=processed)


def _merge_intervals(starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Merge overlapping [start, end] intervals whose starts and ends are
    both nondecreasing (as for equal-length intervals).  Each start is
    compared with the previous end only, so an interval nested inside an
    earlier one would wrongly open a new run."""
    if len(starts) == 0:
        return starts, ends
    new_run = np.concatenate(([True], starts[1:] > ends[:-1]))
    merged_starts = starts[new_run]
    merged_ends = np.maximum.reduceat(ends, np.flatnonzero(new_run))
    return merged_starts, merged_ends


def _road_window(params: ModelParams, duration: float,
                 v: Optional[float]) -> float:
    """The road a timeline draws: what its fastest vehicle (speed v, or b
    when each keeps its own) covers in duration, plus D and 2 r0, plus the
    snapshot's 50 * max(1/rho, r0) of interior."""
    speed = params.b if v is None else v
    return ((speed * duration + params.D + 2.0 * params.r0)
            + _snapshot_window(params))


def _common_timeline(params: ModelParams, duration: float, v: float,
                     snapshot: Snapshot) -> TimelineReport:
    r0, D = params.r0, params.D
    clusters = extract_clusters(snapshot, r0)
    entry_edge = snapshot.window_length - D / 2.0
    heads = clusters.head_positions[::-1]          # descending position
    t_in = (entry_edge - heads) / v                # ascending arrival time
    t_out = t_in + D / v
    keep = (t_out > 0.0) & (t_in < duration)
    starts, ends = _merge_intervals(t_in[keep], t_out[keep])
    starts = np.clip(starts, 0.0, duration)
    ends = np.clip(ends, 0.0, duration)

    sleep_time = duration - float(np.sum(ends - starts))
    n_transitions = int(np.count_nonzero((starts > 0.0) & (starts < duration))
                        + np.count_nonzero((ends > 0.0) & (ends < duration)))

    full = (t_in >= 0.0) & (t_in <= duration)
    gaps = -np.diff(heads[full])                   # heads descend
    p_save = _cycle_energy(gaps, v, params)[3]
    return _timeline_report(params, duration, sleep_time, n_transitions,
                            p_save)


class _Road:
    """A heterogeneous road kept in order between events, with a kinetic
    event queue (Basch, Guibas & Hershberger, J. Algorithms 31, 1999).

    P (positions at t = 0), V (speeds) and order (original indices) are
    lists in road order, the stable sort of positions + speeds*t, so
    P[k] + V[k]*t are its doubles; rank maps a vehicle to its slot.  The
    heap holds every candidate event as (A - W, A + W, kind, key, stamp):
    kind 0 and 1 are the gap of the pair at slot key reaching r0 and 0,
    kind 2 and 3 vehicle key reaching lo and hi, and any evaluation of
    the instant up to the horizon lies within W of the first one, A.  A
    pair's entries go stale when its slot's stamp changes; they are
    filtered out once renewals push the heap past heap_cap, twice its
    size at the start or after the last filtering, when it held no
    stale entry.  watch maps each slot whose pair rounding may put out
    of order to the time after which it cannot; no other pair can be."""

    def __init__(self, positions: np.ndarray, speeds: np.ndarray,
                 r0: float, lo: float, hi: float, horizon: float):
        n = self.n = len(positions)
        self.m = max(n - 1, 0)
        self.positions, self.speeds, self.r0 = positions, speeds, r0
        self.lo, self.hi = lo, hi
        self.P0, self.V0 = positions.tolist(), speeds.tolist()
        # the largest |double| an evaluation up to the horizon meets
        reach = max(float(np.max(np.abs(positions), initial=0.0))
                    + float(np.max(np.abs(speeds), initial=0.0)) * horizon,
                    abs(lo), abs(hi), r0)
        self.scale, self.slack = 32.0 * _U * reach, 8.0 * _U
        self.P, self.V, self.rank = [0.0] * n, [0.0] * n, [0] * n
        self.order, self.stamp = [-1] * n, [0] * self.m
        self.stamps, self.heap, self.watch = 0, [], {}
        self.i0 = self.i1 = 0
        self._resort(0.0)
        for j, (p, v) in enumerate(zip(self.P0, self.V0)):
            for kind, edge in ((2, lo), (3, hi)):
                a = (edge - p) / v
                w = self.scale / v + self.slack * (abs(a) + 1.0)
                if a + w > _EPS / 2.0:
                    self.heap.append((a - w, a + w, kind, j, 0))
        heapify(self.heap)
        self.heap_cap = 2 * len(self.heap)

    def _pair(self, k: int, t: float) -> None:
        """Stamp the new pair at slot k and queue its events: the gap
        reaching r0, and the overtake if it closes (kept even when past,
        so that popping it watches the pair until it swaps).  An opening
        pair is watched until it cannot be out of order, a pair at one
        speed only if rounding can tie it."""
        P, V, watch = self.P, self.V, self.watch
        self.stamps += 1
        s = self.stamp[k] = self.stamps
        watch.pop(k, None)
        dv = V[k + 1] - V[k]
        if dv == 0.0:
            if 0.0 < abs(P[k + 1] - P[k]) <= self.scale:
                watch[k] = math.inf
            return
        gap = (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t)
        # W = 32u*reach/|dv| + 8u*(|A| + t + 1) bounds twice the
        # rounding error of any evaluation of A (or of t + dt unrounded)
        spread, slack = self.scale / abs(dv), self.slack
        a = t + (self.r0 - gap) / dv
        w = spread + slack * (abs(a) + t + 1.0)
        if a + w - t > _EPS / 2.0:
            heappush(self.heap, (a - w, a + w, 0, k, s))
        a = t + gap / -dv
        w = spread + slack * (abs(a) + t + 1.0)
        if dv < 0.0:
            heappush(self.heap, (a - w, a + w, 1, k, s))
        elif a + w >= t:
            watch[k] = a + w

    def _drop_stale(self) -> None:
        """Filter the stale entries out of the heap and re-heapify.  The
        entries are totally ordered, so no live entry pops in another
        order, and a stale pop has no side effect."""
        stamp = self.stamp
        self.heap[:] = [e for e in self.heap
                        if e[2] >= 2 or stamp[e[3]] == e[4]]
        heapify(self.heap)
        self.heap_cap = 2 * len(self.heap)

    def _resort(self, t: float) -> None:
        """Order by a full stable argsort of the positions at t and
        renew the pairs at the slots whose vehicles changed."""
        order = np.argsort(self.positions + self.speeds * t, kind="stable")
        moved = np.flatnonzero(order != np.asarray(self.order)).tolist()
        P, V, rank, P0, V0 = self.P, self.V, self.rank, self.P0, self.V0
        new = order.tolist()
        for k in moved:
            j = self.order[k] = new[k]
            P[k], V[k], rank[j] = P0[j], V0[j], k
        for k in sorted({s for k in moved for s in (k - 1, k)
                         if 0 <= s < self.m}):
            self._pair(k, t)

    def _unsorted(self, k: int, t: float) -> bool:
        """Whether the pair at slot k is out of stable order at t: a gap
        below 0, or of 0 with the higher index behind."""
        P, V = self.P, self.V
        gap = (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t)
        return gap < 0.0 or (gap == 0.0
                             and self.order[k] > self.order[k + 1])

    def _swapped(self, bad: list, t: float) -> bool:
        """Swap the pairs ``bad``, up to 4 and none adjacent, in place;
        True if the order then rises strictly with index order on ties,
        which makes it the unique stable sort.  A swapped pair is in
        order, so only its neighbours need a check."""
        if len(bad) > 4 or any(j - i == 1 for i, j in zip(bad, bad[1:])):
            return False
        P, V, order, rank = self.P, self.V, self.order, self.rank
        slots = []
        for i in bad:
            j = i + 1
            P[i], P[j] = P[j], P[i]
            V[i], V[j] = V[j], V[i]
            a, b = order[j], order[i]
            order[i], order[j], rank[a], rank[b] = a, b, i, j
            slots += [k for k in (i - 1, i, j)
                      if 0 <= k < self.m and k not in slots]
        for k in slots:
            self._pair(k, t)
        return not any(self._unsorted(k, t) for k in slots
                       if k not in bad)

    def at(self, t: float) -> bool:
        """Bring the order up to time t; True while a cluster head is
        inside [lo, hi]."""
        if self.watch:
            bad = []
            for k, end in list(self.watch.items()):
                if t > end:
                    del self.watch[k]
                elif self._unsorted(k, t):
                    bad.append(k)
            if bad:
                bad.sort()
                if not self._swapped(bad, t):
                    self._resort(t)
                if len(self.heap) > self.heap_cap:
                    self._drop_stale()
        P, V, n, lo, hi = self.P, self.V, self.n, self.lo, self.hi
        # i0 counts the positions below lo, i1 those up to hi
        i0 = self.i0
        while i0 < n and P[i0] + V[i0] * t < lo:
            i0 += 1
        while i0 > 0 and P[i0 - 1] + V[i0 - 1] * t >= lo:
            i0 -= 1
        i1 = max(self.i1, i0)
        while i1 < n and P[i1] + V[i1] * t <= hi:
            i1 += 1
        while i1 > i0 and P[i1 - 1] + V[i1 - 1] * t > hi:
            i1 -= 1
        self.i0, self.i1 = i0, i1
        if i1 == n:
            return i1 > i0
        ahead = P[i1] + V[i1] * t
        for k in range(i1 - 1, i0 - 1, -1):
            pos = P[k] + V[k] * t
            if ahead - pos > self.r0:
                return True
            ahead = pos
        return False


def _next_event_time(road: _Road, t: float) -> float:
    """Earliest future instant where the state description can change:
    an adjacent-pair gap reaches r0 or 0, or a cluster head reaches a
    coverage edge, more than eps after t.  It is t plus the least such
    dt, as a scan of the whole road finds it: the queue entries whose
    interval starts at or before the running minimum are popped and
    evaluated at t, and the ones still live pushed back."""
    P, V, r0, rank, m = road.P, road.V, road.r0, road.rank, road.m
    heap, stamp, watch = road.heap, road.stamp, road.watch
    best = best_dt = math.inf
    held = []
    while heap and heap[0][0] <= best:
        entry = heappop(heap)
        _, end, kind, k, s = entry
        if kind < 2:
            if stamp[k] != s:
                continue
            if kind == 1:
                watch[k] = math.inf
        if end - t <= _EPS / 2.0:
            continue                        # every dt from now is <= eps
        held.append(entry)
        if kind < 2:
            gap = (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t)
            dv = V[k + 1] - V[k]
            dt = (r0 - gap) / dv if kind == 0 else gap / -dv
        else:
            k = rank[k]
            pos = P[k] + V[k] * t
            if k < m and (P[k + 1] + V[k + 1] * t) - pos <= r0:
                continue
            dt = ((road.lo if kind == 2 else road.hi) - pos) / V[k]
        if _EPS < dt < best_dt:
            best_dt = dt
            best = t + dt
    for entry in held:
        heappush(heap, entry)
    return t + best_dt


def _heterogeneous_timeline(params: ModelParams, duration: float,
                            snapshot: Snapshot) -> TimelineReport:
    """Event-driven timeline of the station centred at the snapshot's
    window end, its vehicles moving at their own (positive) speeds."""
    half = params.D / 2.0
    road = _Road(snapshot.positions, snapshot.speeds, params.r0,
                 snapshot.window_length - half, snapshot.window_length + half,
                 duration)
    t = sleep_time = 0.0
    n_transitions = n_events = 0
    active = road.at(t)
    while t < duration:
        if t > 0.0 and road.at(t) != active:
            n_transitions += 1
            active = not active
        t_next = min(_next_event_time(road, t), duration)
        if not active:
            sleep_time += t_next - t
        t = t_next
        n_events += 1
        if n_events > MAX_EVENTS and t < duration:
            break
    return _timeline_report(params, duration, sleep_time, n_transitions,
                            np.empty(0), complete=t >= duration, processed=t)


def run_timeline(params: ModelParams, duration: float,
                 rng: Union[RngSpec, np.random.Generator],
                 v: Optional[float] = None) -> TimelineReport:
    """Simulate one base station with coverage of width D centered on it.

    The station is active exactly while some cluster head is inside its
    coverage; Ec is charged once per off/on switching pair.  Given a
    speed v, every vehicle moves at v (the common mode), clusters are
    rigid, and state transitions happen exactly when cluster heads cross
    coverage edges.  Without v each vehicle keeps its own sampled speed
    (the heterogeneous mode) and the state is evaluated at every event
    (gap and edge crossings) on a road kept in order by swaps at
    overtakes, the candidate events in a heap re-evaluated only near the
    next one, with the event instants and bits of a full stable re-sort
    and rescan at every event; the run stops early with complete=False
    if it exceeds MAX_EVENTS events.  The road drawn (``_road_window``)
    is as long as the fastest vehicle covers in duration, plus D + 2 r0
    and sample_snapshot's minimum, and the station sits at its front
    end.
    """
    for name, value in (("duration", duration), ("v", v)):
        if value is not None and not 0.0 < value < math.inf:
            raise ParamError(name, f"must be finite and > 0, got {value!r}")
    snapshot = sample_snapshot(params, _road_window(params, duration, v),
                               rng)
    if v is None:
        return _heterogeneous_timeline(params, duration, snapshot)
    return _common_timeline(params, duration, v, snapshot)
