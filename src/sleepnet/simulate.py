"""Generative-model engines independent of the closed-form route:

- a renewal-cycle sampler drawing (cluster-head gap, speed) pairs, with
  the per-cycle energy bookkeeping (``_cycle_energy``) that the
  common-speed timeline shares,
- a spatial Poisson snapshot sampler with cluster extraction, and
- a time-domain base-station sleep/wake simulator, vectorised at a common
  speed and event-driven at per-vehicle speeds, the road kept in order
  between events by swaps at overtakes (the bits of a full re-sort at
  every event); both modes charge the run through ``_timeline_report``.

All samplers are pure functions of an RngSpec: identical (master_seed,
stream_id) pairs reproduce bit-identical sample streams, so parallel
streams are independent and individually replayable.  The renewal
sampler draws its cycles in fixed blocks, each from its own PCG64
stream spawned from one draw of the caller's generator, on up to two
threads that take whole blocks; its bits depend on the seed only, not
on the CPU count, the thread count or ``--workers``.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .params import Fidelity, ModelParams, check_density

__all__ = [
    "RngSpec",
    "Snapshot",
    "ClusterSet",
    "CycleBatch",
    "EnergyEstimate",
    "TimelineReport",
    "WindowTooSmallError",
    "sample_snapshot",
    "extract_clusters",
    "ch_gap_samples",
    "sample_cycles",
    "estimate_energy",
    "run_timeline",
    "default_window",
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

#: Hard cap on processed events in the heterogeneous timeline.
MAX_EVENTS = 100_000_000


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

    @property
    def n_clusters(self) -> int:
        return len(self.head_positions)

    @property
    def clusters(self) -> list:
        return list(zip(self.head_positions.tolist(),
                        self.tail_positions.tolist(),
                        self.member_counts.tolist()))


@dataclass(frozen=True)
class CycleBatch:
    """Vectorized collection of renewal cycles, one array per field: the
    gap x to the next cluster head, the speed v, and the per-cycle
    bookkeeping t_off, t_on, e_off and p_save of ``_cycle_energy``."""

    x: np.ndarray
    v: np.ndarray
    t_off: np.ndarray
    t_on: np.ndarray
    e_off: np.ndarray
    p_save: np.ndarray

    def __len__(self) -> int:
        return len(self.x)


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


def ch_gap_samples(clusters: ClusterSet, window_length: float,
                   r0: float) -> np.ndarray:
    """Gaps between consecutive cluster heads, censored at window edges.

    A cluster whose tail is within r0 of the left edge, or whose head is
    within r0 of the right edge, may be truncated by the window; gaps
    touching such a cluster are discarded.
    """
    if clusters.n_clusters < 2:
        return np.empty(0)
    ok = ((clusters.tail_positions >= r0)
          & (clusters.head_positions <= window_length - r0))
    gaps = np.diff(clusters.head_positions)
    return gaps[ok[:-1] & ok[1:]]


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


def _cycle_threads(n_blocks: int) -> int:
    """Threads ``sample_cycles`` uses for n_blocks blocks: the CPUs this
    process may run on, at most two (the most it was measured with) and
    at most one per block; one inside a process-pool worker, whose pool
    already has the CPUs."""
    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, 2, n_blocks))


class _BlockScratch:
    """One thread's cycle mask, gap chunk and chunk offsets for blocks of
    up to m cycles, allocated by the caller: threads allocate little."""

    def __init__(self, m: int):
        self.mask = np.empty(m, dtype=bool)
        self.buf = np.empty(min(max(_GAP_CHUNK, DIRECT_SUM_LIMIT),
                                DIRECT_SUM_LIMIT * m))
        self.offsets = np.empty(min(_GAP_CHUNK, m), dtype=np.int64)


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


def _cycle_block(seed: np.random.SeedSequence, out: list,
                 params: ModelParams, shift: float,
                 s: _BlockScratch) -> None:
    """Draw len(out[0]) cycles from PCG64(seed) into the CycleBatch slices
    ``out`` (x, v, t_off, t_on, e_off, p_save), in stream order: cluster
    sizes, direct gaps, big-cluster normals, head-to-tail jumps, speeds."""
    gen = np.random.Generator(np.random.PCG64(seed))
    x, v, t_off, t_on, e_off, p_save = out
    rho, r0 = params.rho, params.r0
    # the bookkeeping slices hold the temporaries until _cycle_energy
    n_gaps, mask = p_save, s.mask[:len(x)]
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
    _cycle_energy(x, v, params, out=out[2:])


def sample_cycles(params: ModelParams, n: int,
                  rng: Union[RngSpec, np.random.Generator],
                  fidelity: Optional[Fidelity] = None) -> CycleBatch:
    """Draw n independent renewal cycles from the generative model.

    Cluster size is geometric with success probability exp(-rho r0)
    (``_cluster_gaps``); the cluster span is the sum of (size - 1)
    intra-cluster gaps, each an exponential(rho) conditioned on <= r0, or
    above DIRECT_SUM_LIMIT gaps a moment-matched normal clamped to the
    span's support; the head-to-tail jump is r0 + exponential(rho); the
    speed is uniform(a, b).  The `paper` fidelity conditions the cluster
    size on >= 2 vehicles.

    Block b of _CYCLE_BLOCK cycles draws from PCG64 seeded by child b of
    SeedSequence(root), root being one two-word draw from ``rng`` and all
    that ``rng`` advances by.  Threads (``_cycle_threads``) take whole
    blocks, so the bits depend on the seed only, not on the thread count.
    Memory is the batch plus about two blocks of scratch per thread.  Raises
    ArithmeticError, before any draw, when rho*r0 > SAMPLER_RHO_R0_LIMIT.
    """
    check_density(params, SAMPLER_RHO_R0_LIMIT,
                  "the plain renewal sampler is not validated beyond it")
    gen = _as_generator(rng)
    fidelity = Fidelity(fidelity) if fidelity is not None else params.fidelity
    shift = 1.0 if fidelity is Fidelity.PAPER else 0.0
    root = gen.integers(1 << 64, size=2, dtype=np.uint64)
    n_blocks = -(-n // _CYCLE_BLOCK)
    seeds = np.random.SeedSequence(root).spawn(n_blocks)
    fields = [np.empty(n) for _ in range(6)]

    def run(blocks, scratch):
        for b in blocks:
            cut = slice(b * _CYCLE_BLOCK, (b + 1) * _CYCLE_BLOCK)
            _cycle_block(seeds[b], [f[cut] for f in fields], params, shift,
                         scratch)

    threads = _cycle_threads(n_blocks)
    scratch = [_BlockScratch(min(n, _CYCLE_BLOCK)) for _ in range(threads)]
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(run, [range(t, n_blocks, threads)
                            for t in range(threads)], scratch))
    return CycleBatch(*fields)


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo estimates of the energy figures, with standard errors.

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


def _mean_se(values: np.ndarray) -> tuple:
    n = len(values)
    mean = float(np.mean(values))
    if n < 2:
        return mean, math.inf
    return mean, float(np.std(values, ddof=1) / math.sqrt(n))


def estimate_energy(samples: CycleBatch,
                    params: ModelParams) -> EnergyEstimate:
    """Estimate the energy figures from at least 1000 renewal cycles."""
    n = len(samples)
    if n < 1000:
        raise ValueError(f"need at least 1000 cycles, got {n}")

    mean_x, se_x = _mean_se(samples.x)
    sleeping = samples.t_off > 0.0
    prob = float(np.count_nonzero(sleeping)) / n
    prob_se = math.sqrt(prob * (1.0 - prob) / n)
    if np.any(sleeping):
        mean_toff, se_toff = _mean_se(samples.t_off[sleeping])
    else:
        mean_toff = se_toff = None
    mean_psave, se_psave = _mean_se(samples.p_save)
    cycle_time = float(np.sum(samples.t_off) + np.sum(samples.t_on))
    time_avg = float(np.sum(samples.e_off)) / cycle_time
    duty = float(np.sum(samples.t_off)) / cycle_time
    return EnergyEstimate(
        n_cycles=n,
        expected_gap=mean_x, expected_gap_se=se_x,
        prob_sleep=prob, prob_sleep_se=prob_se,
        expected_sleep_time=mean_toff, expected_sleep_time_se=se_toff,
        expected_power_saved=mean_psave, expected_power_saved_se=se_psave,
        time_average_power_saved=time_avg, duty_cycle=duty)


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
        cycle_mean, cycle_se = _mean_se(cycle_power)
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


def _timeline_window(params: ModelParams, duration: float,
                     speed_mode: str, v: Optional[float]) -> float:
    """Shortest window a timeline accepts: the road its fastest vehicle
    (speed v in common mode, b in heterogeneous mode) covers in duration,
    plus D and 2 r0."""
    speed = v if speed_mode == "common" else params.b
    return speed * duration + params.D + 2.0 * params.r0


def default_window(params: ModelParams, duration: float, speed_mode: str,
                   v: Optional[float] = None) -> float:
    """The timeline's shortest window plus the snapshot's
    50 * max(1/rho, r0) of interior."""
    return (_timeline_window(params, duration, speed_mode, v)
            + _snapshot_window(params))


def _common_timeline(params: ModelParams, duration: float,
                     window_length: float, v: float,
                     gen: np.random.Generator) -> TimelineReport:
    r0, D = params.r0, params.D
    snapshot = sample_snapshot(params, window_length, gen)
    clusters = extract_clusters(snapshot, r0)
    entry_edge = window_length - D / 2.0
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
    """A heterogeneous road kept in order between events: P (positions at
    t = 0), V (speeds) and order (original indices) sorted, pos = P + V*t
    the doubles of (positions + speeds*t)[order].  Candidate event k is
    num[k]/den[k]: r0 - gap over dv and gap over -dv for each adjacent
    pair, lo - pos and hi - pos over V; den changes with the order only,
    -inf (a quotient of zero) where a pair never gets there.  tail flags
    the vehicles with another within r0 ahead."""

    def __init__(self, positions: np.ndarray, speeds: np.ndarray,
                 r0: float, lo: float, hi: float):
        n = len(positions)
        m = self.m = max(n - 1, 0)
        self.positions, self.speeds, self.r0 = positions, speeds, r0
        self.edges = np.array([[lo], [hi]])
        # side="left" at the double after hi finds the first pos > hi
        self.bounds = np.array([lo, np.nextafter(hi, math.inf)])
        self.P, self.pos = np.empty((2, n))
        self.num, self.den, self.dt = np.empty((3, 2 * (m + n)))
        self.tail = np.zeros(n, dtype=bool)
        self.rejected = np.empty(2 * (m + n), dtype=bool)
        self.gap = self.num[m:2 * m]
        self.num_edge = self.num[2 * m:].reshape(2, n)
        self.rejected_edge = self.rejected[2 * m:].reshape(2, n)
        self.V, self.V2 = self.den[2 * m:].reshape(2, n)
        self._resort(0.0)

    def _resort(self, t: float) -> None:
        """Order by a full stable argsort of the positions at t."""
        m, pos = self.m, self.pos
        self.order = np.argsort(self.positions + self.speeds * t,
                                kind="stable")
        np.take(self.positions, self.order, out=self.P)
        self.V[:] = self.V2[:] = self.speeds[self.order]
        dv = np.diff(self.V)
        self.den[:m] = np.where(dv != 0.0, dv, -math.inf)
        self.den[m:2 * m] = np.where(dv < 0.0, -dv, -math.inf)
        np.add(self.P, np.multiply(self.V, t, out=pos), out=pos)
        np.subtract(pos[1:], pos[:-1], out=self.gap)

    def _unsorted(self) -> list:
        """Pairs out of stable order: a gap below 0, or of 0 with the
        higher index behind."""
        gap, order = self.gap, self.order
        return [i for i in (gap <= 0.0).nonzero()[0].tolist()
                if gap[i] < 0.0 or order[i] > order[i + 1]]

    def _swapped(self, bad: list) -> bool:
        """Swap the pairs ``bad``, up to 4 and none adjacent, in place;
        True if the order then rises strictly with index order on ties,
        which makes it the unique stable sort."""
        if len(bad) > 4 or any(j - i == 1 for i, j in zip(bad, bad[1:])):
            return False
        pos, V, den, m = self.pos, self.V, self.den, self.m
        for i in bad:
            for a in (self.P, V, self.V2, self.order, pos):
                a[i], a[i + 1] = a[i + 1], a[i]
        for k in {k for i in bad for k in (i - 1, i, i + 1) if 0 <= k < m}:
            dv = V[k + 1] - V[k]
            den[k] = dv if dv != 0.0 else -math.inf
            den[m + k] = -dv if dv < 0.0 else -math.inf
        np.subtract(pos[1:], pos[:-1], out=self.gap)
        return not self._unsorted()

    def at(self, t: float) -> bool:
        """Bring the order, gaps, tail flags and candidate numerators up
        to time t; True while a cluster head is inside [lo, hi]."""
        pos, gap, m = self.pos, self.gap, self.m
        np.add(self.P, np.multiply(self.V, t, out=pos), out=pos)
        np.subtract(pos[1:], pos[:-1], out=gap)
        bad = self._unsorted()
        if bad and not self._swapped(bad):
            self._resort(t)
        np.subtract(self.r0, gap, out=self.num[:m])
        np.subtract(self.edges, pos, out=self.num_edge)
        np.less_equal(gap, self.r0, out=self.tail[:m])
        i0, i1 = pos.searchsorted(self.bounds).tolist()
        return np.count_nonzero(self.tail[i0:i1]) < i1 - i0


def _next_event_time(road: _Road, t: float) -> float:
    """Earliest future instant where the state description can change:
    an adjacent-pair gap reaches r0 or 0, or a cluster head reaches a
    coverage edge, more than eps after t."""
    eps = 1e-9
    np.divide(road.num, road.den, out=road.dt)
    np.less_equal(road.dt, eps, out=road.rejected)
    np.logical_or(road.rejected_edge, road.tail, out=road.rejected_edge)
    np.putmask(road.dt, road.rejected, math.inf)
    return t + float(road.dt.min(initial=math.inf))


def _heterogeneous_timeline(params: ModelParams, duration: float,
                            snapshot: Snapshot) -> TimelineReport:
    """Event-driven timeline of the station centred at the snapshot's
    window end, its vehicles moving at their own (positive) speeds."""
    half = params.D / 2.0
    road = _Road(snapshot.positions, snapshot.speeds, params.r0,
                 snapshot.window_length - half, snapshot.window_length + half)
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


def run_timeline(params: ModelParams, duration: float, window_length: float,
                 speed_mode: str, rng: Union[RngSpec, np.random.Generator],
                 v: Optional[float] = None) -> TimelineReport:
    """Simulate one base station with coverage of width D centered on it.

    The station is active exactly while some cluster head is inside its
    coverage; Ec is charged once per off/on switching pair.  In `common`
    mode every vehicle moves at speed v, clusters are rigid, and state
    transitions happen exactly when cluster heads cross coverage edges.
    In `heterogeneous` mode each vehicle keeps its own sampled speed and
    the state is evaluated at every event (gap and edge crossings) on a
    road kept in order by swaps at overtakes, with the event instants and
    bits of a full stable re-sort at every event; the run stops early
    with complete=False if it exceeds MAX_EVENTS events.  window_length
    must reach the road the fastest vehicle covers in duration plus D +
    2 r0, and sample_snapshot's minimum; default_window is their sum.
    """
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if speed_mode not in ("common", "heterogeneous"):
        raise ValueError(f"unknown speed_mode {speed_mode!r}; "
                         "expected 'common' or 'heterogeneous'")
    if speed_mode == "common" and (v is None or v <= 0.0):
        raise ValueError("common mode requires a positive speed v")
    required = _timeline_window(params, duration, speed_mode, v)
    if window_length < required:
        raise WindowTooSmallError(window_length, required)
    gen = _as_generator(rng)
    if speed_mode == "common":
        return _common_timeline(params, duration, window_length, v, gen)
    return _heterogeneous_timeline(
        params, duration, sample_snapshot(params, window_length, gen))
