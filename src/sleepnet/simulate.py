"""The two Monte Carlo routes, independent of the closed-form one:

- a renewal-cycle sampler drawing (cluster-head gap, speed) pairs under
  the paper law, with the per-cycle energy bookkeeping
  (``_cycle_energy``) that the common-speed timeline shares, reduced
  block by block to ``CycleSums``, records of moments (``_Moments``:
  count, means, co-moments) pooled by one rule;
- a base-station sleep/wake timeline on a Poisson road drawn at t = 0
  (``sample_snapshot``, sized by ``_road_window``), vectorised over its
  clusters (``extract_clusters``) at a common speed and event-driven at
  per-vehicle speeds, the road kept in order between events by swaps at
  overtakes and its candidate events in a kinetic queue (the bits of a
  full re-sort and rescan at every event); both modes charge the run
  through ``_timeline_report``.

Both draw from an RngSpec, whose (master_seed, stream_id) names one
independent, replayable stream, or in place from a numpy Generator
(``_as_generator``).  The cluster size is geometric, hence memoryless: a
corrected-law cycle is the single-vehicle cycle x1 = r0 + Exp(rho) with
probability p = exp(-rho r0) and a paper-law cycle, span + x1, otherwise.
So the sampler draws the paper law only; the corrected estimate is
(1 - p) times the paper law's plus p times the single-vehicle cycle's
figures, known in closed form (``_single_vehicle``, with E1 from
``numerics`` rather than the gap law's route), and its standard errors
are (1 - p) times the paper law's.  The renewal sampler plans its cycles
as fixed blocks, each drawn from its own PCG64 stream spawned from one
draw of the caller's generator (``_plan_cycles``), and draws them on a
pool of at most two threads that lives inside the call
(``_run_cycles``).  The blocks of one request, or of many at once as
``validate`` hands over every cell's, go to the pool longest first; the
threads take whole blocks as they come free, each reusing one block
scratch, its own anonymous mmap of four rows and a mask that also hold
every temporary of a block, for the call's blocks; each request's
sums are pooled in its own block order, so its bits depend on the seed
only, not on the CPU count, the thread count or the other requests of
its batch.  No thread or scratch outlives the call, and the scratch
pages go back to the system with it.
"""

from __future__ import annotations

import math
import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Optional, Union

import numpy as np

from .numerics import exp_integral_e1
from .params import (Fidelity, ModelParams, ParamError, check_density,
                     check_sparse)

__all__ = [
    "RngSpec",
    "CycleSums",
    "EnergyEstimate",
    "TimelineReport",
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

#: Most threads a ``sample_cycles`` call draws its blocks on, the most it
#: was measured with; each makes one block scratch for the call.
_MAX_CYCLE_THREADS = 2

#: Hard cap on processed events in the heterogeneous timeline.
MAX_EVENTS = 100_000_000

#: The heterogeneous timeline's next event is the earliest candidate
#: more than _EPS seconds ahead.
_EPS = 1e-9

#: Unit roundoff of a double: the event queue's error bounds are in it.
_U = 2.0 ** -53


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


@dataclass(frozen=True)
class _Moments:
    """The count, column means and co-moment matrix M2 (a tuple of rows,
    M2[j][l] the sum of (c_j - mean_j)(c_l - mean_l)) of a sample."""

    n: int
    mean: tuple
    m2: tuple

    @classmethod
    def of(cls, values: np.ndarray, tmp: np.ndarray) -> _Moments:
        """One column's moments, by np.square in tmp, which may be values
        itself: a BLAS np.dot on the block threads oversubscribes."""
        mean = float(np.sum(values)) / max(len(values), 1)
        dev = np.square(np.subtract(values, mean, out=tmp), out=tmp)
        return cls(len(values), (mean,), ((float(np.sum(dev)),),))

    def __add__(self, o: _Moments) -> _Moments:
        """Pool two disjoint samples by the update of Chan, Golub & LeVeque
        (1983), in its multivariate form (Pebay, SAND2008-6212)."""
        na, nb = self.n, o.n
        if na == 0 or nb == 0:
            return o if na == 0 else self
        n, d = na + nb, [b - a for a, b in zip(self.mean, o.mean)]
        return _Moments(n, tuple(a + e * nb / n for a, e in zip(self.mean, d)),
                        tuple(tuple(a + b + di * dl * na * nb / n
                                    for a, b, dl in zip(row_a, row_b, d))
                              for row_a, row_b, di in zip(self.m2, o.m2, d)))

    def mean_se(self) -> tuple:
        """(mean, standard error of the mean) of a one-column sample."""
        return self.mean[0], _se(self.n, self.m2[0][0])


def _se(count: int, m2: float) -> Optional[float]:
    """The standard error of the mean of count samples whose sum of
    squared deviations is m2; None below two samples, which have none."""
    if count < 2:
        return None
    return math.sqrt(m2 / (count - 1)) / math.sqrt(count)


@dataclass(frozen=True)
class CycleSums:
    """Sufficient statistics of renewal cycles drawn under the paper law:
    the moments of the gap x and the power p_save over all cycles and of
    t_off over the cycles that sleep, and the totals of e_off, t_off and
    t_on (``_cycle_energy``).  The corrected law's estimate mixes them
    with the closed-form single-vehicle cycle (``estimate_energy``).
    ``a + b`` pools two disjoint sets of cycles."""

    x: _Moments
    p_save: _Moments
    sleep: _Moments
    totals: tuple

    def __len__(self) -> int:
        return self.x.n

    def __add__(self, o: CycleSums) -> CycleSums:
        return CycleSums(self.x + o.x, self.p_save + o.p_save,
                         self.sleep + o.sleep,
                         tuple(a + b for a, b in zip(self.totals, o.totals)))


class _BlockScratch:
    """One worker's four rows (x, v, a, b) and mask for blocks of up to
    m >= DIRECT_SUM_LIMIT cycles, made on the worker's first block of a
    call and reused for its later ones (``_run_cycles``).
    ``_cycle_block`` keeps every field and temporary of a block in these
    rows, so the scratch is 4*8*m + m bytes; the x row holds a chunk of
    direct gaps, so it must hold a direct cluster's.  The rows
    and mask are views of one anonymous mmap, so the pages go back to the
    system when the call drops the scratch, not to a malloc arena that
    keeps them.  ``_cycle_block`` writes every slot it reads, so what an
    earlier block left in it changes no bit."""

    def __init__(self, m: int):
        if m < DIRECT_SUM_LIMIT:
            raise ValueError(f"a scratch row must hold a direct cluster's "
                             f"{DIRECT_SUM_LIMIT} gaps, got {m}")
        mem = mmap.mmap(-1, 4 * 8 * m + m,
                        flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        # small pages only: a 2 MiB huge page fits in 2.1 MiB at some
        # addresses and not at others, so its speed-up would differ
        # from one process to the next
        if hasattr(mmap, "MADV_NOHUGEPAGE"):
            mem.madvise(mmap.MADV_NOHUGEPAGE)
        self.rows = np.frombuffer(mem, np.float64, 4 * m).reshape(4, m)
        self.mask = np.frombuffer(mem, np.bool_, m, 4 * 8 * m)


def _cycle_threads() -> int:
    """Threads for one call's blocks: _MAX_CYCLE_THREADS, or fewer where
    the process may use fewer CPUs."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(_MAX_CYCLE_THREADS, cpus)


def _direct_spans(gen: np.random.Generator, spans: np.ndarray, q: float,
                  rho: float, buf: np.ndarray, offsets: np.ndarray) -> None:
    """Overwrite spans, which come in as the cumulative gap counts ends
    (whole floats), with the sums of the intra-cluster gaps (ends[i-1],
    ends[i]] (from 0 for i = 0), each -log1p(-u q)/rho for one uniform u,
    drawn from gen in chunks that end on cluster boundaries and hold at
    most len(buf) gaps, at least one cluster's, with their reduceat
    offsets in the int64 array offsets.  A chunk's sums overwrite its
    ends once they are read.  Each cluster is reduced alone from one
    stream of uniforms, so the chunk size moves no bit.  The division by
    -rho is made once per cluster."""
    start = base = 0
    while start < len(spans):
        stop = start + int(np.searchsorted(spans[start:], base + len(buf),
                                           "right"))
        end = int(spans[stop - 1])
        g = buf[:end - base]
        np.log1p(np.multiply(gen.random(out=g), -q, out=g), out=g)
        off = offsets[:stop - start]
        off[0] = 0
        np.subtract(spans[start:stop - 1], base, out=off[1:],
                    casting="unsafe")
        np.add.reduceat(g, off, out=spans[start:stop])
        start, base = stop, end
    np.divide(spans, -rho, out=spans)


def _cluster_gaps(gen: np.random.Generator, p_head: float,
                  out: np.ndarray) -> None:
    """Fill out with the intra-cluster gap counts of paper-law clusters,
    floats that cannot saturate: geometric(p_head) - 1, P{n >= k} =
    (1 - p_head)^k, by inversion of a standard exponential, plus the one
    gap of the second vehicle the paper law conditions on.  The corrected
    law's clusters are these with probability 1 - p_head and single
    vehicles otherwise (``estimate_energy`` mixes the two)."""
    np.divide(gen.standard_exponential(out=out), -math.log1p(-p_head),
              out=out)
    np.add(np.floor(out, out=out), 1.0, out=out)


def _cycle_block(seed: np.random.SeedSequence, m: int,
                 params: ModelParams, s: _BlockScratch) -> CycleSums:
    """Draw m paper-law cycles from PCG64(seed) into s.rows[:, :m] (x, v,
    a, b), in stream order: cluster sizes, direct gaps, big-cluster
    normals, head-to-tail jumps x1, speeds; return their sums.  Every
    field and temporary lives in a row idle meanwhile: the sizes in b,
    the direct spans over their own ends in a, the direct gaps and their
    offsets in the x row and an int64 view of the v row, each at the
    scratch's full width, the big clusters' sizes, normals and spreads
    in a, b and v, x1 in a; then t_off, t_on, e_off and p_save in a, b,
    x and v, and the deviations of the sums and the sleep times in a or
    b."""
    gen = np.random.Generator(np.random.PCG64(seed))
    x, v, a, b = s.rows[:, :m]
    rho, r0 = params.rho, params.r0
    p, q = math.exp(-rho * r0), -math.expm1(-rho * r0)
    n_gaps, mask = b, s.mask[:m]
    _cluster_gaps(gen, p, n_gaps)

    # each branch gathers its clusters by index and skips when it has
    # none: an empty branch draws nothing, so skipping keeps the stream
    idx = np.flatnonzero(np.less_equal(n_gaps, DIRECT_SUM_LIMIT, out=mask))
    spans = a[:len(idx)]
    if len(idx):
        np.cumsum(np.take(n_gaps, idx, out=spans), out=spans)
        _direct_spans(gen, spans, q, rho, s.rows[0],
                      s.rows[1].view(np.int64))
    x.fill(0.0)
    x[idx] = spans
    idx = np.flatnonzero(np.greater(n_gaps, DIRECT_SUM_LIMIT, out=mask))
    if len(idx):
        k, z, w = a[:len(idx)], b[:len(idx)], v[:len(idx)]
        np.take(n_gaps, idx, out=k)
        mean, var = _trunc_exp_stats(rho, r0)
        # gen.normal(k*mean, sqrt(k*var)) in the same rounding, clamped to
        # the span's support [0, k r0]
        np.sqrt(np.multiply(k, var, out=w), out=w)
        np.multiply(w, gen.standard_normal(out=z), out=z)
        np.add(np.multiply(k, mean, out=w), z, out=z)
        np.clip(z, 0.0, np.multiply(k, r0, out=w), out=z)
        x[idx] = z

    x1 = a
    np.multiply(gen.standard_exponential(out=x1), 1.0 / rho, out=x1)
    np.add(x1, r0, out=x1)                 # r0 + exponential(1/rho)
    np.multiply(gen.random(out=v), params.b - params.a, out=v)
    np.add(v, params.a, out=v)             # uniform(a, b), same rounding

    np.add(x, x1, out=x)
    x_sums = _Moments.of(x, a)
    t_off, t_on, e_off, p_save = _cycle_energy(x, v, params,
                                               out=(a, b, x, v))
    totals = tuple(float(np.sum(f)) for f in (e_off, t_off, t_on))
    p_sums = _Moments.of(p_save, b)
    n_sleep = int(np.count_nonzero(np.greater(t_off, 0.0, out=mask)))
    asleep = np.compress(mask, t_off, out=b[:n_sleep])
    return CycleSums(x_sums, p_sums, _Moments.of(asleep, asleep), totals)


def _plan_cycles(params: ModelParams, n: int,
                 rng: Union[RngSpec, np.random.Generator]) -> list:
    """The blocks of one ``sample_cycles`` request, as (seed, m, params)
    for ``_cycle_block``: the checks, the root draw from rng, its
    children and the block sizes.  Draws nothing when a check fails."""
    if n < 1000:
        raise ValueError(f"need at least 1000 cycles, got {n}")
    check_density(params, SAMPLER_RHO_R0_LIMIT,
                  "the plain renewal sampler is not validated beyond it")
    check_sparse(params)
    gen = _as_generator(rng)
    root = gen.integers(1 << 64, size=2, dtype=np.uint64)
    seeds = np.random.SeedSequence(root).spawn(-(-n // _CYCLE_BLOCK))
    return [(seed, min(_CYCLE_BLOCK, n - b * _CYCLE_BLOCK), params)
            for b, seed in enumerate(seeds)]


def _run_cycles(plans: list) -> list:
    """The CycleSums of each plan (``_plan_cycles``): every block of every
    plan goes, longest first, so no thread idles on a short block while
    long ones wait, to a pool of ``_cycle_threads()`` threads that lives
    for this call only; each thread draws its blocks into one scratch
    sized to the longest, and each plan's sums are pooled in its own
    block order."""
    order = sorted(((p, b) for p, blocks in enumerate(plans)
                    for b in range(len(blocks))),
                   key=lambda pb: -plans[pb[0]][pb[1]][1])
    size = max((block[1] for blocks in plans for block in blocks),
               default=0)
    local = threading.local()

    def run(pb):
        seed, m, params = plans[pb[0]][pb[1]]
        s = getattr(local, "scratch", None)
        if s is None:
            s = local.scratch = _BlockScratch(size)
        return _cycle_block(seed, m, params, s)

    sums = [[None] * len(blocks) for blocks in plans]
    with ThreadPoolExecutor(_cycle_threads(),
                            thread_name_prefix="sleepnet-block") as pool:
        for (p, b), block in zip(order, pool.map(run, order)):
            sums[p][b] = block
    return [sum(blocks[1:], blocks[0]) for blocks in sums]


def sample_cycles(params: ModelParams, n: int,
                  rng: Union[RngSpec, np.random.Generator]) -> CycleSums:
    """Sum n >= 1000 independent renewal cycles of the generative model
    under the paper law, the sampled part of both fidelities.

    Each cycle is drawn under the paper law (``_cluster_gaps``): a cluster
    of at least two vehicles, its span the sum of (size - 1) intra-cluster
    gaps, each an exponential(rho) conditioned on <= r0, or above
    DIRECT_SUM_LIMIT gaps a moment-matched normal clamped to the span's
    support; the head-to-tail jump x1 = r0 + exponential(rho); the speed
    uniform(a, b).  The draw does not read ``params.fidelity``;
    ``estimate_energy`` does, and mixes the corrected law's single-vehicle
    cycle in by its closed forms.

    Block b of _CYCLE_BLOCK cycles draws from PCG64 seeded by child b of
    SeedSequence(root), root being one two-word draw from ``rng`` and all
    that ``rng`` advances by (``_plan_cycles``).  The blocks go to the
    threads of a pool the call starts and joins as they come free, also
    a single block, and the sums are pooled in block order
    (``_run_cycles``, which takes the blocks of many such requests at
    once, as ``validate`` does), so the bits depend on the seed only, not
    on the thread count, on which thread drew a block or on what other
    requests shared the batch.  Memory is one _BlockScratch per thread
    (4*8*m + m bytes for blocks of m cycles, about 2.1 MiB), whatever n,
    mapped and unmapped inside the call; concurrent calls each get their
    own threads and scratches.  Raises ValueError when n < 1000 and
    ArithmeticError when rho*r0 > SAMPLER_RHO_R0_LIMIT or exp(-rho*r0)
    rounds to 1 (``check_sparse``), before any draw.
    """
    return _run_cycles([_plan_cycles(params, n, rng)])[0]


@dataclass(frozen=True)
class EnergyEstimate:
    """Monte Carlo estimates of the energy figures, with standard errors
    (``_se``: None below two samples), from the sums of ``sample_cycles``.

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


def _single_vehicle(params: ModelParams) -> tuple:
    """(E[x1], P{x1 > D}, E[(x1 - D)+], E[1/x1; x1 > D]) of the
    single-vehicle gap x1 = r0 + exponential(rho), in closed form."""
    rho, r0, D = params.rho, params.r0, params.D
    prob = math.exp(-rho * max(D - r0, 0.0))
    return (r0 + 1.0 / rho, prob, prob / rho + max(r0 - D, 0.0),
            rho * math.exp(rho * r0) * exp_integral_e1(rho * max(D, r0)))


def estimate_energy(sums: CycleSums, params: ModelParams) -> EnergyEstimate:
    """Estimate the energy figures of ``params.fidelity`` from the sums of
    ``sample_cycles``, by scalar arithmetic only.  The paper law's figures
    are the sample's; its sleep time is the mean over the cycles that
    sleep, None if none did.  The corrected law's are (1 - p) times these
    plus p = exp(-rho r0) times the single-vehicle cycle's closed forms
    (``_single_vehicle``; the speed is independent of x1), and so are its
    standard errors but that of the sleep time, a ratio of the mixed
    t_off and sleep-indicator means whose error the delta method takes
    from the paper law's sleep moments.  A sleep time from fewer than two
    sleeping cycles has no standard error, None."""
    n, sleep = len(sums), sums.sleep
    mean_x, se_x = sums.x.mean_se()
    mean_psave, se_psave = sums.p_save.mean_se()
    mean_toff, se_toff = sleep.mean_se() if sleep.n else (None, None)
    prob = sleep.n / n
    prob_se = math.sqrt(prob * (1.0 - prob) / n)
    e_off, t_off, t_on = sums.totals
    if params.fidelity is Fidelity.CORRECTED:
        alpha, w = params.rho * params.r0, params.mean_inv_speed
        p, q = math.exp(-alpha), -math.expm1(-alpha)
        mean_x1, prob1, excess1, inv1 = _single_vehicle(params)
        t_off1, mixed_prob = excess1 * w, q * prob + p * prob1
        if mixed_prob > 0.0:
            ratio = (q * t_off / n + p * t_off1) / mixed_prob
            if sleep.n >= 2:
                # the M2 of t_off - ratio * (sleep indicator) over all
                # paper-law cycles, from the sleeping cycles' moments
                resid = sleep.m2[0][0] + (sleep.n * (n - sleep.n) / n
                                          * (mean_toff - ratio) ** 2)
                se_toff = q * _se(n, resid) / mixed_prob
            mean_toff = ratio
        mean_x, se_x = q * mean_x + p * mean_x1, q * se_x
        prob, prob_se = mixed_prob, q * prob_se
        mean_psave = q * mean_psave + p * (
            params.P0 * (prob1 - params.D * inv1)
            - params.Ec * params.mean_speed * inv1)
        se_psave *= q
        e_off, t_off, t_on = (
            q * e_off + p * n * (params.P0 * t_off1 - params.Ec * prob1),
            q * t_off + p * n * t_off1,
            q * t_on + p * n * (mean_x1 * w - t_off1))
    return EnergyEstimate(
        n_cycles=n,
        expected_gap=mean_x, expected_gap_se=se_x,
        prob_sleep=prob, prob_sleep_se=prob_se,
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
    mean-of-ratios estimand) and is None when no full cycle was observed;
    cycle_mean_power_se is None also when only one was.  complete is
    False when the event cap stopped the run early, in which case
    processed_time is the simulated time actually covered.
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
        cycle_mean, cycle_se = _Moments.of(
            cycle_power, np.empty_like(cycle_power)).mean_se()
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


@dataclass(frozen=True)
class Snapshot:
    """The road a timeline draws: sorted vehicle positions on
    [0, window_length] with matching speeds."""

    window_length: float
    positions: np.ndarray
    speeds: np.ndarray

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


def sample_snapshot(params: ModelParams, window_length: float,
                    rng: Union[RngSpec, np.random.Generator]) -> Snapshot:
    """Draw a timeline's road at t = 0, a homogeneous-Poisson snapshot.

    Vehicle count ~ Poisson(rho * window_length); positions i.i.d. uniform
    then sorted; speeds i.i.d. uniform(a, b).
    """
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


def _road_window(params: ModelParams, duration: float,
                 v: Optional[float]) -> float:
    """The length of road a timeline draws: what its fastest vehicle
    (speed v, or b when each keeps its own) covers in duration, plus D and
    2 r0, plus 50 * max(1/rho, r0) of interior behind them."""
    speed = params.b if v is None else v
    return ((speed * duration + params.D + 2.0 * params.r0)
            + 50.0 * max(1.0 / params.rho, params.r0))


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
    of order to the time after which it cannot; no other pair can be.
    Pairs found out of order are swapped in place, or all re-sorted;
    head is the slot of the last cluster head found in coverage."""

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
        self.i0, self.i1, self.head = 0, 0, -1
        self._resort(0.0)
        for j, (p, v) in enumerate(zip(self.P0, self.V0)):
            for kind, edge in ((2, lo), (3, hi)):
                a = (edge - p) / v
                w = self.scale / v + self.slack * (abs(a) + 1.0)
                if a + w > _EPS / 2.0:
                    self.heap.append((a - w, a + w, kind, j, 0))
        heapify(self.heap)
        self.heap_cap = 2 * len(self.heap)

    def _pairs(self, slots, t: float) -> bool:
        """Stamp the new pair at each of ``slots`` in turn and queue its
        events: the gap reaching r0, and the overtake if it closes (kept
        even when past, so that taking it watches the pair until it
        swaps).  An opening pair is watched until it cannot be out of
        order, a pair at one speed only if rounding can tie it.  True if
        every pair is in stable order at t (lower index behind on ties)."""
        P, V, order, watch, heap, stamp = (self.P, self.V, self.order,
                                           self.watch, self.heap, self.stamp)
        r0, scale, slack, s = self.r0, self.scale, self.slack, self.stamps
        in_order = True
        for k in slots:
            s += 1
            stamp[k] = s
            if k in watch:
                del watch[k]
            v, u = V[k], V[k + 1]
            gap = (P[k + 1] + u * t) - (P[k] + v * t)
            if gap < 0.0 or (gap == 0.0 and order[k] > order[k + 1]):
                in_order = False
            dv = u - v
            if dv == 0.0:
                if 0.0 < abs(P[k + 1] - P[k]) <= scale:
                    watch[k] = math.inf
                continue
            # W = 32u*reach/|dv| + 8u*(|A| + t + 1) bounds twice the
            # rounding error of any evaluation of A (or of t + dt unrounded)
            spread = scale / (-dv if dv < 0.0 else dv)
            a = t + (r0 - gap) / dv
            w = spread + slack * ((-a if a < 0.0 else a) + t + 1.0)
            end = a + w
            if end - t > _EPS / 2.0:
                heappush(heap, (a - w, end, 0, k, s))
            a = t + gap / -dv
            w = spread + slack * ((-a if a < 0.0 else a) + t + 1.0)
            end = a + w
            if dv < 0.0:
                heappush(heap, (a - w, end, 1, k, s))
            elif end >= t:
                watch[k] = end
        self.stamps = s
        return in_order

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
        self._pairs(sorted({s for k in moved for s in (k - 1, k)
                            if 0 <= s < self.m}), t)

    def _swapped(self, bad: list, t: float) -> bool:
        """Swap the pairs ``bad``, up to 4 and none adjacent, in place and
        renew the pairs at and next to them in ascending order (i - 1, i,
        i + 1 for one swap at i); True if the order then rises strictly
        with index order on ties, the unique stable sort (a swapped pair
        is in order, so only its neighbours can fail the check)."""
        if len(bad) > 1 and (len(bad) > 4 or any(
                j - i == 1 for i, j in zip(bad, bad[1:]))):
            return False
        P, V, order, rank, m = self.P, self.V, self.order, self.rank, self.m
        for i in bad:
            j = i + 1
            P[i], P[j] = P[j], P[i]
            V[i], V[j] = V[j], V[i]
            a, b = order[j], order[i]
            order[i], order[j], rank[a], rank[b] = a, b, i, j
        if len(bad) == 1:                   # i is the one swapped slot
            return self._pairs(range(max(i - 1, 0), min(i + 2, m)), t)
        return self._pairs(sorted({k for i in bad for k in range(
            max(i - 1, 0), min(i + 2, m))}), t)

    def at(self, t: float) -> bool:
        """Bring the order up to time t; True while a cluster head is
        inside [lo, hi]."""
        P, V, order, watch = self.P, self.V, self.order, self.watch
        if watch:
            bad = []
            for k, end in list(watch.items()):
                if t > end:
                    del watch[k]
                    continue
                gap = (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t)
                if gap < 0.0 or (gap == 0.0 and order[k] > order[k + 1]):
                    bad.append(k)
            if bad:
                bad.sort()
                if not self._swapped(bad, t):
                    self._resort(t)
                if len(self.heap) > self.heap_cap:
                    self._drop_stale()
        n, lo, hi = self.n, self.lo, self.hi
        # i0 counts the positions below lo, i1 those up to hi
        i0 = self.i0
        while i0 < n and P[i0] + V[i0] * t < lo:
            i0 += 1
        while i0 > 0 and P[i0 - 1] + V[i0 - 1] * t >= lo:
            i0 -= 1
        i1 = self.i1
        if i1 < i0:
            i1 = i0
        while i1 < n and P[i1] + V[i1] * t <= hi:
            i1 += 1
        while i1 > i0 and P[i1 - 1] + V[i1 - 1] * t > hi:
            i1 -= 1
        self.i0, self.i1 = i0, i1
        if i1 == n:
            return i1 > i0
        # the slot of the last head found is almost always a head still
        r0, k = self.r0, self.head
        if i0 <= k < i1 and (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t) > r0:
            return True
        ahead = P[i1] + V[i1] * t
        for k in range(i1 - 1, i0 - 1, -1):
            pos = P[k] + V[k] * t
            if ahead - pos > r0:
                self.head = k
                return True
            ahead = pos
        return False


def _next_event_time(road: _Road, t: float) -> float:
    """Earliest future instant where the state description can change:
    an adjacent-pair gap reaches r0 or 0, or a cluster head reaches a
    coverage edge, more than eps after t.  It is t plus the least such
    dt, as a scan of the whole road finds it: the queue entries whose
    interval starts at or before the running minimum are taken in order
    and evaluated at t, the stale and past ones popped; a live one is
    popped, and pushed back, only to reach the next."""
    P, V, r0, rank, m = road.P, road.V, road.r0, road.rank, road.m
    heap, stamp, watch = road.heap, road.stamp, road.watch
    pop, push, inf, half_eps = heappop, heappush, math.inf, _EPS / 2.0
    best = best_dt = inf
    held = []
    while heap and heap[0][0] <= best:
        _, end, kind, k, s = heap[0]
        if kind < 2:
            if stamp[k] != s:
                pop(heap)
                continue
            if kind == 1:
                watch[k] = inf
        if end - t <= half_eps:
            pop(heap)                       # every dt from now is <= eps
            continue
        if kind < 2:
            gap = (P[k + 1] + V[k + 1] * t) - (P[k] + V[k] * t)
            dv = V[k + 1] - V[k]
            dt = (r0 - gap) / dv if kind == 0 else gap / -dv
        else:
            k = rank[k]
            pos = P[k] + V[k] * t
            dt = inf if k < m and (P[k + 1] + V[k + 1] * t) - pos <= r0 \
                else ((road.lo if kind == 2 else road.hi) - pos) / V[k]
        if _EPS < dt < best_dt:
            best_dt = dt
            best = t + dt
        n = len(heap)                       # the next entry is a child
        if n < 2 or heap[1][0] > best and (n < 3 or heap[2][0] > best):
            break
        held.append(pop(heap))
    for entry in held:
        push(heap, entry)
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
    at, step = road.at, _next_event_time
    active = at(t)
    while t < duration:
        if t > 0.0 and at(t) != active:
            n_transitions += 1
            active = not active
        t_next = step(road, t)
        if t_next > duration:
            t_next = duration
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
    if it exceeds MAX_EVENTS events.  The road drawn (``sample_snapshot``
    over ``_road_window``) is as long as the fastest vehicle covers in
    duration, plus D + 2 r0 and 50 max(1/rho, r0) of interior, and the
    station sits at its front end.
    """
    for name, value in (("duration", duration), ("v", v)):
        if value is not None and not 0.0 < value < math.inf:
            raise ParamError(name, f"must be finite and > 0, got {value!r}")
    snapshot = sample_snapshot(params, _road_window(params, duration, v),
                               rng)
    if v is None:
        return _heterogeneous_timeline(params, duration, snapshot)
    return _common_timeline(params, duration, v, snapshot)
