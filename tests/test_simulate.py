import math
import multiprocessing
import re
import sys
import threading
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sleepnet import simulate
from sleepnet.analytic import energy_figures, grid_energy_figures
from sleepnet.params import CANONICAL, KMH
from sleepnet.simulate import (RngSpec, Snapshot, TimelineReport,
                               estimate_energy, extract_clusters,
                               run_timeline, sample_cycles, sample_snapshot)

from conftest import assert_close
import oracles
from oracles import (CycleBatch, ch_gap_samples, cluster_list, cycle_batch,
                     timeline_active_intervals)


def _mapped_bytes(scratch) -> int:
    """The bytes of the distinct buffers a block scratch's arrays view."""
    buffers = {}
    for a in vars(scratch).values():
        while not isinstance(a, memoryview):
            a = a.base
        buffers[id(a.obj)] = len(a.obj)
    return sum(buffers.values())


class TestRngSpec:
    def test_identical_spec_identical_stream(self):
        a = RngSpec(123, 4).generator().uniform(size=8)
        b = RngSpec(123, 4).generator().uniform(size=8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngSpec(123, 0).generator().uniform(size=8)
        b = RngSpec(123, 1).generator().uniform(size=8)
        assert not np.array_equal(a, b)


class TestSampleSnapshot:
    def test_poisson_mean_and_dispersion(self):
        rng = RngSpec(1).generator()
        window = 20_000.0
        counts = [sample_snapshot(CANONICAL, window, rng).n_vehicles
                  for _ in range(2_000)]
        mean = np.mean(counts)
        target = CANONICAL.rho * window
        assert abs(mean - target) <= 3.0 * math.sqrt(target / len(counts))
        assert np.var(counts) == pytest.approx(mean, rel=0.10)

    def test_gaps_exponential_ks(self):
        # Kolmogorov-Smirnov against Exp(rho) at the 1% level
        rng = RngSpec(2).generator()
        snap = sample_snapshot(CANONICAL, 2_000_000.0, rng)
        gaps = np.sort(np.diff(snap.positions))
        n = len(gaps)
        cdf = -np.expm1(-CANONICAL.rho * gaps)
        ecdf_hi = np.arange(1, n + 1) / n
        ecdf_lo = np.arange(0, n) / n
        d_stat = max(np.max(np.abs(ecdf_hi - cdf)),
                     np.max(np.abs(ecdf_lo - cdf)))
        assert d_stat <= 1.628 / math.sqrt(n)

    def test_positions_sorted_speeds_in_range(self):
        snap = sample_snapshot(CANONICAL, 20_000.0, RngSpec(3))
        assert np.all(np.diff(snap.positions) >= 0.0)
        assert np.all((snap.speeds >= CANONICAL.a)
                      & (snap.speeds <= CANONICAL.b))


class TestExtractClusters:
    def _snapshot(self, positions):
        positions = np.asarray(positions, dtype=float)
        return Snapshot(10_000.0, positions, np.full(len(positions), 15.0))

    def test_hand_example(self):
        clusters = extract_clusters(self._snapshot([0.0, 100.0, 350.0]),
                                    r0=200.0)
        assert cluster_list(clusters) == [(100.0, 0.0, 2), (350.0, 350.0, 1)]

    def test_gap_equal_r0_joins(self):
        clusters = extract_clusters(self._snapshot([0.0, 200.0, 400.0]),
                                    r0=200.0)
        assert len(clusters.head_positions) == 1
        assert cluster_list(clusters) == [(400.0, 0.0, 3)]

    def test_all_singletons(self):
        clusters = extract_clusters(
            self._snapshot([0.0, 300.0, 700.0]), r0=200.0)
        assert len(clusters.head_positions) == 3
        assert clusters.member_counts.tolist() == [1, 1, 1]

    def test_empty(self):
        clusters = extract_clusters(self._snapshot([]), r0=200.0)
        assert len(clusters.head_positions) == 0

    def test_head_fraction_law(self):
        # clusters / vehicles -> exp(-rho r0) over a long window
        snap = sample_snapshot(CANONICAL, 3_000_000.0, RngSpec(4))
        clusters = extract_clusters(snap, CANONICAL.r0)
        frac = len(clusters.head_positions) / snap.n_vehicles
        p = math.exp(-CANONICAL.rho_r0)
        se = math.sqrt(p * (1.0 - p) / snap.n_vehicles)
        assert abs(frac - p) <= 4.0 * se

    def test_ch_gap_samples_censors_edges(self):
        snap = self._snapshot([50.0, 400.0, 800.0, 9950.0])
        clusters = extract_clusters(snap, r0=200.0)
        gaps = ch_gap_samples(clusters, snap.window_length, 200.0)
        # first cluster (tail 50 < r0) and last (head within r0 of the
        # right edge) are censored; the one interior gap survives
        assert gaps.tolist() == [400.0]


class TestSampleCycles:
    def test_support_and_determinism(self):
        batch = cycle_batch(CANONICAL, 10_000, RngSpec(5))
        again = cycle_batch(CANONICAL, 10_000, RngSpec(5))
        assert np.all(batch.x >= CANONICAL.r0)
        assert np.array_equal(batch.x, again.x)
        assert np.array_equal(batch.v, again.v)

    def test_cycle_invariants(self):
        batch = cycle_batch(CANONICAL, 5_000, RngSpec(6))
        # min(x, D) + max(x - D, 0) telescopes to x, so the cycle
        # duration is x/v regardless of whether the station slept
        lhs = batch.t_off + batch.t_on
        rhs = batch.x / batch.v
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=0.0)
        assert np.all(batch.t_on >= 0.0)
        assert np.all(batch.t_off >= 0.0)

    def test_mean_matches_analytic(self):
        for fid in ("paper", "corrected"):
            params = CANONICAL.replace(fidelity=fid)
            batch = oracles.plain_batch(params, 200_000, RngSpec(7))
            se = batch.x.std(ddof=1) / math.sqrt(len(batch))
            target = energy_figures(params).expected_gap
            assert abs(batch.x.mean() - target) <= 4.0 * se

    def test_paper_fidelity_shifts_mean_up(self):
        corrected = oracles.plain_batch(CANONICAL, 100_000, RngSpec(10))
        paper = oracles.plain_batch(CANONICAL.replace(fidelity="paper"),
                                    100_000, RngSpec(10))
        assert paper.x.mean() > corrected.x.mean()

    @staticmethod
    def _draw(use_pool, threads, params, n, gen):
        """sample_cycles' sums on a pool of `threads` threads, or for
        n < 1000, which it refuses, cycle_batch's cycles; and the
        caller's next draw."""
        use_pool(threads)
        draw = cycle_batch if n < 1000 else sample_cycles
        return draw(params, n, gen), gen.random()

    @staticmethod
    def _assert_same(outputs):
        ref, ref_next = outputs[0]
        for got, next_draw in outputs[1:]:
            if isinstance(ref, CycleBatch):
                for f in fields(CycleBatch):
                    assert np.array_equal(getattr(got, f.name),
                                          getattr(ref, f.name)), f.name
            else:
                assert got == ref
            assert next_draw == ref_next

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("rho, r0", [(0.005, 100.0), (0.02, 200.0),
                                         (0.08, 100.0)])
    def test_chunk_size_does_not_change_draws(self, monkeypatch, use_pool,
                                              rho, r0, fidelity):
        # the direct gaps are drawn in chunks of a scratch row: 6,000
        # gaps, many chunks a block at rho*r0 = 4 (about 54 gaps a
        # cycle), or 64 times that, one chunk a block; the oracle draws a
        # block's gaps at once.  At rho*r0 = 8 direct clusters mix with
        # normal-approximated ones.  Every (row, threads) pair gives the
        # oracle's sums and leaves the caller's generator where it does;
        # blocks of 6,000 cycles make four of 20,000, the last one short.
        params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
        monkeypatch.setattr(simulate, "_CYCLE_BLOCK", 6_000)
        gen = RngSpec(11).generator()
        outputs = [(oracles.batch_sums(cycle_batch(params, 20_000, gen)),
                    gen.random())]
        narrow = simulate._BlockScratch
        for width in (1, 64):

            class Wide(narrow):
                def __init__(self, m, width=width):
                    super().__init__(m * width)

            monkeypatch.setattr(simulate, "_BlockScratch", Wide)
            for threads in (1, 2, 3):
                outputs.append(self._draw(use_pool, threads, params,
                                          20_000, RngSpec(11).generator()))
        self._assert_same(outputs)

    @pytest.mark.parametrize("n", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                   150_000])
    def test_block_edges_do_not_change_draws(self, use_pool, n):
        # a short last block and threads left without a block change
        # nothing; block b draws from child b of the root, so a longer
        # batch extends a shorter one block by block
        outputs = [self._draw(use_pool, threads, CANONICAL, n,
                              RngSpec(18).generator())
                   for threads in (1, 2, 3)]
        self._assert_same(outputs)
        whole = (n // simulate._CYCLE_BLOCK) * simulate._CYCLE_BLOCK
        batch = cycle_batch(CANONICAL, n, RngSpec(18))
        if n >= 1000:
            assert outputs[0][0] == oracles.batch_sums(batch)
        longer = cycle_batch(CANONICAL, whole + simulate._CYCLE_BLOCK,
                             RngSpec(18))
        assert np.array_equal(batch.x[:whole], longer.x[:whole])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, (1 << 16) + 1])
    def test_caller_advances_by_the_root_draw(self, use_pool, n, threads):
        gen = RngSpec(19).generator()
        _, next_draw = self._draw(use_pool, threads, CANONICAL, n, gen)
        ref = RngSpec(19).generator()
        ref.integers(1 << 64, size=2, dtype=np.uint64)
        assert next_draw == ref.random()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.MT19937])
    def test_other_bit_generators_thread_independent(self, use_pool,
                                                     bit_generator):
        params = CANONICAL.replace(rho=0.02, r0=200.0)
        outputs = [self._draw(use_pool, threads, params, 150_000,
                              np.random.Generator(bit_generator(17)))
                   for threads in (1, 2, 3)]
        self._assert_same(outputs)

    def test_thread_count_caps(self, monkeypatch):
        # two threads a call on two CPUs or more, one on one CPU, where
        # the call's own thread, not the caller's, draws every block
        kernel, drawers = simulate._cycle_block, set()

        def record(*args):
            drawers.add(threading.get_ident())
            return kernel(*args)

        monkeypatch.setattr(simulate, "_cycle_block", record)
        for cpus, threads in (({0, 1, 2, 3}, 2), ({0, 1}, 2), ({0}, 1)):
            monkeypatch.setattr(simulate.os, "sched_getaffinity",
                                lambda pid, cpus=cpus: cpus, raising=False)
            assert simulate._cycle_threads() == threads
            drawers.clear()
            sample_cycles(CANONICAL, 150_000, RngSpec(2))
            assert 1 <= len(drawers) <= threads
            assert threading.get_ident() not in drawers

    def test_fork_after_a_call(self, use_pool):
        # a child forked after a call draws the parent's sums: the call
        # joined its threads, so the child waits on none that fork did
        # not copy
        use_pool(2)
        want = sample_cycles(CANONICAL, 150_000, RngSpec(1))
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: send.send(
            sample_cycles(CANONICAL, 150_000, RngSpec(1))))
        child.start()
        try:
            assert recv.poll(120.0), "the forked child's draw hung"
            assert recv.recv() == want
            child.join(timeout=30.0)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
                child.join()

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("rho_r0", [0.5, 4.0, 32.0])
    def test_cluster_size_law(self, rho_r0, fidelity):
        # geometric(e^{-rho r0}) by inversion, the paper law's gap count:
        # mean e^{rho r0} and P{1} = e^{-rho r0}.  The corrected law's is
        # 0 with probability p = e^{-rho r0} and these otherwise, so its
        # mean e^{rho r0} - 1 is (1 - p) times theirs
        n = 1_000_000
        p = math.exp(-rho_r0)
        sizes = np.empty(n)
        simulate._cluster_gaps(RngSpec(20).generator(), p, sizes)
        weight = 1.0 if fidelity == "paper" else -math.expm1(-rho_r0)
        mean = math.expm1(rho_r0) + (fidelity == "paper")
        se = weight * math.sqrt((1.0 - p) / p ** 2 / n)
        assert abs(weight * sizes.mean() - mean) <= 4.0 * se
        if fidelity == "corrected":
            ones = np.count_nonzero(sizes == 1.0) / n
            assert abs(ones - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_cluster_size_finite_at_the_limit(self):
        sizes = np.empty(1_000_000)
        simulate._cluster_gaps(RngSpec(21).generator(),
                               math.exp(-simulate.SAMPLER_RHO_R0_LIMIT), sizes)
        assert np.all(np.isfinite(sizes)) and np.all(sizes >= 1.0)

    def test_big_cluster_normal_equals_generator_normal(self):
        # the sampler draws k*mean + sqrt(k*var) * standard_normal() for
        # gen.normal(k*mean, sqrt(k*var)); a numpy build that contracts
        # loc + scale*z into an FMA would break this: then restore
        # gen.normal in sample_cycles rather than loosen this test
        k = RngSpec(14).generator().integers(257, 10 ** 6, size=10 ** 6)
        k = k.astype(float)
        mean, var = simulate._trunc_exp_stats(0.02, 200.0)
        want = RngSpec(15).generator().normal(k * mean, np.sqrt(k * var))
        gen = RngSpec(15).generator()
        got = k * mean + np.sqrt(k * var) * gen.standard_normal(len(k))
        assert np.array_equal(got, want)

    def test_memory_independent_of_cluster_size(self, use_pool,
                                                allocations):
        # about 54 intra-cluster gaps a cycle at rho*r0 = 4: drawing them
        # all at once would peak near 20x the six fields of the cycles.
        # One thread and two, whose numpy allocations tracemalloc sees
        # too, with the scratch they map, which it does not, stay under
        # the bound, and each scratch maps four rows and a mask of a block.
        params = CANONICAL.replace(rho=0.02, r0=200.0, fidelity="paper")
        nbytes = 6 * 8 * 200_000
        m = simulate._CYCLE_BLOCK
        for threads in (1, 2):
            use_pool(threads)
            allocations.clear()
            tracemalloc.start()
            try:
                sample_cycles(params, 200_000, RngSpec(12))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            mapped = [_mapped_bytes(s) for s in allocations]
            assert all(b <= 4 * 8 * m + m for b in mapped), mapped
            assert peak + sum(mapped) <= 3 * nbytes, threads

    def test_calls_leave_no_threads(self, use_pool, allocations):
        # each call joins the threads it starts before it returns; each
        # thread maps one scratch, sized to the call's longest block
        before = threading.active_count()
        for threads in (1, 2, 3):
            use_pool(threads)
            for n in (1_000, 150_000):
                allocations.clear()
                sample_cycles(CANONICAL.replace(rho=0.02, r0=200.0), n,
                              RngSpec(16))
                assert threading.active_count() == before
                assert 1 <= len(allocations) <= threads
                size = min(n, simulate._CYCLE_BLOCK)
                assert all(_mapped_bytes(s) <= 4 * 8 * size + size
                           for s in allocations)

    def test_extreme_density_raises_before_drawing(self):
        gen = RngSpec(13).generator()
        with pytest.raises(ArithmeticError, match=r"rho=.*r0="):
            sample_cycles(CANONICAL.replace(r0=1e5), 1_000, gen)
        # at rho*r0 = 2e-18 exp(-rho*r0) rounds to 1
        with pytest.raises(ArithmeticError, match=r"rho=1e-20, r0=200.0"):
            sample_cycles(CANONICAL.replace(rho=1e-20), 1_000, gen)
        assert gen.random() == RngSpec(13).generator().random()


#: The 3 x 3 grid at the canonical D, and one cell with D < r0, where
#: every single-vehicle cycle sleeps (x1 > D on every cycle); (0.08, 400)
#: is where none does.
_ORACLE_CELLS = [pytest.param(rho, r0, CANONICAL.D, id=f"{rho}-{r0}")
                 for rho in (0.005, 0.02, 0.08)
                 for r0 in (100.0, 200.0, 400.0)] + [
    pytest.param(0.01, 200.0, 150.0, id="0.01-200.0-D150.0")]


#: Single-vehicle cycles with D > r0, D = r0 and D < r0 (every cycle
#: sleeps) at rho*r0 from near 0 to the sampler's limit, and the oracle
#: cells' D < r0 cell.
_SINGLE_VEHICLE_CELLS = [
    pytest.param(alpha / 200.0, 200.0, D, id=f"{alpha}-{D}")
    for alpha in (1e-8, 0.5, 16.0, 40.0) for D in (800.0, 200.0, 150.0)] + [
    pytest.param(0.01, 200.0, 150.0, id="0.01-200.0-D150.0")]


@pytest.mark.parametrize("rho, r0, D", _SINGLE_VEHICLE_CELLS)
def test_single_vehicle_closed_forms(rho, r0, D):
    # E[x1], P{x1 > D}, E[(x1 - D)+] E[1/V] and E[1/x1; x1 > D] of x1 =
    # r0 + exponential(rho) against quadrature over x1's density
    params = CANONICAL.replace(rho=rho, r0=r0, D=D)
    mean_x, prob, excess, inv = simulate._single_vehicle(params)
    want = oracles.single_vehicle_quad(params)
    got = (mean_x, prob, excess * params.mean_inv_speed, inv)
    for name, a, b in zip(("mean_x", "prob_sleep", "t_off", "inv_gap"),
                          got, (want.mean_x, want.prob_sleep, want.t_off,
                                want.inv_gap)):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0), name
    if D < r0:
        assert prob == 1.0


class TestCycleSums:
    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("rho, r0, D", _ORACLE_CELLS)
    def test_matches_full_array_oracle(self, rho, r0, D, fidelity):
        # the pooled block sums against np.mean / np.std / np.sum over the
        # very cycles they summarise
        params = CANONICAL.replace(rho=rho, r0=r0, D=D, fidelity=fidelity)
        sums = sample_cycles(params, 200_000, RngSpec(22))
        batch = cycle_batch(params, 200_000, RngSpec(22))
        assert sums == oracles.batch_sums(batch)
        got = estimate_energy(sums, params)
        want = oracles.estimate_energy_batch(batch, params)
        assert got.n_cycles == want.n_cycles == 200_000
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if b is None:
                assert a is None, f.name
                continue
            rel = 1e-9 if f.name.endswith("_se") else 1e-12
            assert a == pytest.approx(b, rel=rel, abs=0.0), f.name

    def test_threads_do_not_change_sums(self, use_pool):
        # 3.2 blocks, pooled in block order whichever thread drew them;
        # the caller's generator advances by the root draw only
        n = 3 * simulate._CYCLE_BLOCK + 12_345
        params = CANONICAL.replace(rho=0.02, r0=200.0)
        outputs = []
        for threads in (1, 2, 3):
            use_pool(threads)
            gen = RngSpec(23).generator()
            sums = sample_cycles(params, n, gen)
            outputs.append((sums, estimate_energy(sums, params),
                            gen.random()))
        assert len(outputs[0][0]) == n
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
        ref = RngSpec(23).generator()
        ref.integers(1 << 64, size=2, dtype=np.uint64)
        assert outputs[0][2] == ref.random()

    def test_memory_independent_of_n(self, use_pool):
        # per-thread block scratch only: 8x the cycles, the same peak.
        # Each call runs on new threads, so both allocate their scratch
        peaks = []
        for n in (1 << 18, 1 << 21):
            use_pool(2)
            tracemalloc.start()
            try:
                sample_cycles(CANONICAL, n, RngSpec(24))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks

    @pytest.mark.parametrize("n", [999, 0, -5])
    def test_too_few_cycles_raise_before_drawing(self, n):
        gen = RngSpec(25).generator()
        with pytest.raises(ValueError,
                           match=f"need at least 1000 cycles, got {n}"):
            sample_cycles(CANONICAL, n, gen)
        assert gen.random() == RngSpec(25).generator().random()


#: The grid cells but the densest, where the plain sampler is known to be
#: biased (acceptance 03), and the seed pool the corrected estimator is
#: judged on, fixed before it was first run.
_SPARSER_CELLS = [(rho, r0) for rho in (0.005, 0.02, 0.08)
                  for r0 in (100.0, 200.0, 400.0)][:8]
_PAIRED_SEEDS = range(30_000, 30_020)
_PAIRED_FIELDS = {"E_X": "expected_gap", "prob_sleep": "prob_sleep",
                  "E_Toff": "expected_sleep_time",
                  "E_Psave": "expected_power_saved"}


@pytest.fixture(scope="module")
def paired_pool():
    """For each sparser cell, per seed of the pool: the corrected
    estimate of 10^5 cycles, its closed-form target and the plain
    sampler's estimate of the same cycles (``oracles.plain_batch``), as
    {(cell, metric): (values, the ses of their z, target, their ses, the
    plain ses)}.  prob_sleep's z takes the estimator's standard error
    under the closed forms, (1 - p) sqrt(P (1 - P) / n), P the paper
    law's P{X > D}: the sample's own is 0 where every paper-law cycle
    sleeps.  The 160 requests are drawn in one batch of blocks, bit for
    bit what separate ``sample_cycles`` calls give
    (``TestBatchedBlocks``)."""
    cells = [CANONICAL.replace(rho=rho, r0=r0) for rho, r0 in _SPARSER_CELLS]
    figures = grid_energy_figures(cells)
    paper = grid_energy_figures([c.replace(fidelity="paper") for c in cells])
    n, pool = 100_000, {}
    requests = [(params, RngSpec(seed, c)) for c, params in enumerate(cells)
                for seed in _PAIRED_SEEDS]
    sums = iter(simulate._run_cycles(
        [simulate._plan_cycles(params, n, rng) for params, rng in requests]))
    for c, (params, fig, fig_paper) in enumerate(zip(cells, figures,
                                                     paper)):
        q = -math.expm1(-params.rho * params.r0)
        score = q * math.sqrt(fig_paper.prob_sleep
                              * (1.0 - fig_paper.prob_sleep) / n)
        rows = [(estimate_energy(next(sums), params),
                 oracles.estimate_energy_batch(
                     oracles.plain_batch(params, n, RngSpec(seed, c))))
                for seed in _PAIRED_SEEDS]
        for metric, name in _PAIRED_FIELDS.items():
            ses = np.array([getattr(e, name + "_se") for e, _ in rows])
            pool[(_SPARSER_CELLS[c], metric)] = (
                np.array([getattr(e, name) for e, _ in rows]),
                np.full(len(rows), score) if metric == "prob_sleep" else ses,
                getattr(fig, name), ses,
                np.array([getattr(p, name + "_se") for _, p in rows]))
    return pool


class TestPairedEstimator:
    """The corrected law's estimate: the paper law's, weighted 1 - p,
    mixed with the closed-form single-vehicle cycle, weighted p."""

    @pytest.mark.parametrize("cell", [
        pytest.param(cell, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 4: near P0 the plain mean "
            "misses the shortfall of rare short gaps; the parent's plain "
            "sampler gave the same 4 of 20 |z| > 3 at (0.08, 200)"))
        if cell == (0.08, 200.0) else cell for cell in _SPARSER_CELLS])
    def test_psave_z_against_closed_form(self, paired_pool, cell):
        self._check_z(paired_pool[(cell, "E_Psave")])

    @pytest.mark.parametrize("metric", ["E_X", "prob_sleep", "E_Toff"])
    @pytest.mark.parametrize("cell", _SPARSER_CELLS)
    def test_z_against_closed_form(self, paired_pool, cell, metric):
        self._check_z(paired_pool[(cell, metric)])

    @staticmethod
    def _check_z(entry):
        # 20 z-scores: P{|z| > 3} = 0.0027 each, so two or more would come
        # by chance once in about 700 pools, and their mean, whose standard
        # error is 1/sqrt(20), is within 3 of those of 0 unless something
        # is biased
        values, ses, target, _, _ = entry
        z = (values - target) / ses
        assert np.count_nonzero(np.abs(z) > 3.0) <= 1, z
        assert abs(z.mean()) <= 3.0 / math.sqrt(len(z)), z

    @pytest.mark.parametrize("metric", sorted(_PAIRED_FIELDS))
    @pytest.mark.parametrize("cell", _SPARSER_CELLS)
    def test_se_at_most_the_plain_samplers(self, paired_pool, cell, metric):
        # the mixed mean is a conditional expectation of the plain draw
        # given the paper-law cycles, so its variance is no larger
        # (Rao-Blackwell); pooled over the seeds at equal n on the same
        # cycles
        _, _, _, paired, plain = paired_pool[(cell, metric)]
        assert np.sum(paired ** 2) <= np.sum(plain ** 2), (paired, plain)


class TestBatchedBlocks:
    """The blocks of many sample_cycles requests drawn in one batch."""

    _REQUESTS = [(CANONICAL.replace(rho=0.005, r0=100.0), 100_000),
                 (CANONICAL.replace(rho=0.02, r0=200.0, fidelity="paper"),
                  150_000),
                 (CANONICAL.replace(rho=0.08, r0=100.0), 1_000),
                 (CANONICAL, (1 << 16) + 1)]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_batch_matches_separate_calls(self, use_pool, threads):
        # one generator shared by the requests: planning them in order
        # advances it as the separate calls do
        use_pool(threads)
        gen = RngSpec(32).generator()
        separate = [sample_cycles(p, n, gen) for p, n in self._REQUESTS]
        separate_next = gen.random()
        gen = RngSpec(32).generator()
        plans = [simulate._plan_cycles(p, n, gen)
                 for p, n in self._REQUESTS]
        assert simulate._run_cycles(plans) == separate
        assert gen.random() == separate_next

    def test_longest_blocks_first(self, monkeypatch, use_pool):
        # on one thread the blocks run in the order the pool takes them:
        # every full block of every request, then the short ones, longest
        # first, ties in request and block order
        use_pool(1)
        kernel, drawn = simulate._cycle_block, []

        def record(seed, m, params, s):
            drawn.append((m, params, seed.spawn_key[-1]))
            return kernel(seed, m, params, s)

        monkeypatch.setattr(simulate, "_cycle_block", record)
        plans = [simulate._plan_cycles(p, n, RngSpec(33))
                 for p, n in self._REQUESTS]
        simulate._run_cycles(plans)
        block = simulate._CYCLE_BLOCK
        p0, p1, p2, p3 = (p for p, _ in self._REQUESTS)
        assert drawn == [(block, p0, 0), (block, p1, 0), (block, p1, 1),
                         (block, p3, 0), (100_000 - block, p0, 1),
                         (150_000 - 2 * block, p1, 2), (1_000, p2, 0),
                         (1, p3, 1)]


class TestScratchCache:
    """The block scratch each thread of a call reuses for its blocks."""

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("n", [1_000, (1 << 16) + 1, 100_000])
    def test_reused_scratch_matches_oracle(self, monkeypatch, use_pool, n,
                                           fidelity, threads):
        # blocks of 300 cycles outnumber the threads, so a thread draws
        # later blocks, the short last one too, into the scratch an
        # earlier block left; each scratch starts out filled with what a
        # reader of an unwritten slot would see.  Every block's sums are
        # those of a fresh scratch, and the call's the oracle's.
        params = CANONICAL.replace(rho=0.005, r0=100.0, fidelity=fidelity)
        monkeypatch.setattr(simulate, "_CYCLE_BLOCK", 300)
        want = oracles.batch_sums(cycle_batch(params, n, RngSpec(26)))
        use_pool(threads)
        fresh = simulate._BlockScratch

        class Poisoned(fresh):
            def __init__(self, m):
                super().__init__(m)
                self.rows.fill(math.nan)
                self.mask.fill(True)

        kernel, drawn, used = simulate._cycle_block, [], []

        def record(seed, m, params, s):
            sums = kernel(seed, m, params, s)
            drawn.append((seed, m, sums))
            used.append(id(s))
            return sums

        monkeypatch.setattr(simulate, "_BlockScratch", Poisoned)
        monkeypatch.setattr(simulate, "_cycle_block", record)
        got = sample_cycles(params, n, RngSpec(26))
        assert len(used) == -(-n // 300) > threads >= len(set(used))
        assert got == want
        for seed, m, sums in drawn:
            assert kernel(seed, m, params, fresh(300)) == sums, m

    def test_scratch_row_holds_a_direct_cluster(self):
        # the direct gaps are drawn in chunks of one row, which must hold
        # the largest direct cluster; 4*8*m + m bytes are mapped
        m = simulate.DIRECT_SUM_LIMIT
        with pytest.raises(ValueError, match="direct cluster"):
            simulate._BlockScratch(m - 1)
        assert _mapped_bytes(simulate._BlockScratch(m)) == 4 * 8 * m + m

    @pytest.mark.skipif(not Path("/proc/self/smaps").exists(),
                        reason="needs Linux /proc/self/smaps")
    def test_scratch_uses_small_pages(self):
        # a full block's 2.1 MiB scratch holds a 2 MiB huge page at some
        # addresses only; refused huge pages give every process the same
        # page size and so the same speed
        s = simulate._BlockScratch(simulate._CYCLE_BLOCK)
        addr = s.rows.ctypes.data
        flags = None
        with open("/proc/self/smaps") as smaps:
            for line in smaps:
                head = line.split()[0]
                if re.fullmatch(r"[0-9a-f]+-[0-9a-f]+", head):
                    lo, hi = (int(a, 16) for a in head.split("-"))
                    inside = lo <= addr < hi
                elif head == "VmFlags:" and inside:
                    flags = line.split()[1:]
        assert flags is not None and "nh" in flags, flags

    def test_concurrent_callers_get_serial_results(self, use_pool):
        # three callers at once, switching often, each call on two
        # threads and scratches of its own: every result is the serial one
        use_pool(2)
        jobs = [(CANONICAL.replace(rho=0.005, r0=100.0), 100_000, 28),
                (CANONICAL.replace(rho=0.02, r0=200.0, fidelity="paper"),
                 150_000, 29),
                (CANONICAL.replace(rho=0.08, r0=100.0), 1_000, 30)]
        serial = [sample_cycles(p, n, RngSpec(seed)) for p, n, seed in jobs]
        results = [[] for _ in jobs]
        start = threading.Barrier(len(jobs))

        def caller(i):
            p, n, seed = jobs[i]
            start.wait()
            for _ in range(6):
                results[i].append(sample_cycles(p, n, RngSpec(seed)))

        callers = [threading.Thread(target=caller, args=(i,))
                   for i in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for c in callers:
                c.start()
            for c in callers:
                c.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(c.is_alive() for c in callers)
        assert results == [[want] * 6 for want in serial]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    assert "estimate_energy(sums, CANONICAL)" in code
    exec(compile(code, "README.md", "exec"), {})
    analytic, simulated = map(float, capsys.readouterr().out.split())
    assert simulated == pytest.approx(analytic, rel=0.01)


class TestEstimateEnergy:
    def test_requires_thousand_cycles(self):
        with pytest.raises(ValueError):
            sample_cycles(CANONICAL, 999, RngSpec(11))

    def test_all_awake_cycles_save_nothing(self):
        # no gap reaches D = 1e12 m: no cycle of any block sleeps
        params = CANONICAL.replace(D=1e12)
        est = estimate_energy(sample_cycles(params, 150_000, RngSpec(11)),
                              params)
        assert est.expected_power_saved == 0.0
        assert est.prob_sleep == 0.0
        assert est.expected_sleep_time is None

    def test_se_scales_with_sample_size(self):
        small = estimate_energy(sample_cycles(CANONICAL, 50_000,
                                              RngSpec(12)), CANONICAL)
        large = estimate_energy(sample_cycles(CANONICAL, 200_000,
                                              RngSpec(13)), CANONICAL)
        ratio = small.expected_power_saved_se / large.expected_power_saved_se
        assert ratio == pytest.approx(2.0, rel=0.10)

    def test_duty_cycle_is_time_fraction(self):
        # the paper-law cycles weigh 1 - p, the single-vehicle cycle's
        # means p each
        batch = cycle_batch(CANONICAL, 10_000, RngSpec(15))
        est = estimate_energy(sample_cycles(CANONICAL, 10_000, RngSpec(15)),
                              CANONICAL)
        p = math.exp(-CANONICAL.rho * CANONICAL.r0)
        one = oracles.single_vehicle_quad(CANONICAL)
        t_off = (1.0 - p) * batch.t_off.sum() + p * 10_000 * one.t_off
        t_on = (1.0 - p) * batch.t_on.sum() + p * 10_000 * one.t_on
        assert est.duty_cycle == pytest.approx(t_off / (t_off + t_on))

    @pytest.mark.parametrize("rho, r0, D", _ORACLE_CELLS)
    def test_corrected_is_the_mixture(self, rho, r0, D):
        # every corrected figure is 1 - p times the paper law's estimate
        # from the same sums plus p times the single-vehicle cycle's, and
        # so is every standard error but the sleep time's, whose ratio
        # the delta method takes from the paper law's sleep moments
        params = CANONICAL.replace(rho=rho, r0=r0, D=D)
        sums = sample_cycles(params, 100_000, RngSpec(34))
        paper = estimate_energy(sums, params.replace(fidelity="paper"))
        got = estimate_energy(sums, params)
        p = math.exp(-rho * r0)
        q, n, one = 1.0 - p, len(sums), oracles.single_vehicle_quad(params)
        psave1 = (params.P0 * (one.prob_sleep - D * one.inv_gap)
                  - params.Ec * params.mean_speed * one.inv_gap)
        prob = q * paper.prob_sleep + p * one.prob_sleep
        toff = (q * sums.totals[1] / n + p * one.t_off) / prob
        n_s = sums.sleep.n
        m2 = paper.expected_sleep_time_se ** 2 * n_s * (n_s - 1)
        resid = m2 + n_s * (n - n_s) / n * (
            paper.expected_sleep_time - toff) ** 2
        e_off, t_off, t_on = (
            q * sums.totals[0] + p * n * (params.P0 * one.t_off
                                          - params.Ec * one.prob_sleep),
            q * sums.totals[1] + p * n * one.t_off,
            q * sums.totals[2] + p * n * one.t_on)
        want = {
            "expected_gap": q * paper.expected_gap + p * one.mean_x,
            "expected_gap_se": q * paper.expected_gap_se,
            "prob_sleep": prob, "prob_sleep_se": q * paper.prob_sleep_se,
            "expected_sleep_time": toff,
            "expected_sleep_time_se": q * math.sqrt(resid / (n - 1) / n)
            / prob,
            "expected_power_saved":
                q * paper.expected_power_saved + p * psave1,
            "expected_power_saved_se": q * paper.expected_power_saved_se,
            "time_average_power_saved": e_off / (t_off + t_on),
            "duty_cycle": t_off / (t_off + t_on)}
        assert got.n_cycles == paper.n_cycles == n
        assert n_s >= 2
        for name, value in want.items():
            rel = 1e-9 if name == "expected_sleep_time_se" else 1e-12
            assert getattr(got, name) == pytest.approx(
                value, rel=rel, abs=0.0), name


def _road(params, duration, v=None):
    """The road length run_timeline draws, pinned: what the fastest
    vehicle (v, or b without it) covers in duration, plus D + 2 r0, plus
    50 max(1/rho, r0) of interior."""
    speed = params.b if v is None else v
    return ((speed * duration + params.D + 2.0 * params.r0)
            + 50.0 * max(1.0 / params.rho, params.r0))


class TestRunTimeline:
    def test_common_mode_matches_renewal_average(self):
        v = 60.0 * KMH
        duration = 60_000.0
        report = run_timeline(CANONICAL, duration, RngSpec(16), v=v)
        degenerate = CANONICAL.replace(a=v * (1 - 1e-9), b=v * (1 + 1e-9))
        target = energy_figures(degenerate).expected_power_saved
        assert report.n_cycles > 1_000
        assert abs(report.cycle_mean_power_saved - target) \
            <= 4.0 * report.cycle_mean_power_se

    def test_report_invariants(self):
        v = 60.0 * KMH
        duration = 10_000.0
        report = run_timeline(CANONICAL, duration, RngSpec(17), v=v)
        assert 0.0 <= report.sleep_fraction <= 1.0
        sleep_time = report.sleep_fraction * duration
        assert report.energy_saved == pytest.approx(
            sleep_time * CANONICAL.P0
            - report.n_transitions / 2.0 * CANONICAL.Ec)
        assert report.mean_power_saved == pytest.approx(
            report.energy_saved / duration)
        assert report.complete

    def test_determinism(self):
        v = 60.0 * KMH
        duration = 5_000.0
        a = run_timeline(CANONICAL, duration, RngSpec(18), v=v)
        b = run_timeline(CANONICAL, duration, RngSpec(18), v=v)
        assert a == b

    def test_rejects_bad_speed_and_duration(self):
        for duration, v in ((-1.0, 16.0), (0.0, None), (100.0, 0.0),
                            (100.0, -16.0)):
            with pytest.raises(ValueError):
                run_timeline(CANONICAL, duration, RngSpec(20), v=v)

    def test_heterogeneous_contract(self):
        duration = 400.0
        report = run_timeline(CANONICAL, duration, RngSpec(21))
        assert 0.0 <= report.sleep_fraction <= 1.0
        assert report.n_transitions >= 0
        assert report.complete
        assert report.processed_time == pytest.approx(duration)
        sleep_time = report.sleep_fraction * report.processed_time
        assert report.energy_saved == pytest.approx(
            sleep_time * CANONICAL.P0
            - report.n_transitions / 2.0 * CANONICAL.Ec)

    def test_heterogeneous_determinism(self):
        duration = 200.0
        a = run_timeline(CANONICAL, duration, RngSpec(22))
        b = run_timeline(CANONICAL, duration, RngSpec(22))
        assert a == b


def _exact_timeline(params, duration, seed, v=None):
    """(n_transitions, sleep_fraction) of the station at the front end of
    the road ``run_timeline`` draws from ``seed``, by the
    interval-algebra oracle; every vehicle moves at ``v`` if given."""
    window = _road(params, duration, v)
    snap = sample_snapshot(params, window, RngSpec(seed))
    speeds = snap.speeds if v is None else np.full(snap.n_vehicles, v)
    intervals = timeline_active_intervals(
        snap.positions, speeds, params.r0, window - params.D / 2.0,
        window + params.D / 2.0, duration)
    n_transitions = sum(0.0 < t < duration for iv in intervals for t in iv)
    active = sum(end - start for start, end in intervals)
    return n_transitions, 1.0 - active / duration


class TestTimelineOracle:
    def test_equal_speeds_match_common_mode(self):
        v = 60.0 * KMH
        duration = 2_000.0
        for seed in (30, 31, 32):
            report = run_timeline(CANONICAL, duration, RngSpec(seed), v=v)
            n, sleep = _exact_timeline(CANONICAL, duration, seed, v=v)
            assert n == report.n_transitions, seed
            assert_close(report.sleep_fraction, sleep, rel=1e-9,
                         label=f"common sleep fraction, seed {seed}")

    @pytest.mark.xfail(strict=True, reason=(
        "the heterogeneous event loop evaluates the state at a crossing "
        "instant and drops a follow-up crossing under 1e-9 s away, so a "
        "flip waits for the next unrelated event (ROADMAP open item 3)"))
    def test_heterogeneous_matches_exact_intervals(self):
        p = CANONICAL
        duration = 800.0
        for seed in (0, 1, 2):
            report = run_timeline(p, duration, RngSpec(seed))
            n, sleep = _exact_timeline(p, duration, seed)
            assert n == report.n_transitions, seed
            assert_close(report.sleep_fraction, sleep, rel=1e-9,
                         label=f"heterogeneous sleep fraction, seed {seed}")


def _record_events(monkeypatch, module) -> list:
    """Wrap ``module._next_event_time`` to collect every instant it
    returns."""
    times = []
    step = module._next_event_time

    def record(*args):
        times.append(step(*args))
        return times[-1]

    monkeypatch.setattr(module, "_next_event_time", record)
    return times


def _assert_same_run(monkeypatch, run_kernel, run_oracle):
    """Run the kernel and the event-loop oracle; every report field and
    every event instant must be equal.  Returns the kernel's report."""
    got_times = _record_events(monkeypatch, simulate)
    want_times = _record_events(monkeypatch, oracles)
    got, want = run_kernel(), run_oracle()
    for f in fields(TimelineReport):
        assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert got_times == want_times
    return got


def _sampled_run(monkeypatch, params, duration, seed):
    """run_timeline's heterogeneous report from ``seed``, checked against
    the oracle on the road of ``_road``'s length drawn from that seed."""
    window = _road(params, duration)
    snap = sample_snapshot(params, window, RngSpec(seed))
    return _assert_same_run(
        monkeypatch,
        lambda: run_timeline(params, duration, RngSpec(seed)),
        lambda: oracles.event_loop_timeline(
            params, snap.positions, snap.speeds, duration,
            window - params.D / 2.0, window + params.D / 2.0,
            max_events=simulate.MAX_EVENTS))


def _built_run(monkeypatch, positions, speeds, duration=150.0,
               window=1900.0):
    """The kernel's report on a constructed road (the station covering
    window -+ D/2), checked against the oracle."""
    snap = Snapshot(window, np.asarray(positions, dtype=float),
                    np.asarray(speeds, dtype=float))
    return _assert_same_run(
        monkeypatch,
        lambda: simulate._heterogeneous_timeline(CANONICAL, duration, snap),
        lambda: oracles.event_loop_timeline(
            CANONICAL, snap.positions, snap.speeds, duration,
            window - CANONICAL.D / 2.0, window + CANONICAL.D / 2.0))


class TestEventKernel:
    """The kept-order event kernel against the re-sorting event loop it
    replaced: the same event instants and report, bit for bit."""

    @pytest.mark.parametrize("rho, duration, seed", [
        *((CANONICAL.rho, 400.0 + 80.0 * seed, seed) for seed in range(6)),
        (0.002, 800.0, 0),
        (0.04, 100.0, 0),
    ])
    def test_matches_event_loop_on_sampled_roads(self, monkeypatch, rho,
                                                 duration, seed):
        report = _sampled_run(monkeypatch, CANONICAL.replace(rho=rho),
                              duration, seed)
        assert report.complete

    @pytest.mark.parametrize("positions, speeds", [([], []), ([0.0], [20.0])])
    def test_empty_and_single_vehicle_roads(self, monkeypatch, positions,
                                            speeds):
        report = _built_run(monkeypatch, positions, speeds)
        assert report.complete
        assert report.sleep_fraction == (1.0 if not positions else 0.5)

    def test_equal_speeds_and_exact_ties(self, monkeypatch):
        # 0 and 1 start tied and the lower index pulls ahead; 3 and 4 stay
        # tied; 2-3 and 5-6 keep equal speeds at a gap of r0
        report = _built_run(
            monkeypatch,
            [0.0, 0.0, 100.0, 300.0, 300.0, 600.0, 800.0, 1000.0],
            [25.0, 20.0, 18.0, 18.0, 18.0, 22.0, 22.0, 16.0])
        assert report.n_transitions > 0

    def test_tie_at_an_event_follows_index_order(self, monkeypatch):
        # the road starts out of index order: 1 catches 0 exactly at
        # t = 10, where the stable order puts 0 first again, and then
        # pulls away to a gap of r0 at t = 210
        _built_run(monkeypatch, [10.0, 0.0], [20.0, 21.0], duration=300.0,
                   window=6000.0)

    @pytest.mark.parametrize("positions, speeds, fallback", [
        # one overtake: repaired in place
        ([0.0, 50.0, 400.0], [25.0, 20.0, 15.0], False),
        # three vehicles meet at one point at t = 10: adjacent swaps
        ([0.0, 10.0, 20.0, 700.0], [30.0, 29.0, 28.0, 15.0], True),
        # one vehicle passes a tied pair: its one swap leaves the order
        # unsorted
        ([0.0, 10.0, 10.0, 700.0], [30.0, 29.0, 29.0, 15.0], True),
        # five separate pairs cross at t = 10: more than 4 swaps
        ([1000.0 * k + d for k in range(5) for d in (0.0, 10.0)],
         [21.0, 20.0] * 5, True),
        # two separate pairs cross at t = 10: both swapped in place by
        # one repair
        ([1000.0 * k + d for k in range(2) for d in (0.0, 10.0)],
         [21.0, 20.0] * 2, False),
    ])
    def test_simultaneous_overtakes(self, monkeypatch, positions, speeds,
                                    fallback):
        resorts = []
        resort = simulate._Road._resort

        def spy(road, t):
            resorts.append(t)
            return resort(road, t)

        monkeypatch.setattr(simulate._Road, "_resort", spy)
        _built_run(monkeypatch, positions, speeds, duration=300.0,
                   window=4400.0)
        assert resorts[0] == 0.0
        assert (max(resorts) > 10.0) == fallback

    def test_event_cap(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_EVENTS", 50)
        duration = 400.0
        report = _sampled_run(monkeypatch, CANONICAL, duration, 0)
        assert report.complete is False
        assert report.processed_time < duration

    def test_default_duration_road(self, monkeypatch):
        # the 86,400 s default road: about 19,400 vehicles, positions up
        # to 2e6 m, where the queue's error bounds are widest
        monkeypatch.setattr(simulate, "MAX_EVENTS", 2_000)
        report = _sampled_run(monkeypatch, CANONICAL, 86_400.0, 0)
        assert report.complete is False

    @pytest.mark.parametrize("lead", [3e-10, 1.5e-9])
    def test_overtake_near_eps_after_an_event(self, monkeypatch, lead):
        # the head at 1300 reaches lo = 1500 at t = 10, and 0 overtakes 1
        # at t = 10 + lead.  Within eps (3e-10 s) the overtake is no event
        # of its own: its queue entry is already past when first popped,
        # and the pair must still be found out of order at t = 50.
        # Beyond eps (1.5e-9 s) it is the next event.
        times = _record_events(monkeypatch, simulate)
        _built_run(monkeypatch, [0.0, 10.0 + lead, 1300.0],
                   [21.0, 20.0, 20.0])
        assert times[0] == 10.0
        assert (times[1] < 10.0 + 1e-8) == (lead > 1e-9)

    def test_near_parallel_pair_at_r0(self, monkeypatch):
        # 0 and 1 close at 1e-9 m/s and their gap reaches r0 near t = 100
        # at positions near 1e6 m, so every evaluation of its dt is a
        # multiple of ulp(1e6 m) / 1e-9 m/s = 0.116 s: the overtakes far
        # behind, at 99.64 s, 99.79 s and every 0.01 s from 99.94 s to
        # 100.04 s, find it above and below eps in turn, and once it
        # is the next event itself
        positions = [998000.0, 998200.0 + 1e-7]
        speeds = [20.0, 20.0 - 1e-9]
        overtakes = [99.64, 99.79] + [round(99.94 + 0.01 * j, 2)
                                      for j in range(11)]
        for j, d in enumerate(overtakes):
            positions += [1000.0 * j, 1000.0 * j + d]
            speeds += [21.0, 20.0]
        times = _record_events(monkeypatch, simulate)
        _built_run(monkeypatch, positions, speeds, window=1000100.0)
        x, v = np.array(positions[:2]), np.array(speeds[:2])
        near = [t for t in times if 99.0 < t < 101.0]
        ahead = [(CANONICAL.r0 - np.diff(x + v * t)[0]) / np.diff(v)[0]
                 > 1e-9 for t in near]
        assert [a != b for a, b in zip(ahead, ahead[1:])].count(True) >= 2
        assert len(near) == len(overtakes) + 1

    def test_rounding_ties_a_passing_pair(self, monkeypatch):
        # 0 passes 1 at 1e-9 m/s near t = 100 at positions near 1e6 m; for
        # about 0.1 s after, their positions still round to one double at
        # some events, and each tie puts 0 back behind 1 in the stable
        # order, which moves the next head's arrival at hi in its last bits
        positions = [998000.0, 998000.0 + 1e-7]
        speeds = [20.0, 20.0 - 1e-9]
        for j in range(21):
            positions += [1000.0 * j, 1000.0 * j + round(99.85 + 0.01 * j, 2)]
            speeds += [21.0, 20.0]
        _built_run(monkeypatch, positions, speeds, window=1e6 + 2.4 - 400.0)

    def test_equal_speeds_tied_by_rounding(self, monkeypatch):
        # 0 drives 2^-33 m ahead of 1 at the same speed; past 2^20 m
        # their positions round to one double at some events and not at
        # others.  At t = 10 five pairs meet at once and force a full
        # re-sort while they are tied, which puts 0 behind 1; the pair
        # must stay watched to swap back when rounding parts them, or
        # the head's arrival at hi moves in its last bits
        p = 1048376.0
        positions, speeds = [p + 2.0 ** -33, p], [20.0, 20.0]
        for k in range(5):
            positions += [1000.0 * k + 10.0, 1000.0 * k]
            speeds += [20.0, 21.0]
        for k in range(6):                   # overtakes at 10.2 ... 11.2 s
            positions += [10000.0 + 1000.0 * k,
                          10000.0 + 1000.0 * k + round(10.2 + 0.2 * k, 1)]
            speeds += [21.0, 20.0]
        _built_run(monkeypatch, positions, speeds, duration=60.0,
                   window=p - 170.0)

    def test_stale_entries_filtered_without_moving_instants(
            self, monkeypatch):
        # the road starts with a zero cap, so its first swap filters, and
        # every 50th event filters again: no event instant moves from the
        # oracle's, a filtering leaves no stale entry and a cap of twice
        # its size, and from the first one on the heap stays within it
        advance, events, natural = simulate._Road.at, [0], [0]

        def check_filtered(road):
            stamp = road.stamp
            assert road.heap_cap == 2 * len(road.heap)
            assert all(e[2] >= 2 or stamp[e[3]] == e[4] for e in road.heap)

        def at(road, t):
            if not events[0]:
                road.heap_cap = 0
            cap = road.heap_cap
            active = advance(road, t)
            events[0] += 1
            if road.heap_cap != cap:
                natural[0] += 1
                check_filtered(road)
            if events[0] % 50 == 0:
                road._drop_stale()
                check_filtered(road)
            if natural[0]:
                assert len(road.heap) <= road.heap_cap
            return active

        monkeypatch.setattr(simulate._Road, "at", at)
        _sampled_run(monkeypatch, CANONICAL, 1600.0, 0)
        assert natural[0] >= 1 and events[0] > 10_000
