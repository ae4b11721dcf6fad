import math
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from sleepnet import simulate
from sleepnet.analytic import energy_figures
from sleepnet.params import CANONICAL, KMH
from sleepnet.simulate import (CycleBatch, RngSpec, TimelineReport,
                               WindowTooSmallError, ch_gap_samples,
                               default_window, estimate_energy,
                               extract_clusters, run_timeline,
                               sample_cycles, sample_snapshot, Snapshot)

from conftest import assert_close
import oracles
from oracles import timeline_active_intervals


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
    def test_window_guard(self):
        with pytest.raises(WindowTooSmallError) as exc_info:
            sample_snapshot(CANONICAL, 100.0, RngSpec(0))
        assert exc_info.value.required == 50.0 * max(1.0 / CANONICAL.rho,
                                                     CANONICAL.r0)

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
        assert clusters.clusters == [(100.0, 0.0, 2), (350.0, 350.0, 1)]

    def test_gap_equal_r0_joins(self):
        clusters = extract_clusters(self._snapshot([0.0, 200.0, 400.0]),
                                    r0=200.0)
        assert clusters.n_clusters == 1
        assert clusters.clusters == [(400.0, 0.0, 3)]

    def test_all_singletons(self):
        clusters = extract_clusters(
            self._snapshot([0.0, 300.0, 700.0]), r0=200.0)
        assert clusters.n_clusters == 3
        assert clusters.member_counts.tolist() == [1, 1, 1]

    def test_empty(self):
        clusters = extract_clusters(self._snapshot([]), r0=200.0)
        assert clusters.n_clusters == 0

    def test_head_fraction_law(self):
        # clusters / vehicles -> exp(-rho r0) over a long window
        snap = sample_snapshot(CANONICAL, 3_000_000.0, RngSpec(4))
        clusters = extract_clusters(snap, CANONICAL.r0)
        frac = clusters.n_clusters / snap.n_vehicles
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
        batch = sample_cycles(CANONICAL, 10_000, RngSpec(5))
        again = sample_cycles(CANONICAL, 10_000, RngSpec(5))
        assert np.all(batch.x >= CANONICAL.r0)
        assert np.array_equal(batch.x, again.x)
        assert np.array_equal(batch.v, again.v)

    def test_cycle_invariants(self):
        batch = sample_cycles(CANONICAL, 5_000, RngSpec(6))
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
            batch = sample_cycles(params, 200_000, RngSpec(7))
            se = batch.x.std(ddof=1) / math.sqrt(len(batch))
            target = energy_figures(params).expected_gap
            assert abs(batch.x.mean() - target) <= 4.0 * se

    def test_fidelity_argument_overrides(self):
        base = sample_cycles(CANONICAL, 1_000, RngSpec(9))
        forced = sample_cycles(CANONICAL.replace(fidelity="paper"), 1_000,
                               RngSpec(9), fidelity="corrected")
        assert np.array_equal(base.x, forced.x)

    def test_paper_fidelity_shifts_mean_up(self):
        corrected = sample_cycles(CANONICAL, 100_000, RngSpec(10))
        paper = sample_cycles(CANONICAL, 100_000, RngSpec(10),
                              fidelity="paper")
        assert paper.x.mean() > corrected.x.mean()

    @staticmethod
    def _draw(monkeypatch, threads, params, n, gen, **kwargs):
        monkeypatch.setattr(simulate, "_cycle_threads",
                            lambda n_blocks: threads)
        return sample_cycles(params, n, gen, **kwargs), gen.random()

    @staticmethod
    def _assert_same(outputs):
        ref_batch, ref_next = outputs[0]
        for batch, next_draw in outputs[1:]:
            for f in fields(CycleBatch):
                assert np.array_equal(getattr(batch, f.name),
                                      getattr(ref_batch, f.name)), f.name
            assert next_draw == ref_next

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("rho, r0", [(0.005, 100.0), (0.02, 200.0),
                                         (0.08, 100.0)])
    def test_chunk_size_does_not_change_draws(self, monkeypatch, rho, r0,
                                              fidelity):
        # a chunk of 5 gaps is smaller than many single clusters; 2^30
        # holds the whole batch.  At rho*r0 = 8 direct clusters mix with
        # normal-approximated ones.  Every (chunk, threads) pair gives the
        # batch and leaves the caller's generator where one thread does;
        # blocks of 6,000 cycles make four of 20,000, the last one short.
        params = CANONICAL.replace(rho=rho, r0=r0)
        monkeypatch.setattr(simulate, "_CYCLE_BLOCK", 6_000)
        outputs = []
        for chunk in (5, 1 << 30):
            monkeypatch.setattr(simulate, "_GAP_CHUNK", chunk)
            for threads in (1, 2, 3):
                outputs.append(self._draw(monkeypatch, threads, params,
                                          20_000, RngSpec(11).generator(),
                                          fidelity=fidelity))
        self._assert_same(outputs)

    @pytest.mark.parametrize("n", [1, (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
                                   150_000])
    def test_block_edges_do_not_change_draws(self, monkeypatch, n):
        # a short last block and threads left without a block change
        # nothing; block b draws from child b of the root, so a longer
        # batch extends a shorter one block by block
        outputs = [self._draw(monkeypatch, threads, CANONICAL, n,
                              RngSpec(18).generator())
                   for threads in (1, 2, 3)]
        self._assert_same(outputs)
        whole = (n // simulate._CYCLE_BLOCK) * simulate._CYCLE_BLOCK
        longer = sample_cycles(CANONICAL, whole + simulate._CYCLE_BLOCK,
                               RngSpec(18))
        assert np.array_equal(outputs[0][0].x[:whole], longer.x[:whole])

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("n", [0, 1, (1 << 16) + 1])
    def test_caller_advances_by_the_root_draw(self, monkeypatch, n,
                                              threads):
        gen = RngSpec(19).generator()
        _, next_draw = self._draw(monkeypatch, threads, CANONICAL, n, gen)
        ref = RngSpec(19).generator()
        ref.integers(1 << 64, size=2, dtype=np.uint64)
        assert next_draw == ref.random()

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.MT19937])
    def test_other_bit_generators_thread_independent(self, monkeypatch,
                                                     bit_generator):
        params = CANONICAL.replace(rho=0.02, r0=200.0)
        outputs = [self._draw(monkeypatch, threads, params, 150_000,
                              np.random.Generator(bit_generator(17)))
                   for threads in (1, 2, 3)]
        self._assert_same(outputs)

    def test_thread_count_caps(self):
        assert simulate._cycle_threads(0) == 1
        assert simulate._cycle_threads(1) == 1
        assert 1 <= simulate._cycle_threads(2) <= 2
        assert simulate._cycle_threads(1 << 50) <= 2

    def test_process_pool_workers_use_one_thread(self, monkeypatch):
        # sweep/validate --workers N already spread cells over the CPUs
        monkeypatch.setattr(simulate.multiprocessing, "parent_process",
                            lambda: object())
        assert simulate._cycle_threads(1 << 50) == 1

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    @pytest.mark.parametrize("rho_r0", [0.5, 4.0, 32.0])
    def test_cluster_size_law(self, rho_r0, fidelity):
        # geometric(e^{-rho r0}) - 1 by inversion: mean e^{rho r0} - 1 and
        # P{0} = e^{-rho r0}; the paper fidelity adds one vehicle
        n = 1_000_000
        p = math.exp(-rho_r0)
        sizes = np.empty(n)
        simulate._cluster_gaps(RngSpec(20).generator(), p,
                               1.0 if fidelity == "paper" else 0.0, sizes)
        mean = math.expm1(rho_r0) + (fidelity == "paper")
        se = math.sqrt((1.0 - p) / p ** 2 / n)
        assert abs(sizes.mean() - mean) <= 4.0 * se
        if fidelity == "corrected":
            zeros = np.count_nonzero(sizes == 0.0) / n
            assert abs(zeros - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_cluster_size_finite_at_the_limit(self):
        sizes = np.empty(1_000_000)
        simulate._cluster_gaps(RngSpec(21).generator(),
                               math.exp(-simulate.SAMPLER_RHO_R0_LIMIT), 0.0,
                               sizes)
        assert np.all(np.isfinite(sizes)) and np.all(sizes >= 0.0)

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

    def test_memory_independent_of_cluster_size(self, monkeypatch):
        # about 54 intra-cluster gaps a cycle at rho*r0 = 4: drawing them
        # all at once would peak near 20x the batch itself.  One thread
        # and two, whose numpy allocations tracemalloc sees too, with
        # their scratch, stay under the bound.
        params = CANONICAL.replace(rho=0.02, r0=200.0)
        for threads in (1, 2):
            monkeypatch.setattr(simulate, "_cycle_threads",
                                lambda n_blocks, t=threads: t)
            tracemalloc.start()
            try:
                batch = sample_cycles(params, 200_000, RngSpec(12),
                                      fidelity="paper")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            nbytes = sum(getattr(batch, f.name).nbytes
                         for f in fields(batch))
            assert peak <= 3 * nbytes, threads

    def test_no_thread_outlives_the_call(self, monkeypatch):
        monkeypatch.setattr(simulate, "_cycle_threads", lambda n_blocks: 3)
        before = threading.active_count()
        sample_cycles(CANONICAL.replace(rho=0.02, r0=200.0), 150_000,
                      RngSpec(16))
        assert threading.active_count() == before

    def test_extreme_density_raises_before_drawing(self):
        gen = RngSpec(13).generator()
        with pytest.raises(ArithmeticError, match=r"rho=.*r0="):
            sample_cycles(CANONICAL.replace(r0=1e5), 1_000, gen)
        assert gen.random() == RngSpec(13).generator().random()


class TestEstimateEnergy:
    def test_requires_thousand_cycles(self):
        batch = sample_cycles(CANONICAL, 999, RngSpec(11))
        with pytest.raises(ValueError):
            estimate_energy(batch, CANONICAL)

    def test_all_awake_cycles_save_nothing(self):
        n = 1_000
        x = np.full(n, 500.0)           # below D = 800: never sleeps
        v = np.full(n, 15.0)
        t_off = np.zeros(n)
        t_on = x / v
        batch = CycleBatch(x=x, v=v, t_off=t_off, t_on=t_on,
                           e_off=np.zeros(n), p_save=np.zeros(n))
        est = estimate_energy(batch, CANONICAL)
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
        batch = sample_cycles(CANONICAL, 10_000, RngSpec(15))
        est = estimate_energy(batch, CANONICAL)
        expected = batch.t_off.sum() / (batch.t_off.sum()
                                        + batch.t_on.sum())
        assert est.duty_cycle == pytest.approx(expected)


class TestRunTimeline:
    def test_common_mode_matches_renewal_average(self):
        v = 60.0 * KMH
        duration = 60_000.0
        window = v * duration + CANONICAL.D + 2 * CANONICAL.r0 + 20_000.0
        report = run_timeline(CANONICAL, duration, window, "common",
                              RngSpec(16), v=v)
        degenerate = CANONICAL.replace(a=v * (1 - 1e-9), b=v * (1 + 1e-9))
        target = energy_figures(degenerate).expected_power_saved
        assert report.n_cycles > 1_000
        assert abs(report.cycle_mean_power_saved - target) \
            <= 4.0 * report.cycle_mean_power_se

    def test_report_invariants(self):
        v = 60.0 * KMH
        duration = 10_000.0
        window = v * duration + CANONICAL.D + 2 * CANONICAL.r0 + 20_000.0
        report = run_timeline(CANONICAL, duration, window, "common",
                              RngSpec(17), v=v)
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
        window = v * duration + CANONICAL.D + 2 * CANONICAL.r0 + 20_000.0
        a = run_timeline(CANONICAL, duration, window, "common",
                         RngSpec(18), v=v)
        b = run_timeline(CANONICAL, duration, window, "common",
                         RngSpec(18), v=v)
        assert a == b

    def test_window_guard(self):
        with pytest.raises(WindowTooSmallError):
            run_timeline(CANONICAL, 1e6, 1000.0, "common", RngSpec(19),
                         v=16.0)

    def test_rejects_bad_mode_and_duration(self):
        with pytest.raises(ValueError):
            run_timeline(CANONICAL, 100.0, 1e6, "warp", RngSpec(20))
        with pytest.raises(ValueError):
            run_timeline(CANONICAL, -1.0, 1e6, "common", RngSpec(20), v=16.0)
        with pytest.raises(ValueError):
            run_timeline(CANONICAL, 100.0, 1e6, "common", RngSpec(20))

    def test_heterogeneous_contract(self):
        duration = 400.0
        window = CANONICAL.b * duration + CANONICAL.D \
            + 2 * CANONICAL.r0 + 100.0
        report = run_timeline(CANONICAL, duration, window, "heterogeneous",
                              RngSpec(21))
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
        window = max(CANONICAL.b * duration + CANONICAL.D
                     + 2 * CANONICAL.r0 + 100.0, 10_000.0)
        a = run_timeline(CANONICAL, duration, window, "heterogeneous",
                         RngSpec(22))
        b = run_timeline(CANONICAL, duration, window, "heterogeneous",
                         RngSpec(22))
        assert a == b


def _exact_timeline(params, duration, window, seed, v=None):
    """(n_transitions, sleep_fraction) of the station centred at
    ``window`` on the road ``run_timeline`` draws from ``seed``, by the
    interval-algebra oracle; every vehicle moves at ``v`` if given."""
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
        window = v * duration + CANONICAL.D + 2 * CANONICAL.r0 + 20_000.0
        for seed in (30, 31, 32):
            report = run_timeline(CANONICAL, duration, window, "common",
                                  RngSpec(seed), v=v)
            n, sleep = _exact_timeline(CANONICAL, duration, window, seed,
                                       v=v)
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
        window = p.b * duration + p.D + 2 * p.r0 + 50 * max(1 / p.rho, p.r0)
        for seed in (0, 1, 2):
            report = run_timeline(p, duration, window, "heterogeneous",
                                  RngSpec(seed))
            n, sleep = _exact_timeline(p, duration, window, seed)
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
    """run_timeline's heterogeneous report on the road drawn from
    ``seed`` in the default window, checked against the oracle."""
    window = default_window(params, duration, "heterogeneous")
    snap = sample_snapshot(params, window, RngSpec(seed))
    return _assert_same_run(
        monkeypatch,
        lambda: run_timeline(params, duration, window, "heterogeneous",
                             RngSpec(seed)),
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
