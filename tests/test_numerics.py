import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepnet import numerics
from sleepnet.numerics import (QuadratureError, exp_integral_e1,
                               integrate_panel_doubling)

from conftest import assert_close, rng_for_test
from oracles import (compensated_sum, integrate_every_node,
                     trunc_exp_nfold_pdf, trunc_exp_pdf)


def _nodes_only(f):
    """An integrand of the nodes alone, as ``integrate_panel_doubling``
    calls it: with each node's panel index too."""
    return lambda x, _panel: f(x)


class TestIntegratePanelDoubling:
    def test_smooth_integral(self):
        value = integrate_panel_doubling(
            lambda x, _: np.sin(x), 0.0, math.pi,
            abs_tol=1e-12, rel_tol=1e-12)
        assert_close(value, 2.0, rel=1e-10, label="sine arch")

    def test_noise_plateau_still_returns(self):
        rng = rng_for_test(1)

        def noisy(x, _panel):
            x = np.asarray(x)
            jitter = rng.normal(scale=1e-13, size=x.shape)
            return np.exp(-x) + jitter

        value = integrate_panel_doubling(noisy, 0.0, 5.0,
                                         abs_tol=1e-15, rel_tol=1e-15)
        assert_close(value, -math.expm1(-5.0), rel=1e-9,
                     label="noisy exponential")

    @staticmethod
    def _mixed(x, _panel=None):
        # [0, 1]: smooth; [10, 15]: exponential plus a deterministic
        # 1e-9 jitter, which stops the defect at its noise floor;
        # [20, 21]: a narrow peak that needs more than 1024 points
        jitter = 1e-9 * np.sin(1e9 * x) * np.cos(3.7e8 * x)
        return np.where(x < 5.0, np.sin(x),
                        np.where(x < 17.0, np.exp(-x) + jitter,
                                 1.0 / (1e-3 + (x - 20.4) ** 2)))

    def test_batch_matches_single_panels(self):
        lo, hi = np.array([0.0, 10.0, 20.0]), np.array([1.0, 15.0, 21.0])
        tol = dict(abs_tol=1e-15, rel_tol=1e-13)
        batch = integrate_panel_doubling(self._mixed, lo, hi, **tol)
        levels = []
        for k in range(3):
            nodes = []

            def counted(x, panel):
                nodes.append(len(x))
                return self._mixed(x)

            single = integrate_panel_doubling(counted, lo[k], hi[k], **tol)
            assert batch[k] == single, k
            # 9 nodes, then only the n/2 new midpoints of each level n
            assert nodes == [9] + [4 << i for i in range(1, len(nodes))]
            levels.append(8 << (len(nodes) - 1))
        assert len(set(levels)) == 3 and levels[2] > 1024, levels

    def test_integrand_sees_each_nodes_panel(self):
        # the panels converge at different levels, and every call names
        # each node's own panel in lo/hi
        lo, hi = np.array([0.0, 10.0, 20.0]), np.array([1.0, 15.0, 21.0])
        seen = []

        def f(x, panel):
            assert np.all((lo[panel] <= x) & (x <= hi[panel]))
            seen.append(set(panel.tolist()))
            return self._mixed(x)

        integrate_panel_doubling(f, lo, hi, abs_tol=1e-15, rel_tol=1e-13)
        assert seen[0] == {0, 1, 2} and seen[-1] == {2}

    @pytest.mark.parametrize("n", [8, 64, 2048])
    def test_nodes_equal_linspace(self, n):
        # random panels over many magnitudes, then batches where one
        # step is subnormal or zero: np.linspace's own nodes, not exact
        rng = rng_for_test(2)
        lo = rng.uniform(-1.0, 1.0, 50) * 10.0 ** rng.integers(-12, 8, 50)
        hi = lo + rng.uniform(0.0, 1.0, 50) * 10.0 ** rng.integers(-9, 8,
                                                                   50)
        hi[0] = np.nextafter(lo[0], math.inf)
        lo[1], hi[1] = -1.0, 1e-17     # lo + (hi - lo) is 0, not hi
        xs, exact = numerics._panel_nodes(lo, hi, n)
        assert exact
        assert np.array_equal(xs, np.linspace(lo, hi, n + 1, axis=1))
        half, _ = numerics._panel_nodes(lo, hi, n // 2)
        assert np.array_equal(xs[:, ::2], half)
        for tiny in (1e-310, 5e-324):
            lo2, hi2 = np.append(lo, 0.0), np.append(hi, tiny)
            xs, exact = numerics._panel_nodes(lo2, hi2, n)
            assert not exact and xs.flags.c_contiguous
            assert np.array_equal(xs, np.linspace(lo2, hi2, n + 1, axis=1))

    def test_matches_every_node_reference(self):
        # the midpoint-only levels against fresh np.linspace levels, bit
        # for bit, on the mixed panels and on a batch of random panels
        # with two panels whose steps are subnormal and zero, which put
        # their first levels on np.linspace's fallback nodes
        tol = dict(abs_tol=1e-15, rel_tol=1e-13)
        lo, hi = np.array([0.0, 10.0, 20.0]), np.array([1.0, 15.0, 21.0])
        assert np.array_equal(
            integrate_panel_doubling(self._mixed, lo, hi, **tol),
            integrate_every_node(self._mixed, lo, hi, **tol))
        rng = rng_for_test(3)
        lo = np.append(rng.uniform(-3.0, 3.0, 20), [0.0, 0.0])
        hi = np.append(lo[:-2] + rng.uniform(0.01, 4.0, 20),
                       [1e-310, 5e-324])
        assert np.array_equal(
            integrate_panel_doubling(_nodes_only(np.cos), lo, hi, **tol),
            integrate_every_node(_nodes_only(np.cos), lo, hi, **tol))

    def test_subnormal_step_evaluates_every_node(self):
        # np.linspace's nodes there do not nest from level to level
        sizes = []

        def ones(x, _panel):
            sizes.append(len(x))
            return np.ones_like(x)

        value = integrate_panel_doubling(ones, 0.0, 1e-310, abs_tol=0.0,
                                         rel_tol=1e-12)
        assert sizes == [9, 17]
        assert value == pytest.approx(1e-310, rel=1e-12)

    def test_scalar_call_returns_float(self):
        value = integrate_panel_doubling(_nodes_only(np.exp), 0.0, 1.0,
                                         abs_tol=1e-12, rel_tol=1e-12)
        assert type(value) is float

    def test_empty_panel_rejected(self):
        with pytest.raises(ValueError):
            integrate_panel_doubling(_nodes_only(np.exp), [0.0, 2.0],
                                     [1.0, 2.0], abs_tol=1e-12,
                                     rel_tol=1e-12)

    def test_unconverged_panel_raises(self):
        # the constant panel converges at once; the steep sine cannot meet
        # the tolerance within 32 points, before the noise-floor test
        def f(x, _panel):
            return np.where(x < 5.0, 1.0, 1e6 * np.sin(x))

        with pytest.raises(QuadratureError) as info:
            integrate_panel_doubling(f, [0.0, 10.0], [1.0, 12.0],
                                     abs_tol=1e-12, rel_tol=0.0,
                                     max_points=32)
        assert type(info.value.estimate) is float
        assert str(info.value) == ("panel refinement exhausted (best "
                                   f"estimate {info.value.estimate!r})")

    def test_error_message_prints_plain_float(self):
        err = QuadratureError("no luck", np.float64("nan"))
        assert str(err) == "no luck (best estimate nan)"
        assert type(err.estimate) is float


class TestExpIntegralE1:
    def test_against_defining_integral(self):
        # independent route: E1(z) = int_z^inf exp(-t)/t dt, cut at z + 60
        # where the dropped tail is below e^-60 relative
        for z in (0.05, 0.3, 1.0, 2.5, 8.0, 20.0):
            edges = np.geomspace(z, z + 60.0, 24)
            quad = sum(integrate_panel_doubling(
                lambda t, _: np.exp(-t) / t, lo, hi, abs_tol=1e-18,
                rel_tol=1e-10) for lo, hi in zip(edges, edges[1:]))
            assert_close(exp_integral_e1(z), quad, rel=1e-6,
                         label=f"E1({z})")

    def test_recurrence_derivative(self):
        # d/dz E1(z) = -exp(-z)/z, checked by central differences
        for z in (0.5, 2.0, 6.0):
            h = 1e-6 * z
            slope = (exp_integral_e1(z + h) - exp_integral_e1(z - h)) / (2 * h)
            assert_close(slope, -math.exp(-z) / z, rel=1e-7,
                         label=f"E1'({z})")

    def test_bounds(self):
        # e^{-z}/(z+1) < E1(z) < e^{-z}/z for z > 0
        for z in (0.1, 1.0, 5.0, 50.0, 500.0):
            e1 = exp_integral_e1(z)
            assert math.exp(-z) / (z + 1.0) < e1 < math.exp(-z) / z

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            exp_integral_e1(0.0)


class TestCompensatedSum:
    def test_alternating_series_beats_naive(self):
        # sum_k (-1)^k / (k+1) = ln 2; permuted large/small mix
        terms = [(-1.0) ** k / (k + 1) for k in range(10_000)]
        partial = sum(1.0 / (k + 1) for k in range(10_000, 2 * 10_000))
        total, canc = compensated_sum(terms)
        expected = sum(reversed(terms))
        assert_close(total, expected, abs_tol=1e-12, label="alternating sum")
        assert canc > 1.0

    def test_cancellation_index_flags_cancellation(self):
        _, canc_mild = compensated_sum([1.0, 2.0, 3.0])
        _, canc_bad = compensated_sum([1e16, 1.0, -1e16])
        assert canc_mild == pytest.approx(1.0)
        assert canc_bad > 1e15

    def test_empty_and_zero(self):
        assert compensated_sum([]) == (0.0, 1.0)
        assert compensated_sum([0.0, 0.0]) == (0.0, 1.0)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50),
           st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_permutation_invariance(self, values, rnd):
        base, _ = compensated_sum(values)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        permuted, _ = compensated_sum(shuffled)
        scale = max(sum(abs(v) for v in values), 1e-300)
        assert abs(base - permuted) <= 4 * np.finfo(float).eps * scale


class TestTruncExp:
    def test_pdf_mass_one(self):
        rho, r0 = 0.01, 200.0
        mass = integrate_panel_doubling(
            lambda x, _: trunc_exp_pdf(x, rho, r0), 0.0, r0, abs_tol=1e-10,
            rel_tol=1e-8)
        assert_close(mass, 1.0, rel=1e-10, label="truncated-exp mass")

    def test_pdf_zero_outside(self):
        assert trunc_exp_pdf(np.array([-1.0, 250.0]), 0.01, 200.0).tolist() \
            == [0.0, 0.0]

    def test_nfold_mass_and_support(self):
        # n=2, rho*r0=1: support (0, 2*r0], mass 1
        rho, r0 = 0.005, 200.0
        grid = np.linspace(0.0, 2 * r0, 4097)
        pdf = trunc_exp_nfold_pdf(2, rho, r0, grid)
        mass = float(np.sum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)))
        assert_close(mass, 1.0, abs_tol=1e-6, label="2-fold mass")
        assert pdf[0] == 0.0
        assert np.all(pdf >= 0.0)

    def test_nfold_matches_sampling_oracle(self):
        # independent generative check: histogram of sampled sums
        rho, r0, n = 0.01, 200.0, 3
        rng = rng_for_test(3)
        q = -math.expm1(-rho * r0)
        u = rng.uniform(size=(200_000, n))
        samples = np.sum(-np.log1p(-u * q) / rho, axis=1)
        grid = np.linspace(0.0, n * r0, 4097)
        pdf = trunc_exp_nfold_pdf(n, rho, r0, grid)
        counts, edges = np.histogram(samples,
                                     bins=np.arange(0.0, n * r0 + 1.0, 25.0))
        cum = np.concatenate(([0.0], np.cumsum(
            0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
        bin_mass = np.diff(np.interp(edges, grid, cum))
        expected = bin_mass * len(samples)
        keep = expected >= 50.0
        z = (counts[keep] - expected[keep]) / np.sqrt(expected[keep])
        assert np.mean(np.abs(z) <= 3.0) >= 0.99

    def test_nfold_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            trunc_exp_nfold_pdf(2, 0.01, 200.0, np.linspace(1.0, 100.0, 65))
        with pytest.raises(ValueError):
            trunc_exp_nfold_pdf(2, 0.01, 200.0, np.linspace(0.0, 3200.0, 65))
