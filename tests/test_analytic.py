import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepnet import analytic
from sleepnet.analytic import (ChGapDistribution, _gap_tail_switch,
                               _laws_tail, _one_law, baseline_power_saved,
                               ch_gap_pdf, cluster_span_decay_rate,
                               energy_figures, expected_ch_gap,
                               gap_tail_rate, grid_energy_figures)
from sleepnet.numerics import QuadratureError, integrate_panel_doubling
from sleepnet.params import CANONICAL, KMH
from sleepnet.simulate import RngSpec, _cycle_energy

from conftest import assert_close
from oracles import (ch_gap_pdf_closed_form, cluster_len_pdf_grid,
                     gap_cdf_decimal, gap_mean_wald_decimal,
                     gap_pdf_composition, gap_pdf_decimal,
                     gap_pdf_per_segment, integrate_panels_one_by_one,
                     plain_batch, trunc_exp_nfold_pdf)


class TestSpanDecayRate:
    def test_fixed_point_equation(self):
        # lambda0 solves lambda = rho * exp(-(rho - lambda) * r0)
        for rho, r0 in ((0.005, 100.0), (0.005, 400.0), (0.02, 200.0),
                        (0.08, 400.0), (0.01, 100.001)):
            lam = cluster_span_decay_rate(rho, r0)
            assert_close(lam, rho * math.exp(-(rho - lam) * r0), rel=1e-9,
                         label=f"decay-rate fixed point rho={rho} r0={r0}")

    def test_branch_selection(self):
        # sparse traffic: rate above rho; dense: below; balanced: equal
        assert cluster_span_decay_rate(0.005, 100.0) > 0.005
        assert cluster_span_decay_rate(0.02, 200.0) < 0.02
        assert cluster_span_decay_rate(0.01, 100.0) == pytest.approx(0.01)

    def test_gap_tail_rate_is_min(self):
        assert gap_tail_rate(0.005, 100.0) == 0.005
        lam = cluster_span_decay_rate(0.02, 200.0)
        assert gap_tail_rate(0.02, 200.0) == lam

    def test_tiny_alpha(self):
        # the nontrivial rate exists but exceeds rho, so the gap tail is rho
        assert gap_tail_rate(0.01, 1e-6) == 0.01


class TestClusterLenPdf:
    @pytest.mark.parametrize("rho,r0", [(0.005, 100.0), (0.01, 200.0),
                                        (0.02, 200.0)])
    def test_matches_convolution_oracle(self, rho, r0):
        # independent route: geometric mixture of n-fold truncated-exp
        # convolutions (incremental trapezoid convolution), conditioned on
        # at least one intra-cluster gap
        params = CANONICAL.replace(rho=rho, r0=r0)
        alpha = rho * r0
        # grid points land exactly on multiples of r0 so the density jump
        # at r0 stays a grid point through every convolution
        per = 512
        grid = np.linspace(0.0, 6.0 * r0, 6 * per + 1)
        dx = grid[1] - grid[0]
        p = math.exp(-alpha)
        base = trunc_exp_nfold_pdf(1, rho, r0, grid)
        base_w = base.copy()
        base_w[np.isclose(grid, r0, atol=1e-9 * r0)] *= 0.5
        nfold = base.copy()
        nfold_w = base_w.copy()
        mix = p / (1.0 - p) * (1.0 - p) * base  # weight of n = 1
        weight = (1.0 - p) * p                  # P(K = n), n = 1
        weight_left = 1.0 - weight / (1.0 - p)
        while weight_left > 1e-12:
            full = np.convolve(nfold_w, base_w)[: len(grid)]
            full -= 0.5 * (nfold_w[0] * base_w + nfold_w * base_w[0])
            nfold = full * dx
            nfold[0] = 0.0
            nfold_w = nfold
            weight *= (1.0 - p)
            mix += weight / (1.0 - p) * nfold
            weight_left -= weight / (1.0 - p)
        # sample off exact multiples of r0: the trapezoid oracle is first
        # order right at those points (both convolution factors jump there)
        for i in range(96, 6 * per, 192):
            ours = cluster_len_pdf_grid(grid[i], rho, r0)
            assert_close(ours[0], mix[i], rel=5e-4,
                         abs_tol=1e-12 * rho,
                         label=f"span pdf at x0={grid[i]:.1f}")

    def test_support_boundary(self):
        # the short-span limit equals the two-vehicle value, confirming the
        # density describes clusters of at least two vehicles
        limit = CANONICAL.rho / math.expm1(CANONICAL.rho_r0)
        values = cluster_len_pdf_grid([0.0, -5.0], CANONICAL.rho,
                                      CANONICAL.r0)
        assert values[0] == pytest.approx(limit)
        assert values[1] == 0.0


class TestChGapPdf:
    def test_zero_at_and_below_r0(self):
        for fid in ("paper", "corrected"):
            params = CANONICAL.replace(fidelity=fid)
            assert ch_gap_pdf(CANONICAL.r0, params) == 0.0
            assert ch_gap_pdf(50.0, params) == 0.0

    def test_first_branch_self_check_passes(self):
        # the closed form on [r0, 2r0) against the composition route,
        # on the 9-cell grid and the fig2 corners
        cells = [(rho, r0) for rho in (0.005, 0.02, 0.08)
                 for r0 in (100.0, 200.0, 400.0)]
        for rho, r0 in cells + [(1e-3, 50.0), (0.2, 200.0)]:
            params = CANONICAL.replace(rho=rho, r0=r0, fidelity="paper")
            for x in np.linspace(r0, 2.0 * r0, 12, endpoint=False)[1:]:
                assert_close(ch_gap_pdf(float(x), params),
                             gap_pdf_composition(float(x), params),
                             abs_tol=1e-10,
                             label=f"first branch rho={rho} r0={r0} "
                                   f"x={x:.1f}")

    def test_batch_matches_pointwise(self):
        # one array call against one call per point, over every branch:
        # below r0, the closed form on [r0, 2r0), the method of steps and
        # the two-pole tail past the switch point
        for rho in (0.005, 0.02, 0.08):
            for r0 in (100.0, 200.0, 400.0):
                for fid in ("paper", "corrected"):
                    params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fid)
                    switch = _gap_tail_switch(params)
                    assert 2.0 * r0 < switch < math.inf
                    xs = np.concatenate([
                        [0.5 * r0, r0], np.linspace(r0, 2.0 * r0, 5)[1:],
                        np.linspace(2.0 * r0, switch, 7, endpoint=False),
                        switch * np.array([1.0, 1.5, 3.0])])
                    batch = ch_gap_pdf(xs, params)
                    single = [ch_gap_pdf(float(x), params) for x in xs]
                    assert isinstance(single[0], float)
                    assert batch.shape == xs.shape
                    for x, b, s in zip(xs, batch, single):
                        assert b == s, (fid, rho, r0, x)

    def test_tail_switch_finite_and_bounded(self):
        # _gap_segment_polys builds one polynomial per r0 up to the switch
        r0 = 200.0
        for alpha in np.geomspace(1e-4, 200.0, 400):
            params = CANONICAL.replace(rho=float(alpha) / r0, r0=r0)
            switch = _gap_tail_switch(params)
            assert math.isfinite(switch), alpha
            assert r0 < switch <= 18.5 * r0, (alpha, switch / r0)

    def test_corrected_is_mixture(self):
        params = CANONICAL
        paper = CANONICAL.replace(fidelity="paper")
        rho, r0 = params.rho, params.r0
        p_single = math.exp(-params.rho_r0)
        for x in (250.0, 500.0, 900.0, 2500.0):
            # the single-vehicle cluster's gap is the inter-cluster one
            single = rho * math.exp(-rho * (x - r0))
            mixed = p_single * single \
                + (1.0 - p_single) * ch_gap_pdf(x, paper)
            assert_close(ch_gap_pdf(x, params), mixed, rel=1e-12,
                         label=f"fidelity mixture at x={x}")

    def test_matches_pure_quadrature_route(self):
        for fid in ("paper", "corrected"):
            params = CANONICAL.replace(fidelity=fid)
            for x in (300.0, 700.0, 1500.0, 3000.0):
                assert_close(ch_gap_pdf(x, params),
                             gap_pdf_composition(x, params),
                             rel=1e-8, label=f"{fid} gap pdf at x={x}")

    def test_matches_decimal_delayed_exponential(self):
        # every branch below the tail switch against the 80-digit series,
        # on the 9-cell grid and at rho*r0 = 1, where the switch is
        # farthest out (about 18 r0)
        cells = [(rho, r0) for rho in (0.005, 0.02, 0.08)
                 for r0 in (100.0, 200.0, 400.0)] + [(0.02, 50.0)]
        for rho, r0 in cells:
            for fid in ("paper", "corrected"):
                params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fid)
                switch = _gap_tail_switch(params)
                xs = np.linspace(1.003 * r0, switch, 60, endpoint=False)
                for x, value in zip(xs, ch_gap_pdf(xs, params)):
                    assert_close(value,
                                 gap_pdf_decimal(float(x), rho, r0, fid),
                                 rel=1e-13,
                                 label=f"{fid} rho={rho} r0={r0} "
                                       f"x/r0={x / r0:.4f}")

    @pytest.mark.parametrize("rho_r0, paper_rel", [(1e-4, 2e-12),
                                                   (1e-3, 2e-13)])
    def test_small_rho_r0_accuracy(self, rho_r0, paper_rel):
        # the paper law subtracts the single-vehicle term from the unscaled
        # polynomial, before the scaling by lam / (1 - e^{-rho r0}); a
        # subtraction after the scaling is off by 2.4e-12 and 2.3e-13 here
        r0 = 100.0
        for fid, rel in (("corrected", 1e-15), ("paper", paper_rel)):
            params = CANONICAL.replace(rho=rho_r0 / r0, r0=r0, fidelity=fid)
            xs = np.linspace(1.003 * r0, _gap_tail_switch(params), 60,
                             endpoint=False)
            for x, value in zip(xs, ch_gap_pdf(xs, params)):
                assert_close(value,
                             gap_pdf_decimal(float(x), rho_r0 / r0, r0, fid),
                             rel=rel, label=f"{fid} rho*r0={rho_r0} "
                                            f"x/r0={x / r0:.4f}")

    @pytest.mark.parametrize("rho_r0, paper_rel", [(1e-4, 4e-12),
                                                   (1e-3, 4e-13),
                                                   (1e-2, 3e-14)])
    def test_small_rho_r0_tail_accuracy(self, rho_r0, paper_rel):
        # past the switch the paper law subtracts rho e^{-rho x} from the
        # tail and divides by 1 - e^{-rho r0}, so the tail's own rounding
        # grows like 1/(rho r0) there (2.5e-12, 2.8e-13 and 1.4e-14 seen)
        r0 = 100.0
        for fid, rel in (("corrected", 1e-15), ("paper", paper_rel)):
            params = CANONICAL.replace(rho=rho_r0 / r0, r0=r0, fidelity=fid)
            switch = _gap_tail_switch(params)
            xs = np.linspace(switch, switch + 30.0 * r0, 25)
            for x, value in zip(xs, ch_gap_pdf(xs, params)):
                assert_close(value,
                             gap_pdf_decimal(float(x), rho_r0 / r0, r0, fid),
                             rel=rel, label=f"{fid} rho*r0={rho_r0} "
                                            f"x/r0={x / r0:.4f}")

    def test_tail_log_ratio_never_positive(self):
        # _laws_tail sums its two poles as one expm1(ln_ratio) term; that
        # needs ln_ratio <= 0 from the switch on, which holds because the
        # negative-residue pole decays faster and ln_ratio is already
        # negative at x = r0
        r0 = 100.0
        for alpha in np.geomspace(1e-4, 700.0, 4000):
            alpha = float(alpha)
            if abs(alpha - 1.0) <= 1e-6:     # the double pole
                continue
            rho = alpha / r0
            lam0 = cluster_span_decay_rate(rho, r0)
            a1, a2 = lam0 / (1.0 - lam0 * r0), rho / (1.0 - alpha)
            pos, rate_pos, neg, rate_neg = ((a1, lam0, a2, rho) if a1 > 0.0
                                            else (a2, rho, a1, lam0))
            assert rate_neg > rate_pos, alpha
            switch = _gap_tail_switch(CANONICAL.replace(rho=rho, r0=r0))
            for x in (r0, switch):
                ln_ratio = math.log(-neg / pos) - (rate_neg - rate_pos) * x
                assert ln_ratio <= 0.0, (alpha, x / r0, ln_ratio)

    def test_tail_expansion_agrees_with_quadrature(self):
        # the composition route and the resolvent-pole tail overlap in a
        # window below the switch point; they must agree there
        for rho, r0 in ((0.005, 100.0), (0.02, 200.0)):
            params = CANONICAL.replace(rho=rho, r0=r0)
            x = 0.9 * _gap_tail_switch(params)
            assert_close(_one_law(_laws_tail, x, params),
                         gap_pdf_composition(x, params),
                         rel=1e-6, label=f"tail overlap rho={rho} r0={r0}")

    @given(st.floats(min_value=201.0, max_value=5000.0))
    @settings(max_examples=30, deadline=None)
    def test_nonnegative(self, x):
        assert ch_gap_pdf(x, CANONICAL) >= 0.0


class TestClosedFormDoubleSum:
    def test_rejects_first_branch_range(self):
        with pytest.raises(ValueError):
            ch_gap_pdf_closed_form(300.0, CANONICAL.replace(fidelity="paper"))

    def test_flagged_against_reference(self):
        # the published double sum is dimensionally inconsistent; the
        # evaluator must flag it rather than silently return it
        params = CANONICAL.replace(fidelity="paper")
        result = ch_gap_pdf_closed_form(500.0, params)
        assert result.flagged
        assert result.reference == pytest.approx(ch_gap_pdf(500.0, params))

    def test_unevaluable_region_returns_nan(self):
        params = CANONICAL.replace(fidelity="paper")
        result = ch_gap_pdf_closed_form(100.0 * CANONICAL.r0, params)
        assert math.isnan(result.value)
        assert result.flagged


class TestChGapDistribution:
    def test_total_mass(self, canonical_dist, canonical_paper_dist):
        assert_close(canonical_dist.total_mass, 1.0, abs_tol=1e-9,
                     label="corrected mass")
        assert_close(canonical_paper_dist.total_mass, 1.0, abs_tol=1e-9,
                     label="paper mass")

    def test_cdf_monotone_and_bounded(self, canonical_dist):
        xs = np.linspace(150.0, 6000.0, 40)
        values = [canonical_dist.cdf(float(x)) for x in xs]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[0] == 0.0
        assert values[-1] <= 1.0 + 1e-9

    def test_integral_weight(self, canonical_dist):
        # P(X > D) via the weighted integral equals 1 - F(D)
        prob = canonical_dist.integral(lo=CANONICAL.D)
        assert_close(prob, 1.0 - canonical_dist.cdf(CANONICAL.D),
                     abs_tol=1e-9, label="tail probability consistency")


_BATCH_CELLS = [(rho, r0) for rho in (0.005, 0.02, 0.08)
                for r0 in (100.0, 200.0, 400.0)] + [(1e-3, 50.0), (0.2, 200.0)]

#: The 9-cell grid plus a sparse cell, rho r0 = 1 and a dense cell.
_LAW_CELLS = _BATCH_CELLS + [(0.02, 50.0)]


@pytest.mark.parametrize("fidelity", ["corrected", "paper"])
@pytest.mark.parametrize("rho,r0", _LAW_CELLS)
def test_pdf_matches_per_segment_oracle(rho, r0, fidelity):
    # one Horner pass over the segment table gives the bits of one
    # polyval call per segment, in a mixed batch, one segment's points, a
    # scalar and a batch with no method-of-steps point
    params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
    switch = _gap_tail_switch(params)
    mixed = np.concatenate([np.linspace(0.5 * r0, 1.2 * switch, 997),
                            [r0, 2.0 * r0, 3.0 * r0, switch]])
    batches = [mixed, np.linspace(2.0 * r0, 2.9 * r0, 5),
               np.array([0.5 * r0, 1.5 * r0, 1.5 * switch]),
               np.float64(2.5 * r0)]
    for xs in batches:
        got = ch_gap_pdf(xs, params)
        want = gap_pdf_per_segment(xs, params)
        assert np.array_equal(got, want), (xs, got, want)


@pytest.mark.parametrize("fidelity", ["corrected", "paper"])
@pytest.mark.parametrize("rho,r0", _BATCH_CELLS)
def test_batched_panels_match_one_by_one(monkeypatch, rho, r0, fidelity):
    # every panel of an integral in one quadrature call, and every panel
    # of a grid's laws, gives the same bits as one call per panel
    params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)

    def outputs():
        dist = ChGapDistribution(params)
        return (energy_figures(params), dist.total_mass,
                dist.integral(lambda xs: 1.0 / xs, lo=params.D),
                dist.integral(lo=1.5 * r0),
                grid_energy_figures([params, CANONICAL]))

    batched = outputs()
    monkeypatch.setattr(analytic, "integrate_panel_doubling",
                        integrate_panels_one_by_one)
    assert outputs() == batched


#: Cells with every kind of outcome: ok, rho r0 = 1, no sleep (D past
#: x_max), the law's panel edges overflowing with E[X] finite (rho r0 =
#: 695), E[X] overflowing too (699) and rho r0 past RHO_R0_LIMIT.
_GRID_CELLS = [(0.02, 200.0, 800.0), (0.02, 50.0, 800.0), (0.5, 1.0, 800.0),
               (1e-5, 6.95e7, 800.0), (0.01, 200.0, 1e9),
               (1e-5, 6.99e7, 800.0), (1.0, 1000.0, 800.0),
               (0.08, 400.0, 150.0)]


def _figures_alone(params):
    try:
        return energy_figures(params)
    except ArithmeticError as exc:
        return str(exc)


def _grid_outcomes(cells):
    return [str(f) if isinstance(f, Exception) else f
            for f in grid_energy_figures(cells)]


@pytest.mark.parametrize("fidelity", ["corrected", "paper"])
def test_grid_matches_cells_alone(fidelity):
    # one batch for all cells gives each the figures, or the error, of
    # energy_figures on its own
    cells = [CANONICAL.replace(rho=rho, r0=r0, D=D, fidelity=fidelity)
             for rho, r0, D in _GRID_CELLS]
    got = _grid_outcomes(cells)
    assert got == [_figures_alone(params) for params in cells]
    assert sum(isinstance(g, str) for g in got) == 3


def test_grid_falls_back_to_one_cell_at_a_time(monkeypatch):
    # a batched quadrature that fails makes every cell run on its own,
    # so each failure lands on its own cell
    cells = [CANONICAL.replace(rho=rho, r0=r0, D=D)
             for rho, r0, D in _GRID_CELLS]
    calls = []

    def fail_first_batch(fv, lo, hi, **tolerances):
        calls.append(np.size(lo))
        if len(calls) == 1:
            raise QuadratureError("integrand returned a non-finite value")
        return integrate_panel_doubling(fv, lo, hi, **tolerances)

    monkeypatch.setattr(analytic, "integrate_panel_doubling",
                        fail_first_batch)
    got = _grid_outcomes(cells)
    monkeypatch.undo()
    assert got == [_figures_alone(params) for params in cells]
    assert len(calls) > 1 and calls[0] > max(calls[1:])


class TestExpectations:
    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    def test_mean_matches_wald_decimal(self, fidelity):
        for rho, r0 in _LAW_CELLS:
            params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
            assert_close(expected_ch_gap(params),
                         gap_mean_wald_decimal(rho, r0, fidelity), rel=1e-14,
                         label=f"{fidelity} E[X] at rho={rho} r0={r0}")

    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    def test_mean_matches_quadrature(self, fidelity):
        # the closed form against the first moment of the integrated law
        for rho, r0 in _BATCH_CELLS[:9]:
            params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
            dist = ChGapDistribution(params)
            assert_close(dist.integral(lambda xs: xs),
                         expected_ch_gap(params, dist), rel=1e-9,
                         label=f"{fidelity} E[X] quadrature rho={rho} r0={r0}")

    @pytest.mark.parametrize("rho,r0,match", [
        (2.0, 400.0, "exceeds the limit 700"),     # rho r0 = 800
        (1e-5, 7e7, "exceeds the limit 700"),      # 700 plus rounding
        (1e-5, 6.99e7, "E.X. exceeds the largest double"),
    ])
    @pytest.mark.parametrize("fidelity", ["corrected", "paper"])
    def test_mean_raises_named_error(self, rho, r0, match, fidelity):
        params = CANONICAL.replace(rho=rho, r0=r0, fidelity=fidelity)
        with pytest.raises(ArithmeticError, match=match) as info:
            expected_ch_gap(params)
        assert f"rho={rho!r}" in str(info.value)

    def test_paper_mean_exceeds_span_only_regime(self, canonical_paper_dist):
        paper = CANONICAL.replace(fidelity="paper")
        mean = expected_ch_gap(paper, canonical_paper_dist)
        # conditioning on >= 2 vehicles lengthens the average span
        assert mean > math.exp(CANONICAL.rho_r0) / CANONICAL.rho

    def test_sleep_time_degenerate_speed_reduction(self):
        # a ~ b = v: E[T_off] = E[X - D | X > D] / v
        v = 60.0 * KMH
        params = CANONICAL.replace(a=v * (1 - 1e-9), b=v * (1 + 1e-9))
        dist = ChGapDistribution(params)
        t_off = energy_figures(params).expected_sleep_time
        excess = dist.integral(lambda xs: xs - params.D, lo=params.D)
        prob = dist.integral(lo=params.D)
        assert_close(t_off, excess / prob / v, rel=1e-6,
                     label="degenerate-speed sleep time")

    def test_cycle_power_saved_branches(self):
        x = np.array([700.0, 1000.0])
        t_off, t_on, e_off, p_save = _cycle_energy(x, 16.0, CANONICAL)
        assert t_off[0] == 0.0 and e_off[0] == 0.0 and p_save[0] == 0.0
        expected = ((x[1] - CANONICAL.D) / 16.0 * CANONICAL.P0
                    - CANONICAL.Ec) / (x[1] / 16.0)
        assert p_save[1] == pytest.approx(expected)
        assert t_off[1] + t_on[1] == pytest.approx(x[1] / 16.0)

    def test_sleep_probability_at_ceiling_matches_decimal_cdf(self):
        # at rho*r0 = 32, F(D) ~ 4e-13: 1 - P{X>D} keeps its digits only
        # when P{X>D} is taken as 1 - F(D), not integrated over the tail
        params = CANONICAL.replace(rho=0.08, r0=400.0)
        figures = energy_figures(params)
        assert_close(1.0 - figures.prob_sleep,
                     gap_cdf_decimal(params.D, params.rho, params.r0),
                     rel=1e-3, label="F(D) at rho=0.08 r0=400")

    def test_sleep_probability_clamped_near_truncation(self):
        # the truncated mass exceeds 1 by quadrature error, so 1 - F(D)
        # must be clamped to stay a probability
        for fid in ("paper", "corrected"):
            params = CANONICAL.replace(fidelity=fid)
            dist = ChGapDistribution(params)
            for frac in (0.5, 0.9):
                at_d = params.replace(D=frac * dist.x_max)
                figures = energy_figures(at_d)
                assert 0.0 <= figures.prob_sleep <= 1.0, (fid, frac)
                assert figures.expected_sleep_time is None, (fid, frac)

    def test_no_sleep_opportunity(self):
        figures = energy_figures(CANONICAL.replace(D=1e9))
        assert figures.prob_sleep == 0.0
        assert figures.expected_sleep_time is None

    def test_power_saved_upper_bound(self, canonical_dist):
        power = energy_figures(CANONICAL).expected_power_saved
        prob = canonical_dist.integral(lo=CANONICAL.D)
        assert 0.0 < power < CANONICAL.P0 * prob

    def test_energy_figures_consistent(self, canonical_dist):
        # against the defining integrals, each taken over (D, x_max) here
        params, dist = CANONICAL, canonical_dist
        D = params.D
        figures = energy_figures(params)
        prob = dist.integral(lo=D)
        inv = dist.integral(lambda xs: 1.0 / xs, lo=D)
        excess = dist.integral(lambda xs: xs - D, lo=D)
        assert figures.expected_gap == pytest.approx(
            expected_ch_gap(params, dist))
        assert figures.expected_power_saved == pytest.approx(
            params.P0 * prob - (params.P0 * D
                                + params.Ec * params.mean_speed) * inv)
        assert figures.expected_sleep_time == pytest.approx(
            params.mean_inv_speed * excess / prob)
        assert figures.mean_speed == params.mean_speed

    def test_baseline_matches_quadrature(self):
        # independent route: integrate the exponential gap law directly
        params = CANONICAL
        rho, D = params.rho, params.D

        def integrand(x, _panel):
            return rho * np.exp(-rho * x) * (
                params.P0 * (x - D) - params.Ec * params.mean_speed) / x

        direct = sum(integrate_panel_doubling(integrand, lo, hi,
                                              abs_tol=1e-10, rel_tol=1e-8)
                     for lo, hi in ((D, D + 4000.0),
                                    (D + 4000.0, D + 20000.0)))
        assert_close(baseline_power_saved(params), direct, rel=1e-6,
                     label="baseline power saved")

    def test_mean_of_cycle_power_matches_expectation(self, canonical_dist):
        # Monte Carlo of the per-cycle formula against the closed form
        values = plain_batch(CANONICAL, 50_000, RngSpec(17)).p_save
        se = values.std(ddof=1) / math.sqrt(len(values))
        target = energy_figures(CANONICAL).expected_power_saved
        assert abs(values.mean() - target) <= 4.0 * se
