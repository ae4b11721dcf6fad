import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sleepnet.numerics import integrate_panel_doubling
from sleepnet.params import (CANONICAL, KMH, Fidelity, ParamError,
                             parse_speed)

from conftest import assert_close


class TestParseSpeed:
    def test_kmh(self):
        assert parse_speed("36kmh") == pytest.approx(10.0)
        assert parse_speed("40 kmh") == pytest.approx(40.0 * KMH)

    def test_mps(self):
        assert parse_speed("16.7mps") == pytest.approx(16.7)

    def test_requires_suffix(self):
        for text in ("40", "40 km/h", "fast", ""):
            with pytest.raises(ParamError) as exc_info:
                parse_speed(text)
            assert exc_info.value.field_name == "speed"


class TestModelParams:
    def test_canonical_values(self):
        assert CANONICAL.D == 800.0
        assert CANONICAL.P0 == 1000.0
        assert CANONICAL.Ec == 10.0
        assert CANONICAL.r0 == 200.0
        assert CANONICAL.rho == 0.01
        assert CANONICAL.a == pytest.approx(40.0 * KMH)
        assert CANONICAL.b == pytest.approx(80.0 * KMH)
        assert CANONICAL.fidelity is Fidelity.CORRECTED

    def test_validation_names_field(self):
        for kwargs, field in (
                (dict(rho=-1.0), "rho"),
                (dict(r0=0.0), "r0"),
                (dict(D=math.inf), "D"),
                (dict(a=5.0, b=2.0), "a"),
                (dict(Ec=-1.0), "Ec")):
            with pytest.raises(ParamError) as exc_info:
                CANONICAL.replace(**kwargs)
            assert exc_info.value.field_name == field

    def test_fidelity_accepts_string(self):
        assert CANONICAL.replace(fidelity="paper").fidelity is Fidelity.PAPER
        with pytest.raises(ValueError):
            CANONICAL.replace(fidelity="exact")

    def test_frozen(self):
        with pytest.raises(Exception):
            CANONICAL.rho = 0.02

    def test_mean_speed(self):
        assert CANONICAL.mean_speed == pytest.approx(60.0 * KMH)

    def test_mean_inv_speed_vs_quadrature(self):
        # E[1/V] for V ~ uniform(a, b), against direct integration
        a, b = CANONICAL.a, CANONICAL.b
        quad = integrate_panel_doubling(lambda v, _: 1.0 / (v * (b - a)),
                                        a, b, abs_tol=1e-10, rel_tol=1e-8)
        assert_close(CANONICAL.mean_inv_speed, quad, rel=1e-9,
                     label="mean inverse speed")

    @given(st.floats(min_value=1.0, max_value=100.0),
           st.floats(min_value=1e-9, max_value=50.0))
    @settings(max_examples=100, deadline=None)
    def test_mean_inv_speed_stable_near_degenerate(self, a, width):
        params = CANONICAL.replace(a=a, b=a + width)
        inv = params.mean_inv_speed
        # bracket: 1/b <= E[1/V] <= 1/a
        assert 1.0 / params.b <= inv <= 1.0 / params.a
