import math

import pytest
from hypothesis import given, settings, strategies as st

from softdeco import summarize

gammas = st.floats(0.0, 50.0, allow_nan=False)


def test_zero_gamma():
    s = summarize(0.0)
    assert s.overlap == 1.0
    assert s.distinguishability == 0.0
    assert s.visibility_bound == 1.0
    assert s.guess_bound == 0.5


def test_rejects_negative():
    with pytest.raises(ValueError):
        summarize(-1e-6)


def test_frozen_example():
    s = summarize(0.05)
    assert s.overlap == pytest.approx(math.exp(-0.05), rel=1e-15, abs=0)
    assert s.distinguishability == pytest.approx(0.3084843301758, rel=1e-10, abs=0)


@given(gammas)
@settings(max_examples=300)
def test_duality_saturated(gamma):
    s = summarize(gamma)
    assert s.distinguishability**2 + s.visibility_bound**2 == pytest.approx(
        1.0, abs=1e-12
    )


@given(gammas, gammas)
def test_monotone_in_gamma(a, b):
    lo, hi = sorted((a, b))
    sa, sb = summarize(lo), summarize(hi)
    assert sb.distinguishability >= sa.distinguishability
    assert sb.visibility_bound <= sa.visibility_bound
    assert sb.guess_bound >= sa.guess_bound


@given(gammas)
def test_bounds(gamma):
    s = summarize(gamma)
    assert 0.0 <= s.distinguishability <= 1.0
    assert 0.0 < s.visibility_bound <= 1.0
    assert 0.5 <= s.guess_bound <= 1.0


def test_small_gamma_distinguishability_accuracy():
    # expm1 formulation keeps D accurate where 1 - exp(-2G) underflows badly
    g = 1e-12
    s = summarize(g)
    assert s.distinguishability == pytest.approx(math.sqrt(2.0 * g), rel=1e-9, abs=0)
