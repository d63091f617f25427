"""Property tests (Hypothesis, an optional test dependency): the tiled
evaluation of tensor grids agrees with an independent per-point reference
(direct sums over every subset pair with high-precision determinant minors)
over admissible sets, near-coincident wavenumbers and grid rectangles out to
|x| = 160; and the field of amplitudes from 1e-100 to 1e100, scaled by a
translation in x or t, is the translated field."""

import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from hirota_trace import (  # noqa: E402
    CompiledSolution,
    Medium,
    SolitonSet,
    one_soliton_envelope_shift,
)
from test_tiled_eval import assert_agree, per_point  # noqa: E402
from test_trace_engine import TRANSLATION_TOL, translated  # noqa: E402

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)


@st.composite
def soliton_sets(draw):
    """Admissible sets of up to four solitons; the last may sit within
    1e-7..1e-2 of the first in p."""
    n = draw(st.integers(1, 4))
    re = st.floats(0.3, 1.5)
    im = st.floats(-1.0, 1.0)
    p = [complex(draw(re), draw(im)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        gap = draw(st.floats(1e-7, 1e-2))
        angle = draw(st.floats(0.0, 2 * np.pi))
        p[-1] = p[0] + gap * np.exp(1j * angle)
        p[-1] = complex(min(max(p[-1].real, 0.3), 1.5), p[-1].imag)
    a0 = [draw(st.floats(0.5, 2.0))
          * np.exp(1j * draw(st.floats(0, 2 * np.pi))) for _ in range(n)]
    return SolitonSet.from_pairs(zip(p, a0))


@st.composite
def rectangles(draw):
    """Tensor grid axes inside x in [-160, 160], t in [-5, 5]."""
    x0 = draw(st.floats(-160.0, 160.0))
    x1 = draw(st.floats(x0, min(160.0, x0 + 60.0)))
    t0 = draw(st.floats(-5.0, 5.0))
    t1 = draw(st.floats(t0, min(5.0, t0 + 4.0)))
    nx = draw(st.integers(1, 40))
    nt = draw(st.integers(1, 12))
    return np.linspace(x0, x1, nx), np.linspace(t0, t1, nt)


@settings(max_examples=60, deadline=None)
@given(sset=soliton_sets(), axes=rectangles())
def test_tiled_matches_per_point(sset, axes):
    xs, ts = axes
    engine = CompiledSolution(sset, MEDIUM)
    tiled = engine.derivatives(xs[:, None], ts[None, :],
                               check_degenerate=False)
    assert_agree(tiled, per_point(sset, xs[:, None], ts[None, :]))


@st.composite
def extreme_sets(draw):
    """Sets of up to four solitons with log10 |a0| in [-100, 100] and p at
    least 0.05 apart, which keeps kappa_f small."""
    n = draw(st.integers(1, 4))
    p = [complex(draw(st.floats(0.3, 1.5)), draw(st.floats(-1.0, 1.0)))
         for _ in range(n)]
    assume(all(abs(p[i] - p[j]) >= 0.05 for i in range(n) for j in range(i)))
    a0 = [10 ** draw(st.floats(-100.0, 100.0))
          * np.exp(1j * draw(st.floats(0.0, 2 * np.pi))) for _ in range(n)]
    return SolitonSet.from_pairs(zip(p, a0))


@settings(max_examples=60, deadline=None)
@given(sset=extreme_sets(), axis=st.sampled_from("xt"),
       exponent=st.floats(-200.0, 200.0))
def test_translation_at_extreme_amplitudes(sset, axis, exponent):
    shifted, d = translated(sset, axis, exponent)
    # axes of step 1/8 around the first soliton's envelope centre
    first = sset.solitons[0]
    x0 = round(-one_soliton_envelope_shift(first, MEDIUM)
               / (2 * first.p.real) * 8) / 8
    xs = x0 + np.linspace(-8.0, 8.0, 65)[:, None]
    ts = np.linspace(-1.0, 1.0, 17)[None, :]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = CompiledSolution(sset, MEDIUM).psi(xs, ts)
        got = CompiledSolution(shifted, MEDIUM).psi(
            xs - d * (axis == "x"), ts - d * (axis == "t"))
    err = np.abs(got - want) / np.maximum(1, np.abs(want))
    assert err.max() <= TRANSLATION_TOL
