"""Property tests (Hypothesis, an optional test dependency): the tiled
evaluation of tensor grids agrees with an independent per-point reference
(direct sums over every subset pair with high-precision determinant minors)
over admissible sets, near-coincident wavenumbers and grid rectangles out to
|x| = 160."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from hirota_trace import CompiledSolution, Medium, SolitonSet  # noqa: E402
from test_tiled_eval import assert_agree, per_point  # noqa: E402

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
