import numpy as np
import pytest

from nrange.linalg import times_pow2
from nrange.svgplot import _Canvas, _fmt


def per_point_coords(canvas, zs):
    """The polyline coordinates formatted one value at a time."""
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (canvas.px(z) for z in zs))


@pytest.mark.parametrize("count", [0, 1, 720])
def test_polyline_bytes_match_per_point_formatting(count):
    canvas = _Canvas(1.3)
    rng = np.random.default_rng(count)
    zs = list(rng.standard_normal(count) + 1j * rng.standard_normal(count))
    if count:
        # points mapped to a pixel coordinate just below zero print as
        # "-0.000000" before the sign is dropped
        edge = times_pow2(400.0 / canvas.scale, canvas.e)
        zs[:3] = [complex(-edge - 1e-13, edge + 1e-13), complex(-0.0, -0.0), complex(-edge, 0.0)]
        assert "-0.000000" in f"{canvas.px(zs[0])[0]:.6f}"
    canvas.polyline(np.array(zs, dtype=complex), 'stroke="#000000"')
    expected = f'<polygon points="{per_point_coords(canvas, zs)}" fill="none" stroke="#000000"/>'
    assert canvas.parts[-1] == expected
