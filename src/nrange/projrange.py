"""Projector-compressed ranges of a rectangular matrix.

An orthonormal frame H between the two dimensions of a rectangular A gives a
lower range (field of values of the compression onto the smaller space) and a
higher range (field of values of the zero-padded embedding into the larger
space); the lower range always sits inside the higher one.

Axis convention for the single-column case: the region is the elliptical
disc with foci 0 and the leading component, whose FULL major axis equals the
2-norm of the whole column (the focal-sum bound), so the full minor axis is
the 2-norm of the trailing components and the leading-component-zero case
degenerates to the disc of radius half that norm.  The sampled sweep of
the padded column fixes this convention; the half-length reading would have
put the degenerate disc at the full trailing norm, which the sweep rules out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fov import fov_boundary, sharp_points
from .geometry import (BoundaryCurve, ConvexBoundary, Disc, Ellipse, Region, Segment,
                       normalize_region, scale_region)
from .linalg import as_matrix, frobenius, pow2_scaled, require_isometry

__all__ = [
    "ProjectorSetting",
    "SharpTransfer",
    "default_frame",
    "higher_range",
    "lower_range",
    "real_imag_blocks",
    "sharp_transfer_report",
    "vector_ellipse",
]


def default_frame(m: int, n: int) -> np.ndarray:
    """The identity-over-zero frame embedding the smaller space in the larger."""
    big, small = max(m, n), min(m, n)
    h = np.zeros((big, small), dtype=complex)
    h[:small, :small] = np.eye(small)
    return h


@dataclass(frozen=True)
class ProjectorSetting:
    """A rectangular matrix paired with an orthonormal frame.

    Tall matrices (m >= n) take an m-by-n frame, wide ones an n-by-m frame;
    passing ``frame=None`` selects the identity-over-zero default.
    """

    matrix: np.ndarray
    frame: np.ndarray
    orientation: str

    def __init__(self, matrix, frame=None):
        arr = as_matrix(matrix)
        m, n = arr.shape
        if frame is None:
            frame = default_frame(m, n)
        hf = require_isometry(frame)
        orientation = "tall" if m >= n else "wide"
        expected = (m, n) if orientation == "tall" else (n, m)
        if hf.shape != expected:
            raise ValueError(
                f"frame must be {expected[0]}x{expected[1]} for a {m}x{n} matrix, "
                f"got {hf.shape[0]}x{hf.shape[1]}"
            )
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "frame", hf)
        object.__setattr__(self, "orientation", orientation)


def lower_range(setting: ProjectorSetting, n_angles: int = 720) -> BoundaryCurve:
    """Field of values of the compression onto the smaller dimension."""
    (a, e), h = pow2_scaled(setting.matrix), setting.frame
    small = h.conj().T @ a if setting.orientation == "tall" else a @ h
    return scale_region(ConvexBoundary(fov_boundary(small, n_angles)), e).curve


def higher_range(setting: ProjectorSetting, n_angles: int = 720) -> BoundaryCurve:
    """Field of values of the embedding into the larger dimension."""
    (a, e), h = pow2_scaled(setting.matrix), setting.frame
    big = a @ h.conj().T if setting.orientation == "tall" else h @ a
    return scale_region(ConvexBoundary(fov_boundary(big, n_angles)), e).curve


def vector_ellipse(a) -> Region:
    """Higher range of a single column: elliptical disc with foci 0 and a[0].

    Degenerates to the segment [0, a[0]] when the trailing part vanishes and
    to the centred disc of radius ||a[1:]||/2 when a[0] = 0 (see the module
    docstring for the axis convention).  Both norms are ``linalg.frobenius``,
    so the ellipse of 2**j a is exactly 2**j times the ellipse of a.
    """
    vec = np.asarray(a, dtype=complex).ravel()
    if vec.size < 2:
        raise ValueError("need a column with at least two components")
    if not np.isfinite(vec).all():
        raise ValueError("entries must be finite")
    lead = complex(vec[0])
    trailing, full = frobenius(vec[1:]), frobenius(vec)
    if trailing == 0.0:
        return normalize_region(Segment(0j, lead))
    if lead == 0:
        return normalize_region(Disc(0j, trailing / 2.0))
    return Ellipse(0j, lead, full)


def real_imag_blocks(a) -> tuple[np.ndarray, np.ndarray]:
    """Hermitian blocks whose spectra are the axis projections of the higher range.

    Under the identity-over-zero frame the real parts of the higher range
    fill the spectral interval of the first block and the imaginary parts
    that of the second; both are assembled from the Hermitian and
    skew-Hermitian parts of the square top block plus the halved remainder.
    """
    arr = as_matrix(a)
    m, n = arr.shape
    if m <= n:
        raise ValueError("needs a strictly tall matrix")
    top = arr[:n, :]
    rest = arr[n:, :]
    herm = (top + top.conj().T) / 2.0
    skew = (top - top.conj().T) / 2.0
    pad = np.zeros((m - n, m - n), dtype=complex)
    re_block = np.block([[herm, rest.conj().T / 2.0], [rest / 2.0, pad]])
    im_block = np.block([[-1j * skew, 1j * rest.conj().T / 2.0], [-1j * rest / 2.0, pad]])
    return re_block, im_block


@dataclass(frozen=True)
class SharpTransfer:
    """One nonzero corner of the higher range and where it reappears."""

    location: complex
    in_spectrum: bool
    sharp_in_lower: bool


def sharp_transfer_report(setting: ProjectorSetting, n_angles: int = 720) -> list[SharpTransfer]:
    """Track every nonzero corner of the higher range.

    Each such corner must be an eigenvalue of the compressed matrix and a
    corner of the lower range as well; the report records both facts so the
    caller can assert them (the converse direction can genuinely fail).
    Corners within 1e-6 of the origin are skipped, and a corner matches an
    eigenvalue or a lower-range corner within 1e-6.
    """
    location_tol = 1e-6
    if setting.orientation != "tall":
        raise ValueError("the transfer report needs the tall orientation")
    a, h = setting.matrix, setting.frame
    hi_curve = higher_range(setting, n_angles)
    lo_curve = lower_range(setting, n_angles)
    eigs = np.linalg.eigvals(h.conj().T @ a)
    lo_sharp = sharp_points(lo_curve)
    report = []
    for corner in sharp_points(hi_curve):
        if abs(corner.location) <= location_tol:
            continue
        in_spectrum = bool(np.min(np.abs(eigs - corner.location)) <= location_tol)
        in_lower = any(
            abs(other.location - corner.location) <= location_tol for other in lo_sharp
        )
        report.append(SharpTransfer(corner.location, in_spectrum, in_lower))
    return report
