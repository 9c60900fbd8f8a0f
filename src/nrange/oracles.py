"""Independent verification engines: Monte Carlo samplers and power iteration.

These share no code with the closed-form region modules; tests and the
``verify`` command use them as the second route when checking every radius
or boundary.  Each engine takes a nonempty matrix of finite entries (a vector
is one column) and raises ``ValueError`` otherwise.  It works on the matrix
times 2**-e, where 2**e is the power of two just above its largest real or
imaginary part, and multiplies its results by 2**e.  Both scalings are exact
and neither overflows, subnormal entries included, so squared magnitudes stay
in range at any finite scale; a result beyond the float range comes back as
inf.

The samplers draw from ``numpy.random.default_rng(seed)`` in blocks of
10,000 samples, so memory stays flat in the sample count, in a fixed order
per block: every real part of its x vectors, then every imaginary part, then
the same two for y (``mc_rect_sup`` only); a call's first k * 10,000 samples
are the k * 10,000-sample call's.  Each sample is a Gaussian vector
direction, that is a uniform unit vector once normalised; the normalisation
is applied to the sampled products, N scalars, rather than to the N vectors.

A call of more than one block starts one helper thread, which draws block
i + 1 while the calling thread reduces block i, and joins it before it
returns.  The helper never runs more than one block ahead, so two blocks of
normals are held at a time.  The stream is unchanged, and reports are
bitwise the same as drawing and reducing in turn on one thread: the
generator is used by one thread at a time, the caller's draws of block 0
before the helper starts, then only the helper's, in the documented order.
Every product, reduction and floating-point check stays on the calling
thread, under its ``numpy.errstate``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["McReport", "mc_fov_samples", "mc_rect_sup", "power_sigma_max"]

# samples drawn and reduced at a time: it bounds a call's memory, and a call
# of up to 10,000 samples (the regression fixture's count) is one block
_BLOCK = 10_000


@dataclass(frozen=True)
class McReport:
    """Result of one sampling run; reproducible bitwise per seed.

    ``points`` holds the sampled forms y* A x (x* A x for the field of
    values) in draw order, each computed from the raw Gaussian draws and then
    divided by |x| |y|; ``sup_abs`` is the largest modulus among them.
    """

    n_samples: int
    sup_abs: float
    seed: int
    points: Optional[np.ndarray] = None


def _scaled(a) -> tuple[np.ndarray, int]:
    """Checked complex 2-d array times 2**-e, and e, where 2**e is the power
    of two just above its largest real or imaginary part (e = 0 for the zero
    matrix)."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"expected a nonempty matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    # the parts stay finite where the modulus can overflow, and ldexp cannot
    # overflow where dividing by a subnormal peak would
    exp = int(np.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))[1])
    scaled = np.empty_like(arr)
    scaled.real, scaled.imag = np.ldexp(arr.real, -exp), np.ldexp(arr.imag, -exp)
    return scaled, exp


def _unscaled(x, exp: int):
    """x times 2**exp, inf where that leaves the float range."""
    with np.errstate(over="ignore"):
        return np.ldexp(x, exp)


def _require_ints(minimum: int, /, **values) -> None:
    """``linalg.require_ints`` restated, since this module imports no nrange code."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if value < minimum:
            bound = "non-negative" if minimum == 0 else f">= {minimum}"
            raise ValueError(f"{name} must be {bound}, got {value}")


def _sample_forms(
    arr: np.ndarray, exp: int, n_samples: int, seed: int, quadratic: bool, keep_points: bool
) -> McReport:
    """Sample y* A x (x* A x when ``quadratic``) in real arithmetic.

    ``arr`` is A times 2**-exp.  The rows of A x are the one real block
    product [x_re | x_im] [[T_re, T_im], [-T_im, T_re]] with T = A^T.  Each
    block of ``_BLOCK`` samples draws x as ``(2, b, n)`` normals, real parts
    first, then y alike.  Only the forms are divided by |x| |y|, and the
    square root is taken once, at the largest squared modulus of all blocks.

    Block 0 is drawn on the calling thread, every later block on one helper
    thread, into the other of two buffers, while the caller reduces the
    block before it; the two meet at ``turn`` once per block, so the helper
    is never more than one block ahead.
    """
    _require_ints(1, n_samples=n_samples)
    _require_ints(0, seed=seed)
    m, n = arr.shape
    rng = np.random.default_rng(seed)
    starts = range(0, n_samples, _BLOCK)
    width = n if quadratic else n + m
    buffers = [np.empty(2 * min(_BLOCK, n_samples) * width) for _ in starts[:2]]

    def draw(i):
        b, buf = min(_BLOCK, n_samples - starts[i]), buffers[i % 2]
        x = rng.standard_normal((2, b, n), out=buf[:2 * b * n].reshape(2, b, n))
        if quadratic:
            return x, x
        return x, rng.standard_normal((2, b, m), out=buf[2 * b * n:2 * b * width].reshape(2, b, m))

    drawn = [draw(0)]  # the helper appends, the caller pops
    turn = threading.Barrier(2)

    def draw_ahead():
        try:
            for i in range(1, len(starts)):
                drawn.append(draw(i))
                turn.wait()
        except BaseException as exc:  # the caller raises it, unless it stopped first
            drawn.append(exc)
            turn.abort()

    t = arr.T
    op = np.block([[t.real, t.imag], [-t.imag, t.real]])
    points = np.empty(n_samples, dtype=complex) if keep_points else None
    peaks = []
    # a one-block call has nothing to draw ahead
    helper = threading.Thread(target=draw_ahead) if len(starts) > 1 else None
    if helper:
        helper.start()
    try:
        for lo in starts:
            if lo:
                turn.wait()  # this block is drawn, and the helper starts the next
            x, y = drawn.pop(0)
            b = x.shape[1]
            ax = np.concatenate((x[0], x[1]), axis=1) @ op
            ax_re, ax_im = ax[:, :m], ax[:, m:]
            re = np.einsum("ij,ij->i", y[0], ax_re) + np.einsum("ij,ij->i", y[1], ax_im)
            im = np.einsum("ij,ij->i", y[0], ax_im) - np.einsum("ij,ij->i", y[1], ax_re)
            norm_sq = np.einsum("kij,kij->i", x, x)
            norm_sq = norm_sq * norm_sq if quadratic else norm_sq * np.einsum("kij,kij->i", y, y)
            norm_sq[norm_sq == 0] = 1.0
            peaks.append(np.max((re * re + im * im) / norm_sq))
            if keep_points:
                inv = 1.0 / np.sqrt(norm_sq)
                points.real[lo:lo + b] = _unscaled(re * inv, exp)
                points.imag[lo:lo + b] = _unscaled(im * inv, exp)
    except threading.BrokenBarrierError:
        raise drawn[-1] from None
    finally:
        if helper:
            turn.abort()
            helper.join()
    # np.max, unlike max(), carries a NaN peak through to sup_abs
    sup_abs = float(_unscaled(np.sqrt(np.max(peaks)), exp))
    return McReport(n_samples=n_samples, sup_abs=sup_abs, seed=seed, points=points)


def mc_rect_sup(a, n_samples: int, seed: int, keep_points: bool = False) -> McReport:
    """Sample y* A x over independent uniform unit pairs (x, y).

    Each block of 10,000 samples draws x real parts, x imaginary parts, y
    real parts, y imaginary parts, so reports are stable regression fixtures
    for a given seed; a call's first k * 10,000 points are the
    k * 10,000-sample call's.
    """
    arr, exp = _scaled(a)
    return _sample_forms(arr, exp, n_samples, seed, quadratic=False, keep_points=keep_points)


def mc_fov_samples(a, n_samples: int, seed: int) -> McReport:
    """Sample the quadratic form x* A x over uniform unit vectors.

    Each block of 10,000 samples draws x real parts, then x imaginary parts;
    a call's first k * 10,000 points are the k * 10,000-sample call's, and
    every point is kept.
    """
    arr, exp = _scaled(a)
    if np.ndim(a) != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("mc_fov_samples needs a square matrix")
    return _sample_forms(arr, exp, n_samples, seed, quadratic=True, keep_points=True)


def power_sigma_max(a, n_iters: int, seed: int) -> float:
    """Spectral-norm estimate by power iteration on the Gram matrix.

    The Rayleigh quotient never exceeds the true value, so the estimate is a
    certified lower bound; 200 iterations resolve well-separated spectra to
    better than 1e-8 relative.  The iteration runs on a scaled by a power of
    two and scales the estimate back, so the Gram matrix neither overflows
    nor underflows at any finite scale; an estimate beyond the float range
    is inf.
    """
    arr, exp = _scaled(a)
    _require_ints(1, n_iters=n_iters)
    _require_ints(0, seed=seed)
    m, n = arr.shape
    gram = arr.conj().T @ arr if n <= m else arr @ arr.conj().T
    dim = gram.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    for _ in range(n_iters):
        w = gram @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
    rho = float(np.real(v.conj() @ gram @ v))
    return float(_unscaled(np.sqrt(max(rho, 0.0)), exp))
