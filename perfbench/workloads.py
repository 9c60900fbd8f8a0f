"""The four benchmark workloads: inputs, requests and correctness gates.

Every input is drawn with numpy from ``(seed, workload, request index)``:
complex Gaussian matrices whose singular values are pairwise separated, so
the power oracle converges and membership values sit clear of regime
boundaries.  Size and case schedules are fixed functions of the request
index, so every seed runs the same mix and only the matrix entries change
(the witness workloads also share their spectra between seeds; see
``SPECTRA_SEED``).

Why these four:

* ``sweep`` -- ``compute --set fov|wl|wh`` done in-process.  Nearly all of
  the time is the per-angle ``eigh`` loop of the supporting-line sweep; small
  n (9 in 10 requests, n <= 8) is bound by per-call overhead and large n
  (n = 20, 40, 60) by arithmetic, so a stacked sweep shows at both ends.  It
  never touches rankk or the oracles.
* ``witness-member`` -- values inside or on the boundary of non-empty rank-k
  regions.  The witness search certifies these on its first, deterministic
  start, so time is per-call validation and Python overhead; work moved
  ahead of the restart loop shows up here as a loss.
* ``witness-nonmember`` -- values outside the region (past the outer radius,
  inside a ring's hole, or at an index in the empty regime).  Every restart
  runs until it stalls: the path a batched multi-start search targets.
* ``oracle-check`` -- one closed form per request checked by its
  independent route (power iteration and Monte Carlo sampling, the
  norm-range disc union, the projector bounds).  Time goes to vectorised
  sampling and rectrange's per-B loop; sweep and witness search are idle.

Each workload's ``cycles`` whole cycles of ``cycle`` requests make the set
an untraced run times: at least 200 requests, the same mix in every run.

``execute`` is the timed request; ``check`` recomputes the answer with plain
numpy outside the timed interval and returns ``(ok, facts)``, where facts
are counts the traced run aggregates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import nrange
from nrange import fov, geometry, io, linalg, oracles, projrange, rankk, rectrange, svgplot
from nrange.reference import TALL_EXAMPLE

ANGLES = 720
WITNESS_TOL = 1e-6
MC_SAMPLES = 100_000
POWER_ITERS = 200
UNION_SAMPLES = 2000
PROJECTOR_TRIALS = 100


def separated_matrix(rng: np.random.Generator, m: int, n: int,
                     rel_gap: float = 0.05, tries: int = 16) -> np.ndarray:
    """Complex Gaussian m x n matrix with pairwise-separated singular values.

    Adjacent singular values, and the smallest one, stay ``gap * sigma_1``
    apart, with ``gap = min(rel_gap, 0.5 / min(m, n))`` so large shapes stay
    feasible.  Draws are rejected up to ``tries`` times; after that the last
    draw keeps its singular vectors and its singular values are pushed apart
    from the bottom up.
    """
    gap = min(rel_gap, 0.5 / min(m, n))
    for _ in range(tries):
        a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        s = np.linalg.svd(a, compute_uv=False)
        step = gap * s[0]
        if s[-1] >= step and np.all(-np.diff(s) >= step):
            return a
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    s[-1] = max(s[-1], step)
    for j in range(len(s) - 2, -1, -1):
        s[j] = max(s[j], s[j + 1] + step)
    return (u * s) @ vh


def random_frame(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Haar-distributed m x n matrix with orthonormal columns.

    QR of a complex Gaussian, with R's diagonal phases moved into Q.
    """
    q, r = np.linalg.qr(rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def write_matrix(path: Path, a: np.ndarray) -> None:
    """Matrix file in the JSON layout ``io.load_matrix`` reads."""
    data = [[float(v.real), float(v.imag)] for v in np.asarray(a).ravel()]
    path.write_text(json.dumps({"rows": a.shape[0], "cols": a.shape[1], "data": data}))


def _regime(m: int, n: int, k: int) -> str:
    if 2 * k <= max(m, n):
        return "low"
    if 3 * k <= m + n + 1:
        return "ring"
    return "empty"


# ---------------------------------------------------------------------------
# sweep

LARGE_SIZES = (20, 40, 60)
SWEEP_STYLE = 'stroke="#1f6fb2" stroke-width="2"'
CORNER_STYLE = 'stroke="#e67e22" stroke-width="3"'


@dataclass
class SweepRequest:
    index: int
    kind: str  # "fov" | "wl" | "wh"
    matrix: np.ndarray
    frame: np.ndarray | None
    workdir: Path

    @property
    def swept(self) -> np.ndarray:
        """The square matrix whose field of values the request sweeps."""
        if self.kind == "fov":
            return self.matrix
        h = self.frame
        return h.conj().T @ self.matrix if self.kind == "wl" else self.matrix @ h.conj().T


@dataclass
class SweepOutput:
    curve: geometry.BoundaryCurve
    corners: list
    meta: dict
    svg: str


def _projector_range(kind, a, h):
    setting = projrange.ProjectorSetting(a, h)
    sweep = projrange.lower_range if kind == "wl" else projrange.higher_range
    return sweep(setting, ANGLES)


def _save_outputs(workdir: Path, region, meta, svg) -> None:
    io.save_region(workdir / "region.json", region, meta)
    (workdir / "region.svg").write_text(svg)


class Sweep:
    """Schedule: in every 10 requests, 9 small (fov, wl, wh in turn, n <= 8)
    and one large fov (n = 20, 40, 60 in turn).  wl/wh use tall random
    matrices with random frames; one in seven uses ``TALL_EXAMPLE``."""

    cycle = 30  # every small kind and large size in equal shares
    cycles = 7

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def request(self, i: int) -> SweepRequest:
        rng = np.random.default_rng([self.seed, 1, i])
        tens, pos = divmod(i, 10)
        frame = None
        if pos == 9:
            kind = "fov"
            size = LARGE_SIZES[tens % len(LARGE_SIZES)]
            a = separated_matrix(rng, size, size)
        else:
            j = 9 * tens + pos
            kind = ("fov", "wl", "wh")[j % 3]
            step = (j // 3) % 7
            if kind == "fov":
                a = separated_matrix(rng, step + 2, step + 2)
            elif step == 0:
                a = TALL_EXAMPLE.copy()
                frame = random_frame(rng, 4, 3)
            else:
                n = step + 1
                a = separated_matrix(rng, n + 1 + step % 2, n)
                frame = random_frame(rng, *a.shape)
        write_matrix(self.workdir / "matrix.json", a)
        if frame is not None:
            write_matrix(self.workdir / "frame.json", frame)
        return SweepRequest(i, kind, a, frame, self.workdir)

    def execute(self, req: SweepRequest, t) -> SweepOutput:
        a = t.call("io.load", io.load_matrix, req.workdir / "matrix.json")
        sigma = [float(s) for s in linalg.svd(a).sigma]
        if req.kind == "fov":
            curve = t.call("fov.boundary", fov.fov_boundary, a, ANGLES)
        else:
            h = t.call("io.load", io.load_matrix, req.workdir / "frame.json")
            curve = t.call("projrange.range", _projector_range, req.kind, a, h)
        corners = t.call("fov.sharp_points", fov.sharp_points, curve)
        region = geometry.ConvexBoundary(curve)
        meta = {"set": req.kind, "sigma": sigma, "tool_version": nrange.__version__}
        svg = t.call(
            "svgplot.render", svgplot.render_regions,
            [(region, SWEEP_STYLE)], max(sigma[0], 1e-9),
            annotations=[f"set={req.kind}", "sigma=" + ", ".join(f"{s:.6f}" for s in sigma)],
            markers=[(c.location, CORNER_STYLE) for c in corners],
        )
        t.call("io.save", _save_outputs, req.workdir, region, meta, svg)
        return SweepOutput(curve, corners, meta, svg)

    def check(self, req: SweepRequest, out: SweepOutput):
        """Eigenvalues inside the boundary, support values equal to the top
        eigenvalue of the rotated Hermitian part at eight angles, corners on
        the curve, and both output files round-tripping."""
        curve, small = out.curve, req.swept
        tol = 1e-9 * np.linalg.norm(small)
        grid = np.linspace(0.0, 2.0 * np.pi, ANGLES, endpoint=False)
        if curve.angles.shape != grid.shape or not np.allclose(curve.angles, grid, rtol=0, atol=1e-12):
            return False, {}
        phase = np.exp(-1j * grid)
        lam = np.linalg.eigvals(small)
        ok = bool(np.all(np.real(phase[:, None] * lam[None, :]) <= curve.support[:, None] + tol))
        ok &= bool(np.all(np.abs(np.real(phase * curve.points) - curve.support) <= tol))
        for j in range(0, ANGLES, ANGLES // 8):
            rot = phase[j] * small
            top = np.linalg.eigvalsh((rot + rot.conj().T) / 2.0)[-1]
            ok &= bool(abs(top - curve.support[j]) <= tol)
        ok &= all(np.any(curve.points == c.location) for c in out.corners)
        region_path, svg_path = req.workdir / "region.json", req.workdir / "region.svg"
        loaded, meta = io.load_region(region_path)
        ok &= (
            isinstance(loaded, geometry.ConvexBoundary)
            and np.array_equal(loaded.curve.angles, curve.angles)
            and np.array_equal(loaded.curve.support, curve.support)
            and np.array_equal(loaded.curve.points, curve.points)
            and meta == out.meta
        )
        svg = svg_path.read_text()
        ok &= svg == out.svg and svg.startswith("<svg") and svg.endswith("</svg>\n")
        facts = {
            "angles": len(curve.angles),
            "svg_bytes": len(svg.encode()),
            "bytes_written": region_path.stat().st_size + svg_path.stat().st_size,
        }
        return bool(ok), facts


# ---------------------------------------------------------------------------
# witness search

WITNESS_SHAPES = (
    (2, 2), (3, 2), (3, 3), (4, 2), (4, 3), (5, 3),  # the prop14 family
    (2, 3), (3, 5), (4, 6),                           # wide
    (6, 4), (7, 5), (8, 6),                           # larger
)


def witness_cases(member: bool) -> list[tuple[int, int, int, str]]:
    """(m, n, k, value kind) for every shape and index that has such a value."""
    cases = []
    for m, n in WITNESS_SHAPES:
        for k in range(1, min(m, n) + 1):
            regime = _regime(m, n, k)
            hole = regime == "ring" and m + n - 2 * k + 1 <= min(m, n)
            if member and regime != "empty":
                kinds = ["outer-boundary", "interior"] + (["inner-boundary"] if hole else [])
            elif member:
                kinds = []
            elif regime == "empty":
                kinds = ["empty-regime"]
            else:
                kinds = ["outside"] + (["hole"] if hole else [])
            cases += [(m, n, k, kind) for kind in kinds]
    return cases


@dataclass
class WitnessRequest:
    index: int
    matrix: np.ndarray
    k: int
    z: complex
    regime: str
    member: bool


@dataclass
class WitnessOutput:
    region: rankk.RankKRegion
    inside: bool
    region_inside: bool
    pair: rankk.WitnessPair


# Singular values of witness inputs come from this fixed stream, singular
# vectors from the run's seed.  The search's cost depends mostly on the
# spectrum (on four non-member cases: at most 1.7x between draws of the
# vectors, up to 12x between draws of the spectrum), so sharing spectra
# between seeds keeps the run-to-run spread close to the machine's own.
# Each matrix is still distributed as a complex Gaussian one: a Gaussian
# matrix's singular vectors are Haar and independent of its singular values.
SPECTRA_SEED = 14


class Witness:
    """Cycles through ``witness_cases`` with a fresh matrix per request."""

    def __init__(self, seed: int, member: bool):
        self.seed = seed
        self.member = member
        self.cases = witness_cases(member)
        self.cycle = len(self.cases)
        # non-member cost varies most between draws: time twice as many
        self.cycles = -(-200 // self.cycle) * (1 if member else 2)

    def request(self, i: int) -> WitnessRequest:
        stream = 2 if self.member else 3
        m, n, k, kind = self.cases[i % len(self.cases)]
        spectra = np.random.default_rng([SPECTRA_SEED, stream, i])
        s = np.linalg.svd(separated_matrix(spectra, m, n), compute_uv=False)
        rng = np.random.default_rng([self.seed, stream, i])
        a = (random_frame(rng, m, len(s)) * s) @ random_frame(rng, n, len(s)).conj().T
        outer = s[k - 1]
        j = m + n - 2 * k + 1
        inner = s[j - 1] if _regime(m, n, k) == "ring" and j <= min(m, n) else 0.0
        radius = {
            "outer-boundary": outer,
            "inner-boundary": inner,
            "interior": inner + (outer - inner) * rng.uniform(0.1, 0.9),
            "outside": outer * rng.uniform(1.1, 1.5),
            "hole": inner * rng.uniform(0.1, 0.9),
            "empty-regime": s[0] * rng.uniform(0.1, 0.9),
        }[kind]
        z = complex(radius * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
        return WitnessRequest(i, a, k, z, _regime(m, n, k), self.member)

    def execute(self, req: WitnessRequest, t) -> WitnessOutput:
        region = t.call("rankk.closed_form", rankk.rank_k_region, req.matrix, req.k)
        inside = t.call("rankk.closed_form", rankk.rank_k_contains, req.matrix, req.k, req.z)
        region_inside = t.call("geometry.contains", geometry.region_contains,
                               region.region, req.z, 1e-12)
        pair = t.call("rankk.witness", rankk.find_witness, req.matrix, req.k, req.z,
                      seed=req.index, restarts=20, max_iter=500, tol=WITNESS_TOL)
        return WitnessOutput(region, inside, region_inside, pair)

    def check(self, req: WitnessRequest, out: WitnessOutput):
        """Recomputed residual and isometry defects of the returned pair; a
        member must certify, a non-member must not, and both membership
        routes must agree with the value's construction."""
        a, k, pair = req.matrix, req.k, out.pair
        m, n = a.shape
        certified = pair.residual <= WITNESS_TOL
        facts = {"restarts": pair.restarts_used, "certified": int(certified)}
        if pair.left.shape != (m, k) or pair.right.shape != (n, k):
            return False, facts
        eye = np.eye(k)
        residual = np.linalg.norm(pair.left.conj().T @ a @ pair.right - req.z * eye)
        defect = max(np.linalg.norm(pair.left.conj().T @ pair.left - eye),
                     np.linalg.norm(pair.right.conj().T @ pair.right - eye))
        scale = np.linalg.norm(a)
        ok = (
            out.region.regime == req.regime
            and out.inside == req.member
            and out.region_inside == req.member
            and certified == out.inside
            and pair.value == req.z
            and abs(residual - pair.residual) <= 1e-9 * scale
            and defect <= 1e-10
            and (residual <= WITNESS_TOL if req.member else residual > WITNESS_TOL)
        )
        return bool(ok), facts


# ---------------------------------------------------------------------------
# oracle checks

ORACLE_SHAPES = (
    (2, 3), (3, 2), (3, 4), (4, 3), (4, 5), (5, 4),
    (5, 6), (6, 5), (6, 7), (7, 6), (7, 8), (8, 7),
)
ORACLE_KINDS = ("radius", "union", "projector")
WITNESS_ANGLES = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)


@dataclass
class OracleRequest:
    index: int
    kind: str
    matrix: np.ndarray
    k: int


class OracleCheck:
    """Round-robin over the three checks; the shape advances every three."""

    cycle = len(ORACLE_KINDS) * len(ORACLE_SHAPES)
    cycles = 6

    def __init__(self, seed: int):
        self.seed = seed

    def request(self, i: int) -> OracleRequest:
        rng = np.random.default_rng([self.seed, 4, i])
        m, n = ORACLE_SHAPES[(i // 3) % len(ORACLE_SHAPES)]
        k = 1 + (i // 3) % min(m, n)
        return OracleRequest(i, ORACLE_KINDS[i % 3], separated_matrix(rng, m, n), k)

    def execute(self, req: OracleRequest, t):
        a, seed = req.matrix, req.index
        if req.kind == "radius":
            disc = t.call("rectrange.closed_form", rectrange.range_disc, a)
            pairs = [t.call("rectrange.closed_form", rectrange.boundary_witness, a, theta)
                     for theta in WITNESS_ANGLES]
            estimate = t.call("oracles.power", oracles.power_sigma_max, a, POWER_ITERS, seed)
            sampled = t.call_tracking_memory("oracles.mc", oracles.mc_rect_sup, a, MC_SAMPLES, seed)
            return disc, pairs, estimate, sampled
        if req.kind == "union":
            return t.call("rectrange.norm_union", rectrange.norm_range_union, a, UNION_SAMPLES, seed)
        return t.call("rankk.projector_check", rankk.projector_intersection_check,
                      a, req.k, PROJECTOR_TRIALS, seed)

    def check(self, req: OracleRequest, out):
        """Power estimate within 1e-8 of the radius, sampled sup never past
        it, exact boundary witnesses, no union violations, projector bounds
        holding at the numpy singular values."""
        a = req.matrix
        s = np.linalg.svd(a, compute_uv=False)
        if req.kind == "radius":
            disc, pairs, estimate, sampled = out
            r = disc.radius if isinstance(disc, geometry.Disc) else np.nan
            ok = disc.center == 0 and abs(r - s[0]) <= 1e-12 * s[0]
            ok &= abs(estimate - r) <= 1e-8 * r
            ok &= sampled.n_samples == MC_SAMPLES and 0.0 < sampled.sup_abs <= r * (1 + 1e-12)
            for theta, pair in zip(WITNESS_ANGLES, pairs):
                target = r * np.exp(1j * theta)
                ok &= abs(np.linalg.norm(pair.x) - 1.0) <= 1e-12
                ok &= abs(np.linalg.norm(pair.y) - 1.0) <= 1e-12
                ok &= abs(pair.y.conj() @ a @ pair.x - target) <= 1e-10 * r
                ok &= abs(pair.value - target) <= 1e-10 * r
            return bool(ok), {"mc_samples": sampled.n_samples}
        if req.kind == "union":
            frob = np.linalg.norm(a)
            ok = (
                out.n_discs == UNION_SAMPLES + 32
                and out.containment_violations == 0
                and abs(out.frobenius_radius - frob) <= 1e-12 * frob
                and abs(out.sup_abs - frob) <= 1e-9 * frob
            )
            return bool(ok), {}
        sigma_k = s[req.k - 1]
        ok = (
            out.n_trials == PROJECTOR_TRIALS
            and out.sampled_bounds_hold and out.star_attains and out.outer_within_sampled
            and abs(out.sigma_k - sigma_k) <= 1e-12 * s[0]
            and min(out.min_right_sampled, out.min_left_sampled) >= sigma_k - 1e-9 * s[0]
        )
        return bool(ok), {}


def make(name: str, seed: int, workdir: Path):
    if name == "sweep":
        return Sweep(seed, workdir)
    if name in ("witness-member", "witness-nonmember"):
        return Witness(seed, member=name == "witness-member")
    if name == "oracle-check":
        return OracleCheck(seed)
    raise ValueError(f"unknown workload: {name!r}")
