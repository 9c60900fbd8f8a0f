"""Command-line front end: compute regions, run verification suites, rebuild figures.

Exit codes: 0 success, 1 failed verification check, 2 invalid flags,
3 parse failure, 4 domain error, 5 output I/O failure.  Diagnostics go to
stderr; stdout carries only the pass/fail table or the written file paths.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

import numpy as np

from . import __version__
from .fov import fov_boundary, sharp_points
from .geometry import Circle, ConvexBoundary, radial_interval, scale_region
from .io import MatrixParseError, load_matrix, save_region
from .linalg import pow2_scaled, svd, times_pow2
from .projrange import ProjectorSetting, higher_range, lower_range
from .rankk import _decomposed, rank_k_region
from .rectrange import norm_range_disc, range_disc
from .reference import TALL_EXAMPLE, TALL_EXAMPLE_FRAME, WIDE_EXAMPLE
from .svgplot import render_regions
from .verify import SUITE_NAMES, require_tol, run_suites

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_IO = 5

# every --set and the one optional flag it reads; it refuses the others
_SETS = {"w": None, "fov": None, "wl": "--H", "wh": "--H", "phik": "--k", "wnorm": "--B"}


def _resolve_seed(flag_value) -> int | None:
    """``--seed``, else ``NRANGE_SEED``, else 0.

    Returns None, after a one-line message on stderr, when the seed is
    negative or ``NRANGE_SEED`` is needed but is not an integer.
    """
    if flag_value is not None:
        source, seed = "--seed", flag_value
    else:
        source, env = "NRANGE_SEED", os.environ.get("NRANGE_SEED", "0")
        try:
            seed = int(env)
        except ValueError:
            print(f"error: NRANGE_SEED must be an integer, got {env!r}", file=sys.stderr)
            return None
    if seed < 0:
        print(f"error: {source} must be non-negative, got {seed}", file=sys.stderr)
        return None
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nrange",
        description="Numerical ranges of rectangular complex matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute one range region for a matrix file")
    comp.add_argument("--input", required=True, help="matrix file (JSON or CSV)")
    comp.add_argument("--set", required=True, choices=_SETS, dest="set_name")
    comp.add_argument("--k", type=int, default=None, help="index for --set phik")
    comp.add_argument("--H", dest="frame", default=None, help="frame matrix file for wl/wh")
    comp.add_argument("--B", dest="comparison", default=None, help="comparison matrix file for wnorm")
    comp.add_argument("--angles", type=int, default=720)
    comp.add_argument("--out", required=True, help="region JSON output path")
    comp.add_argument("--svg", default=None, help="optional SVG output path")

    ver = sub.add_parser("verify", help="run the named property suites")
    ver.add_argument("--suite", required=True, choices=("all",) + tuple(SUITE_NAMES))
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--tol", type=float, default=1e-8)

    rep = sub.add_parser("reproduce", help="rebuild a bundled figure")
    rep.add_argument("--figure", required=True, choices=("sec2-example", "sec3-example"))
    rep.add_argument("--out-dir", required=True)
    rep.add_argument("--seed", type=int, default=None)
    return parser


# every set ends in a finiteness check that exits 4, so numpy's overflow
# warnings would only add raw lines to stderr; the sweep's threads run in a
# copy of this context
@np.errstate(over="ignore", invalid="ignore")
def _cmd_compute(args) -> int:
    name = args.set_name
    for flag, value in (("--k", args.k), ("--H", args.frame), ("--B", args.comparison)):
        if value is not None and flag != _SETS[name]:
            print(f"error: --set {name} does not take {flag}", file=sys.stderr)
            return EXIT_USAGE
    if name in ("fov", "wl", "wh") and args.angles < 8:
        print(f"error: --angles must be >= 8, got {args.angles}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # computed under pow2_scaled's rule, written scaled back and drawn as
        # is; sigma is the decomposition the w and phik regions read
        matrix, e = pow2_scaled(load_matrix(args.input))
        m, n = matrix.shape
        sigma = _decomposed(matrix, False)[1]
        true_sigma = times_pow2(sigma, e)
        # a sigma past the float range is written as null, so the file stays strict JSON
        meta = {"set": name, "sigma": [float(s) if np.isfinite(s) else None for s in true_sigma],
                "tool_version": __version__}
        if name == "w":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                region = range_disc(matrix)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
        elif name == "fov":
            if m != n:
                print(
                    f"error: --set fov needs a square matrix, got {m}x{n}; "
                    "use --set w for rectangular input",
                    file=sys.stderr,
                )
                return EXIT_USAGE
            region = ConvexBoundary(fov_boundary(matrix, args.angles))
        elif name in ("wl", "wh"):
            frame = None if args.frame is None else load_matrix(args.frame)
            setting = ProjectorSetting(matrix, frame)
            curve = (
                lower_range(setting, args.angles)
                if name == "wl"
                else higher_range(setting, args.angles)
            )
            region = ConvexBoundary(curve)
        elif name == "phik":
            if args.k is None:
                print("error: --set phik needs --k", file=sys.stderr)
                return EXIT_USAGE
            if args.k < 1:
                print("error: --k must be >= 1", file=sys.stderr)
                return EXIT_USAGE
            meta["k"] = args.k
            region = rank_k_region(matrix, args.k).region
        else:  # wnorm
            if args.comparison is None:
                print("error: --set wnorm needs --B", file=sys.stderr)
                return EXIT_USAGE
            region = norm_range_disc(matrix, load_matrix(args.comparison))
    # a MatrixParseError is a ValueError, so this clause must come first
    except (MatrixParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    try:
        save_region(args.out, scale_region(region, e), meta)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError:
        print("error: the region is not finite at this scale; scale the matrix down",
              file=sys.stderr)
        return EXIT_DOMAIN
    print(args.out)
    if args.svg is not None:
        outer = float(sigma[0])
        if name == "wnorm":
            outer = max(outer, radial_interval(region)[1])
        text = render_regions(
            [(region, 'stroke="#1f6fb2" stroke-width="2"')],
            outer,
            annotations=[f"set={name}", "sigma=" + ", ".join(f"{s:.6f}" for s in true_sigma)],
        )
        try:
            Path(args.svg).write_text(text)
        except OSError as exc:
            print(f"error: cannot write {args.svg}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(args.svg)
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    seed = _resolve_seed(args.seed)
    if seed is None:
        return EXIT_USAGE
    try:
        require_tol(args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    results = run_suites(names, seed, args.tol)
    failed = [r for r in results if not r.passed]
    width = max(len(f"{r.suite}/{r.name}") for r in results)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {f'{r.suite}/{r.name}':<{width}}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed (seed={seed})")
    for r in failed:
        print(f"failed: {r.suite}/{r.name}: {r.detail}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def _figure_sec2(seed: int) -> str:
    matrix = WIDE_EXAMPLE
    rng = np.random.default_rng(seed)
    frob = float(np.linalg.norm(matrix))
    top = float(svd(matrix).sigma[0])
    palette = ["#c0392b", "#27ae60", "#8e44ad", "#d35400", "#16a085", "#2c3e50"]
    items = [
        (Circle(0j, frob), 'stroke="#000000" stroke-width="2"'),
        (Circle(0j, top), 'stroke="#555555" stroke-width="2" stroke-dasharray="8 6"'),
    ]
    for colour in palette:
        g = rng.standard_normal(matrix.shape) + 1j * rng.standard_normal(matrix.shape)
        b = g / np.linalg.norm(g) * rng.uniform(1.0, 2.5)
        items.append((norm_range_disc(matrix, b), f'stroke="{colour}" stroke-width="1.5"'))
    return render_regions(
        items,
        frob,
        annotations=[
            "norm-range discs inside the Frobenius disc",
            f"outer radius={frob:.6f}  dashed radius={top:.6f}",
        ],
    )


def _figure_sec3(seed: int) -> str:
    setting = ProjectorSetting(TALL_EXAMPLE, TALL_EXAMPLE_FRAME)
    lo_curve = lower_range(setting, 720)
    hi_curve = higher_range(setting, 720)
    eigs = np.linalg.eigvals(TALL_EXAMPLE @ TALL_EXAMPLE_FRAME.conj().T)
    dedup: list[complex] = []
    for lam in eigs:
        if all(abs(lam - seen) > 1e-9 for seen in dedup):
            dedup.append(complex(lam))
    corners = sharp_points(lo_curve)
    outer = float(np.max(hi_curve.support))
    return render_regions(
        [
            (ConvexBoundary(hi_curve), 'stroke="#1f6fb2" stroke-width="2"'),
            (ConvexBoundary(lo_curve), 'stroke="#c0392b" stroke-width="2"'),
        ],
        outer,
        annotations=[
            "lower (red) and higher (blue) projector ranges",
            "markers: eigenvalues of the padded compression; squares: lower-range corners",
        ],
        markers=[(z, 'stroke="#000000" stroke-width="2"') for z in dedup]
        + [(c.location, 'stroke="#e67e22" stroke-width="3"') for c in corners],
    )


def _cmd_reproduce(args) -> int:
    seed = _resolve_seed(args.seed)
    if seed is None:
        return EXIT_USAGE
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {out_dir}: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.figure == "sec2-example":
        text = _figure_sec2(seed)
        path = out_dir / "sec2-example.svg"
    else:
        text = _figure_sec3(seed)
        path = out_dir / "sec3-example.svg"
    try:
        path.write_text(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(str(path))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "compute":
        return _cmd_compute(args)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_reproduce(args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
