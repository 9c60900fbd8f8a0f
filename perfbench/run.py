"""nrange benchmark: one closed-loop client, one BLAS thread, seeded inputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 27 --trace 0

Run from the repository root; nrange is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` measures the
end-to-end metrics with no tracing (see ``closed_loop`` and ``measure``).
Its timings are given at reference machine speed (see ``reference_block``);
the wall-clock figures are printed in the notes line.
``--trace 1`` runs every request of one cycle twice, once plain and once
under spans, and reports the per-layer metrics (see ``layer_metrics``).
Each request is checked with plain numpy outside its timed interval.  The
last line on stdout is the JSON result; the same numbers, with the
environment, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# One BLAS thread for this process and every probe it starts; set before
# numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_REQUESTS = 200  # per untraced run: at least ten latencies beyond p95
REFERENCE_S = 3e-3  # nominal seconds of one reference block; see reference_block
REFERENCE_NEIGHBOURS = 2  # blocks on each side that make a sample's local speed
SETUP_PROBES = 7
IMPORT_PROBES = 3

# nrange modules each workload imports; the set-up probes import these.
MODULES = {
    "sweep": ("nrange.io", "nrange.linalg", "nrange.fov", "nrange.projrange",
              "nrange.svgplot", "nrange.reference"),
    "witness-member": ("nrange.rankk", "nrange.geometry"),
    "witness-nonmember": ("nrange.rankk", "nrange.geometry"),
    "oracle-check": ("nrange.rectrange", "nrange.oracles", "nrange.rankk"),
}


def _clock() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def load_nrange(modules) -> None:
    """Import the given nrange modules from this checkout's ``src/``."""
    if not (SRC / "nrange" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nrange sources under {SRC}")
    sys.path.insert(0, str(SRC))
    for name in modules:
        importlib.import_module(name)
    loaded = Path(sys.modules["nrange"].__file__).resolve()
    if SRC not in loaded.parents:
        sys.exit(f"perfbench: nrange came from {loaded}, not from {SRC}")


# ---------------------------------------------------------------------------
# machine speed


@functools.cache
def _reference_inputs():
    import numpy as np

    rng = np.random.default_rng(0)

    def gaussian(m, n):
        return rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))

    small, large = gaussian(8, 8), gaussian(48, 48)
    return (small + small.conj().T) / 2, gaussian(6, 4), (large + large.conj().T) / 2


def reference_block() -> float:
    """Seconds that a fixed block of ``numpy.linalg`` calls takes now.

    Forty small calls, bound by per-call overhead, and two 48 x 48 ``eigh``,
    bound by arithmetic, as nrange's own work is.  The block uses no nrange
    code, so it measures only the machine.  A shared host's speed drifts by
    up to 2x over minutes, and timings taken next to one another drift
    together.  The end-to-end metrics therefore scale every timing by
    ``REFERENCE_S`` over the block's time measured beside it: they read as
    they would on a machine where the block takes ``REFERENCE_S``, whatever
    the load on the host, while a change to nrange moves them in full.  The
    wall-clock figures go to the notes.
    """
    import numpy as np

    hermitian, rect, large = _reference_inputs()
    start = time.perf_counter()
    for _ in range(40):
        np.linalg.eigh(hermitian)
        np.linalg.svd(rect)
    np.linalg.eigh(large)
    np.linalg.eigh(large)
    return time.perf_counter() - start


def local_reference(blocks: list[float]) -> list[float]:
    """Each block's running median with ``REFERENCE_NEIGHBOURS`` on each side."""
    k = REFERENCE_NEIGHBOURS
    return [statistics.median(blocks[max(0, j - k):j + k + 1]) for j in range(len(blocks))]


# ---------------------------------------------------------------------------
# set-up and import probes (fresh interpreters)


def _probe(workload: str, seed: int) -> None:
    """Child side of a set-up probe: import, then run request 0 untimed.

    Prints the clock at which the first request finished and the time spent
    in benchmark code (its own import and input generation), which the
    parent subtracts.
    """
    load_nrange(MODULES[workload])
    start = _clock()
    import workloads
    from spans import NULL

    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(workload, seed, workdir)
        req = wl.request(0)
        untimed = _clock() - start
        out = wl.execute(req, NULL)
        end = _clock()
        ok, _ = wl.check(req, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"end": end, "untimed_s": untimed, "ok": ok}))


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold-start cost: fresh interpreter, nrange imports, first request.

    Returns the probes' times at reference speed, scaled by the median of
    the reference blocks run just before and just after each probe, and
    their wall-clock times.
    """
    scaled, samples = [], []
    for _ in range(SETUP_PROBES):
        before = [reference_block() for _ in range(REFERENCE_NEIGHBOURS + 1)]
        spawned = _clock()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        if not report["ok"]:
            sys.exit("perfbench: set-up probe's first request failed its check")
        samples.append(report["end"] - spawned - report["untimed_s"])
        around = before + [reference_block() for _ in range(REFERENCE_NEIGHBOURS + 1)]
        scaled.append(samples[-1] * REFERENCE_S / statistics.median(around))
    return scaled, samples


def _parse_importtime(text: str) -> tuple[float, float]:
    """(nrange excluding numpy, numpy) cumulative import seconds."""
    numpy_us = nrange_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        top_level = not name.startswith("  ")
        name = name.strip()
        if name == "numpy":
            numpy_us = int(cumulative)
        elif top_level and name.split(".")[0] == "nrange":
            nrange_us += int(cumulative)
    return (nrange_us - numpy_us) / 1e6, numpy_us / 1e6


def import_seconds(workload: str) -> tuple[float, float]:
    """Median ``-X importtime`` breakdown of the workload's nrange imports."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(MODULES[workload])
    samples = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"perfbench: import probe failed:\n{proc.stderr}")
        samples.append(_parse_importtime(proc.stderr))
    return (statistics.median(s[0] for s in samples),
            statistics.median(s[1] for s in samples))


# ---------------------------------------------------------------------------
# measurement loops


def _run_checked(wl, req, tracer, scope=None):
    """Execute one request inside ``scope``, then check it outside.

    Returns (seconds, ok, facts); only the execution is timed.
    """
    start = time.perf_counter()
    try:
        with scope or contextlib.nullcontext():
            out = wl.execute(req, tracer)
    except Exception:  # a request that raises counts as failed
        elapsed = time.perf_counter() - start
        traceback.print_exc()
        return elapsed, False, {}
    elapsed = time.perf_counter() - start
    try:
        ok, facts = wl.check(req, out)
    except Exception:
        traceback.print_exc()
        ok, facts = False, {}
    return elapsed, ok, facts


def _trimmed_mean(values) -> float:
    """Mean of the middle half of ``values`` (of all of them when fewer than four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


@dataclasses.dataclass
class Loop:
    """What one untraced closed loop measured."""

    latencies: list[float]  # per request, seconds at reference speed
    wall: list[float]  # per request, wall-clock seconds
    failed: int
    passes: float
    reference_s: float  # median reference block over the run


def closed_loop(wl, seconds: float, cycles: int | None = None) -> Loop:
    """Untraced closed loop over a fixed set of requests.

    The set is ``cycles`` (by default ``wl.cycles``) whole cycles of
    ``wl.cycle`` requests, so the size and case mix is the same in every run.
    The loop replays the set in order until every request has run once and
    ``seconds`` have passed, so consecutive samples of a request lie one
    pass apart.  After each request, outside its timed interval, it times a
    reference block (see ``reference_block``); each sample is scaled by the
    running median of those blocks around it.  A request's latency is the
    trimmed mean of its samples, which drops single stalls.  A request fails
    when any of its samples fails its check.
    """
    import spans

    wl.execute(wl.request(0), spans.NULL)  # warm-up, not measured
    reference_block()
    count = wl.cycle * (cycles or wl.cycles)
    order, wall, blocks = [], [], []
    bad = [False] * count
    start = time.perf_counter()
    while len(order) < count or time.perf_counter() - start < seconds:
        i = len(order) % count
        elapsed, ok, _ = _run_checked(wl, wl.request(i), spans.NULL)
        blocks.append(reference_block())
        order.append(i)
        wall.append(elapsed)
        bad[i] |= not ok
    scaled = [[] for _ in range(count)]
    raw = [[] for _ in range(count)]
    for i, elapsed, local in zip(order, wall, local_reference(blocks)):
        scaled[i].append(elapsed * REFERENCE_S / local)
        raw[i].append(elapsed)
    return Loop([_trimmed_mean(x) for x in scaled], [_trimmed_mean(x) for x in raw],
                sum(bad), len(order) / count, statistics.median(blocks))


def traced_loop(wl, seconds: float):
    """Repeats the first cycle of ``wl.cycle`` requests until ``seconds`` pass.

    Every repetition uses the same inputs, so per-request counts repeat
    exactly at a fixed seed.  Each request runs plain and traced, in
    alternating order; both runs are checked.
    """
    import spans

    tracer = spans.Tracer()
    facts: Counter = Counter()
    plain_s = traced_s = 0.0
    attempted = failed = 0
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < seconds:
        for j in range(wl.cycle):
            req = wl.request(j)
            ok = True
            for traced in ((False, True) if attempted % 2 == 0 else (True, False)):
                if traced:
                    elapsed, good, seen = _run_checked(wl, req, tracer, tracer.request(attempted))
                    traced_s += elapsed
                    facts.update(seen)
                else:
                    elapsed, good, _ = _run_checked(wl, req, spans.NULL)
                    plain_s += elapsed
                ok &= good
            attempted += 1
            failed += not ok
    return tracer, facts, attempted, failed, plain_s / traced_s


def layer_metrics(tracer, facts, requests: int, overhead: float, imports) -> dict:
    """Per-layer metrics of one traced run.

    ``*_s`` is self time per request, counts are per request, rates are per
    second of the layer's own span time.  Layers a workload does not reach
    read 0.
    """
    totals = tracer.totals()

    def count(name):
        return totals[name][0] if name in totals else 0

    def busy(name):
        return totals[name][1] if name in totals else 0.0

    def self_s(name):
        return (totals[name][2] if name in totals else 0.0) / requests

    def ratio(num, den):
        return num / den if den else 0.0

    sweeps = count("fov.boundary") + count("projrange.range")
    witnesses = count("rankk.witness")
    nrange_import_s, numpy_import_s = imports
    values = {
        "fov.boundary_s": (self_s("fov.boundary"), "s/req"),
        "fov.angles_per_s": (ratio(facts["angles"], busy("fov.boundary") + busy("projrange.range")), "1/s"),
        "fov.sharp_points_s": (self_s("fov.sharp_points"), "s/req"),
        "projrange.range_s": (self_s("projrange.range"), "s/req"),
        "linalg.eigh_calls": (tracer.kernel_calls["eigh"] / requests, "calls/req"),
        "linalg.svd_calls": (tracer.kernel_calls["svd"] / requests, "calls/req"),
        "linalg.qr_calls": (tracer.kernel_calls["qr"] / requests, "calls/req"),
        "linalg.kernel_s": (tracer.kernel_s / requests, "s/req"),
        "rankk.witness_s": (self_s("rankk.witness"), "s/req"),
        "rankk.restarts_per_call": (ratio(facts["restarts"], witnesses), "restarts/call"),
        "rankk.certified_ratio": (ratio(facts["certified"], witnesses), "ratio"),
        "rankk.closed_form_s": (self_s("rankk.closed_form"), "s/req"),
        "rankk.projector_check_s": (self_s("rankk.projector_check"), "s/req"),
        "geometry.contains_s": (self_s("geometry.contains"), "s/req"),
        "oracles.mc_s": (self_s("oracles.mc"), "s/req"),
        "oracles.mc_samples_per_s": (ratio(facts["mc_samples"], busy("oracles.mc")), "1/s"),
        "oracles.mc_bytes_computed": (ratio(tracer.peak_bytes["oracles.mc"], count("oracles.mc")), "B/call"),
        "oracles.power_s": (self_s("oracles.power"), "s/req"),
        "rectrange.closed_form_s": (self_s("rectrange.closed_form"), "s/req"),
        "rectrange.norm_union_s": (self_s("rectrange.norm_union"), "s/req"),
        "io.load_s": (self_s("io.load"), "s/req"),
        "io.save_s": (self_s("io.save"), "s/req"),
        "io.bytes_written": (facts["bytes_written"] / requests, "B/req"),
        "svgplot.render_s": (self_s("svgplot.render"), "s/req"),
        "svgplot.bytes": (facts["svg_bytes"] / requests, "B/req"),
        "request.self_s": (self_s("request"), "s/req"),
        "import.nrange_s": (nrange_import_s, "s"),
        "import.numpy_s": (numpy_import_s, "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {name: {"value": float(v), "unit": unit} for name, (v, unit) in values.items()}


# ---------------------------------------------------------------------------
# environment and result


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count reported by the OpenBLAS numpy loaded, else the setting."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def environment(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def _timing(latencies) -> dict:
    """ops_per_s, latency_p50_ms and latency_p95_ms of per-request seconds.

    One client, so throughput is requests per busy second.
    """
    import numpy as np

    lat_ms = np.asarray(latencies) * 1e3
    return {
        "ops_per_s": (len(latencies) / float(np.sum(latencies)), "1/s"),
        "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
        "latency_p95_ms": (float(np.percentile(lat_ms, 95)), "ms"),
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            cycles: int | None = None) -> dict:
    """One benchmark run; returns the result object printed last."""
    import numpy as np

    import workloads

    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.make(workload, seed, workdir)
        if trace:
            imports = import_seconds(workload)
            tracer, facts, attempted, failed, overhead = traced_loop(wl, seconds)
            metrics = layer_metrics(tracer, facts, attempted, overhead, imports)
            metrics["fail_ratio"] = {"value": failed / attempted, "unit": "ratio"}
            tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
            notes = {"traced_requests": attempted, "spans": len(tracer.spans)}
        else:
            setup, setup_wall = setup_seconds(workload, seed)
            loop = closed_loop(wl, seconds, cycles)
            attempted, failed = len(loop.latencies), loop.failed
            timing = _timing(loop.latencies)
            wall = _timing(loop.wall)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in timing.items()}
            metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
            # ru_maxrss is KiB
            metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                                      "unit": "MB"}
            lat_ms = np.asarray(loop.latencies) * 1e3
            notes = {"requests": attempted, "passes": loop.passes,
                     "beyond_p95": int(np.sum(lat_ms > timing["latency_p95_ms"][0])),
                     "fail_ratio": failed / attempted,
                     "reference_block_s": loop.reference_s,
                     "wall_clock": {name: value for name, (value, _) in wall.items()},
                     "setup_wall_s": statistics.median(setup_wall)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes}


def report(result: dict, env: dict) -> None:
    """Print the environment, one line per metric, then the JSON result."""
    print("# environment " + json.dumps(env))
    print("# notes " + json.dumps(result["notes"]))
    for name, metric in result["metrics"].items():
        print(f"# {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        _probe(args.workload, args.seed)
        return 0
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    load_nrange(MODULES[args.workload])
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    env = environment(args)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, environment=env), indent=1))
    report(result, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
