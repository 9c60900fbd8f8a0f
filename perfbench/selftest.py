"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs one cycle of every workload in both modes and checks that the printed
result names exactly the metrics of ``BENCHMARK.json``, each with its unit.
Then corrupts a witness pair, a region, a region file and an oracle
estimate, and checks that the gates, and the loop's failure count, report
each one.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as stdio
import json
import shutil
import sys

import run

run.load_nrange(sorted({m for mods in run.MODULES.values() for m in mods}))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from nrange import geometry  # noqa: E402

WORK = run.OUT / "selftest"


def expect(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def printed_result(workload: str, trace: int) -> dict:
    """The last stdout line of a one-cycle run, parsed."""
    result = run.measure(workload, seed=1, seconds=0.0, trace=trace, cycles=1)
    buffer = stdio.StringIO()
    with contextlib.redirect_stdout(buffer):
        run.report(result, {"workload": workload, "trace": trace})
    return json.loads(buffer.getvalue().strip().splitlines()[-1])


def check_metric_names(spec: dict) -> None:
    names = [entry["name"] for entry in spec["workloads"]]
    for workload in names:
        wl = workloads.make(workload, 1, WORK)
        expect(wl.cycle * wl.cycles >= run.MIN_REQUESTS,
               f"{workload} times at least {run.MIN_REQUESTS} requests")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {entry["name"]: entry["unit"] for entry in spec[section]}
        for workload in names:
            result = printed_result(workload, trace)
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            expect(printed == expected, f"{workload} --trace {trace} prints the {section} metrics")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} --trace {trace} passes its gates")


def check_corruption_fails() -> None:
    member = workloads.make("witness-member", 1, WORK)
    req = member.request(0)
    out = member.execute(req, spans.NULL)
    expect(member.check(req, out)[0], "an untouched member witness passes")
    rotated = dataclasses.replace(out.pair, left=out.pair.left * np.exp(0.1j))
    expect(not member.check(req, dataclasses.replace(out, pair=rotated))[0],
           "a corrupted member witness fails")

    nonmember = workloads.make("witness-nonmember", 1, WORK)
    req = nonmember.request(0)
    out = nonmember.execute(req, spans.NULL)
    expect(nonmember.check(req, out)[0], "an untouched non-member result passes")
    claimed = dataclasses.replace(out.pair, residual=0.0)
    expect(not nonmember.check(req, dataclasses.replace(out, pair=claimed))[0],
           "a non-member claimed as certified fails")

    sweep = workloads.make("sweep", 1, WORK)
    req = sweep.request(0)
    out = sweep.execute(req, spans.NULL)
    expect(sweep.check(req, out)[0], "an untouched sweep region passes")
    curve = out.curve
    shrunk = geometry.BoundaryCurve(curve.angles, 0.9 * curve.support, 0.9 * curve.points)
    expect(not sweep.check(req, dataclasses.replace(out, curve=shrunk))[0],
           "a shrunken region fails")
    path = WORK / "region.json"
    payload = json.loads(path.read_text())
    payload["support"][0] *= 1.0 + 1e-12
    path.write_text(json.dumps(payload))
    expect(not sweep.check(req, out)[0], "a region file that does not round-trip fails")

    oracle = workloads.make("oracle-check", 1, WORK)
    req = oracle.request(0)
    disc, pairs, estimate, sampled = oracle.execute(req, spans.NULL)
    expect(oracle.check(req, (disc, pairs, estimate, sampled))[0], "an untouched radius check passes")
    expect(not oracle.check(req, (disc, pairs, estimate * (1 - 1e-6), sampled))[0],
           "a power estimate off by 1e-6 fails")

    class Corrupted(type(member)):
        def execute(self, req, t):
            out = super().execute(req, t)
            return dataclasses.replace(out, inside=not out.inside)

    broken = Corrupted(1, member=True)
    loop = run.closed_loop(broken, seconds=0.0, cycles=1)
    expect(loop.failed == len(loop.latencies) > 0, "the closed loop counts every corrupted request as failed")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.SETUP_PROBES = run.IMPORT_PROBES = 1  # names and gates only, not timing
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        check_corruption_fails()
        check_metric_names(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
