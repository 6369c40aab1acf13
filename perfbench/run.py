#!/usr/bin/env python3
"""Build proxim from source and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload sta_bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The last line of standard output is the result, one JSON object with the
keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.  README.md beside this
file describes the workloads and every metric.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sta_bulk", "eco_serve"]
WORK = ".perfbench_work"
BENCH = os.path.join("_build", "default", "perfbench", "bench.exe")
PROXIM = os.path.join("_build", "default", "bin", "proxim_cli.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Build the benchmark and the proxim CLI; False when that fails."""
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # no shared dune cache: a run writes only inside its checkout
    cmd += ["build", "--root", ".", "--display", "quiet", "--cache=disabled",
            "./perfbench/bench.exe", "./bin/proxim_cli.exe"]
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return False
    return r.returncode == 0


def run_bench(args):
    """Run bench.exe in its own process group; its stdout, or None."""
    os.makedirs(WORK, exist_ok=True)
    cmd = [BENCH, "run", "--proxim", PROXIM, "--work", WORK] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
        print(f"timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
    # the daemon and any fresh-op process share the group: stop them all
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    if proc.returncode != 0:
        return None
    return out


def result_of(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest():
    """Tiny runs of every workload: every metric prints with its unit, a
    second seed passes every check, and a perturbed expectation fails."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for w in WORKLOADS:
        cases = [(["--seed", "3", "--trace", "0"], True),
                 (["--seed", "3", "--trace", "1"], True),
                 (["--seed", "4", "--trace", "0"], True),
                 (["--seed", "3", "--trace", "0", "--perturb"], False)]
        for extra, want_correct in cases:
            args = ["--workload", w, "--seconds", "1", "--tiny"] + extra
            out = run_bench(args)
            res = result_of(out) if out else None
            what = f"{w} {' '.join(extra)}"
            if res is None:
                failures.append(f"{what}: no result")
                continue
            if res["correct"] != want_correct:
                failures.append(f"{what}: correct={res['correct']}")
            trace = int(extra[extra.index("--trace") + 1])
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{what}: metrics {sorted(got)} != "
                                f"{sorted(expected[trace])}")
            print(f"selftest {what}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
    for f in failures:
        print(f"SELFTEST FAILURE: {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and (a.workload is None or a.seconds < 1):
        ap.error("--workload is required and --seconds must be >= 1")
    if not build():
        return 1
    if a.selftest:
        return selftest()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    out = run_bench(args)
    if out is None or result_of(out) is None:
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
