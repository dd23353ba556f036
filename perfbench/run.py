#!/usr/bin/env python3
"""Build and run the memhog benchmark.

    python3 perfbench/run.py --workload fault-storm --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The harness (perfbench/main.ml) is built
with dune into .bench_build/, then run once per workload.  Its report
lines are passed through; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The metric
names and units are checked against BENCHMARK.json before it is printed.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "dune"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
EXE = BUILD_DIR / "default" / "perfbench" / "main.exe"
WORKLOADS = ["fault-storm", "release-buffered", "serve-tiered"]

# A run must end within 180 s, or 900 s when it also builds.
RUN_LIMIT_S = 175
BUILD_RUN_LIMIT_S = 890


def local_env(**extra):
    """The environment for child processes: temporary files stay inside
    the checkout, under .bench_build/tmp."""
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), **extra)


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_group(cmd, timeout, env=None):
    """Run cmd in its own process group; on timeout, or if this script is
    stopped, kill the whole group and wait for it.  Returns (returncode,
    stdout, stderr)."""
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, errors="replace",
            start_new_session=True)
    except OSError as e:
        fail("cannot start %s: %s" % (Path(cmd[0]).name, e))
    timed_out = False
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        if proc.poll() is None or timed_out:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            out, err = proc.communicate()
    if timed_out:
        sys.stderr.write(err[-4000:])
        fail("%s timed out after %.0f s" % (Path(cmd[0]).name, timeout))
    return proc.returncode, out, err


def build(deadline):
    if not (ROOT / "dune-project").is_file() or not (ROOT / "lib").is_dir():
        fail("no simulator sources next to perfbench/ (dune-project, lib/); "
             "run from the root of a full checkout")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    env = local_env(DUNE_CACHE="disabled")
    code, out, err = run_group(
        [dune, "build", "--root", ".", "--build-dir", str(BUILD_DIR),
         "--profile", "release", "./perfbench/main.exe"],
        deadline - time.monotonic(), env)
    if code != 0 or not EXE.is_file():
        sys.stderr.write(out + err)
        fail("build failed")


def expected_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name, args, deadline):
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in local_env().items()
           if not k.startswith("OCAML_RUNTIME_EVENTS")}
    # A fixed GC configuration.  e=16 is the runtime's default size of
    # the runtime_events ring the traced run reads GC pauses from: 64 Ki
    # words, room for about 500 minor collections between two polls.  The
    # ring file is sized for every possible domain (64 MiB here), so a
    # larger ring soon makes a file of gigabytes in the checkout.
    env["OCAMLRUNPARAM"] = "e=16"
    env["OCAML_RUNTIME_EVENTS_DIR"] = str(OUT_DIR)
    code, out, err = run_group(
        [str(EXE), "--workload", name, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(OUT_DIR)],
        deadline - time.monotonic(), env)
    # A harness that died leaves its runtime_events ring file behind.
    for ring in OUT_DIR.glob("*.events"):
        ring.unlink()
    sys.stderr.write(err)
    lines = out.splitlines()
    if code != 0 or not lines:
        sys.stdout.write(out)
        fail("%s: harness exited with code %d" % (name, code), 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s: last line is not JSON" % name, 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: unexpected result keys %s" % (name, sorted(result)), 1)
    want = expected_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["attempted"] >= 1 and result["metrics"] and got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("%s: metrics disagree with BENCHMARK.json (missing %s, extra %s, "
             "unit %s)" % (name, missing, extra, units), 1)
    return lines[:-1], result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    start = time.monotonic()
    needs_build = not EXE.is_file()
    deadline = start + (BUILD_RUN_LIMIT_S if needs_build else RUN_LIMIT_S)
    build(deadline)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for i, name in enumerate(names):
        # With "all", each later workload gets a run budget of its own.
        if i > 0:
            deadline = time.monotonic() + RUN_LIMIT_S
        report, result = run_workload(name, args, deadline)
        results.append((name, report, result))

    if len(results) == 1:
        _, report, result = results[0]
        print("\n".join(report))
        print(json.dumps(result))
        return
    for name, report, result in results:
        print("== %s" % name)
        print("\n".join(report))
        print(json.dumps(result))
    print(json.dumps({
        "correct": all(r["correct"] for _, _, r in results),
        "attempted": sum(r["attempted"] for _, _, r in results),
        "failed": sum(r["failed"] for _, _, r in results),
        "metrics": {"%s/%s" % (n, k): v for n, _, r in results
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
