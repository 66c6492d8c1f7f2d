#!/usr/bin/env python3
"""Repository benchmark: builds the program from source, runs one workload,
checks its outputs and prints its metrics (see perfbench/README.md).

  python3 perfbench/run.py --workload fuzz-campaign|mt-servers \
      --seed N --seconds S --trace 0|1

Run from the repository root. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an output
was wrong and 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

WORKLOADS = ("fuzz-campaign", "mt-servers")
SUITE_ARGS = ["--json", "--jobs", "1", "--opt", "1"]
CHILD_TIMEOUT_S = 150
# On a shared host each vCPU switches, for seconds to minutes at a time,
# between its full speed and up to ~2x slower, partly independently of the
# others. This often, the measured process moves to whichever other vCPU a
# short probe finds fastest (see README.md).
FOLLOW_S = 0.3
# glibc's malloc otherwise hands freed memory back to the kernel and faults it
# in again on the next cell. On a VM host one page fault costs several times
# more when the host is busy: the fuzz workload spent ~40% of its time in
# the kernel's fault path, and batches took 2.2-4.9 s by host load alone.
# Keeping freed memory in the process takes that host cost out of the timings.
MALLOC_TUNABLES = ("glibc.malloc.trim_threshold=4294967295:"
                   "glibc.malloc.mmap_threshold=33554432:glibc.malloc.top_pad=67108864")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(bdir):
    """Configures (once) and builds the suite and perfbench_layers."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources in {ROOT}; nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    try:
        if not (bdir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run([cmake, "-S", str(HERE), "-B", str(bdir)] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run([cmake, "--build", str(bdir), "--target", "suite", "perfbench_layers",
                        "-j", jobs], stdout=sys.stderr, check=True)
    except subprocess.CalledProcessError as e:
        raise BenchError(f"build failed: {e}") from e


def probe_s():
    """Time of a fixed CPython loop. CPython's evaluation loop is an
    interpreter dispatch loop like the VM's, so it slows down as the VM does
    when a vCPU is in its slow state."""
    start = time.perf_counter()
    x = 0
    for i in range(20000):
        x = (x * 31 + i) & 0xFFFF
        if x & 1:
            x ^= 5
    return time.perf_counter() - start


def follow_fastest_cpu(pid, done):
    """Every FOLLOW_S until done, probes each allowed CPU but the one pid runs
    on (from this thread, pinned there) and moves pid to the fastest."""
    cpus = sorted(os.sched_getaffinity(0))
    current = None
    try:
        while len(cpus) > 1 and not done.wait(FOLLOW_S):
            timed = []
            for cpu in cpus:
                if cpu != current:
                    os.sched_setaffinity(0, {cpu})
                    timed.append((min(probe_s(), probe_s()), cpu))
            current = min(timed)[1]
            try:
                os.sched_setaffinity(pid, {current})
            except OSError:  # exited; not yet reaped, so the pid is still its own
                return
    finally:
        os.sched_setaffinity(0, cpus)


def run_child(cmd):
    """Runs cmd to completion on the fastest CPU. Returns (exit code, stdout,
    peak RSS in MB of that process alone)."""
    env = dict(os.environ, GLIBC_TUNABLES=MALLOC_TUNABLES)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    done = threading.Event()
    follower = threading.Thread(target=follow_fastest_cpu, args=(proc.pid, done))
    follower.start()
    try:
        out = proc.stdout.read()
    finally:
        # Stop moving it before the child is reaped and its pid can be reused.
        done.set()
        follower.join()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.stdout.close()
    return os.waitstatus_to_exitcode(status), out.decode(), usage.ru_maxrss / 1024.0


def run_layers(bdir, workload, args, seconds, spans=None):
    cmd = [str(bdir / "perfbench_layers"), workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    code, out, rss = run_child(cmd)
    if code != 0:
        raise BenchError(f"perfbench_layers {workload} exited with {code}")
    return json.loads(out), rss


def load_json(name):
    with open(ROOT / name) as f:
        return json.load(f)


def expected_tables():
    """The recorded suite tables every suite run must reproduce."""
    return load_json("BENCH_pr10.json")["suite"]["tables"]


def suite_twice(bdir):
    """Runs the suite twice, so that its fusion counts can be checked to
    repeat exactly. Returns (the reports that passed the gate, failures)."""
    expected = expected_tables()
    reports, failures = [], []
    for _ in range(2):
        code, out, _ = run_child([str(bdir / "cpi" / "suite")] + SUITE_ARGS)
        failure = metrics.suite_failure(code, out, expected)
        if failure is None:
            reports.append(json.loads(out))
        else:
            failures.append(failure)
    return reports, failures


def end_to_end(unit_s, unit_cells, unit_cases, setup_s, rss_mb):
    """The end-to-end metrics of a run whose unit of work takes unit_s at
    the host's full speed and runs unit_cells VM cells in unit_cases cases."""
    return {
        "wall_s": unit_s,
        "setup_s": metrics.median(setup_s),
        "peak_rss_mb": rss_mb,
        "cells_per_s": unit_cells / unit_s,
        "cases_per_s": unit_cases / unit_s,
    }


def frontend_metrics(data):
    fe = data["frontend"]
    return {"frontend.build_ms": fe["build_ms"], "frontend.modules": fe["modules"],
            "frontend.ir_instructions": fe["ir_instructions"]}


def layer_failures(data):
    layers = data["layers"]
    failures = [f"trace fidelity: {f}" for f in layers["fidelity_failures"]]
    if not layers["counts_repeat"]:
        failures.append("replay counts differ between passes")
    return failures


def fuzz_campaign(bdir, args, spans, names):
    data, rss = run_layers(bdir, "fuzz-campaign", args, args.seconds, spans)
    failures = list(data["failures"])
    fz = data["fuzz"]
    if not args.trace:
        # A piece is one case of the batch.
        e2e = end_to_end(metrics.fastest_total(data["pieces_s"]), fz["cells"],
                         data["unit_cases"], data["setup_s"], rss)
        return e2e, data["attempted"], failures, data
    failures += layer_failures(data)
    if not fz["cells_repeat"]:
        failures.append("fuzz cell counts differ between passes")
    extra = frontend_metrics(data)
    extra.update({
        "fuzz.plan_ms": fz["plan_ms"],
        "fuzz.materialize_ms": fz["materialize_ms"],
        "fuzz.runcase_ms": fz["runcase_ms"],
        "fuzz.cells": fz["cells"],
        "fuzz.fuel_skip_ratio": metrics.ratio(fz["fuel_skips"], fz["cells"]),
    })
    attempted = data["attempted"] + data["layers"]["fidelity_cells"]
    return metrics.layer_metrics(names, data["layers"], extra), attempted, failures, data


def mt_servers(bdir, args, spans, names):
    data, rss = run_layers(bdir, "mt-servers", args, args.seconds, spans)
    failures = list(data["failures"])
    failures += metrics.churn_failures(data["churn"], expected_tables()["ablation_churn"])
    if not args.trace:
        # A piece is one cell of the sweep.
        e2e = end_to_end(metrics.fastest_total(data["pieces_s"]), data["unit_cells"], 1,
                         data["setup_s"], rss)
        return e2e, data["attempted"], failures, data
    failures += layer_failures(data)
    extra = frontend_metrics(data)
    extra["trace.overhead_ratio"] = metrics.ratio(
        metrics.median(data["traced_unit_s"]), metrics.median(data["unit_s"]))
    # The suite's own per-table times and fusion counts, and its tables gate.
    reports, suite_failures = suite_twice(bdir)
    failures += suite_failures
    if len(reports) == 2:
        suite, error = metrics.suite_layer_metrics(reports)
        extra.update(suite)
        if error:
            failures.append(error)
    attempted = data["attempted"] + data["layers"]["fidelity_cells"] + 2
    return metrics.layer_metrics(names, data["layers"], extra), attempted, failures, data


def source_digest():
    """SHA-256 over the sources the benchmark builds, so that a result names
    the code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for d in ("src", "bench", "perfbench"):
        files += sorted(p for p in (ROOT / d).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def protocol(args, data):
    build_type = data.get("build_type", "unknown")
    proto = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": build_type,
        "debug_build": build_type == "Debug",
        "compiler": data.get("compiler"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "jobs": 1,
        "scale": 1,
        "suite_args": SUITE_ARGS if args.trace and args.workload == "mt-servers" else None,
        "glibc_tunables": MALLOC_TUNABLES,
    }
    if args.workload == "fuzz-campaign":
        proto["case_seeds"] = data["case_seeds"]
    return proto


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    try:
        bench = load_json("BENCHMARK.json")
        names = metrics.units(bench, "per_layer")
        build(bdir)
        results = bdir / "results"
        results.mkdir(exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        spans = results / f"spans-{tag}.jsonl" if args.trace else None
        runner = {"fuzz-campaign": fuzz_campaign, "mt-servers": mt_servers}[args.workload]
        values, attempted, failures, data = runner(bdir, args, spans, names)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2

    proto = protocol(args, data)
    if proto["debug_build"]:
        log("perfbench: WARNING: Debug build; timings are not comparable")
    for f in failures:
        log(f"perfbench: FAILED {f}")
    failed = min(len(failures), attempted)
    units = names if args.trace else metrics.units(bench, "end_to_end")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    with open(results / f"{tag}.json", "w") as f:
        json.dump({"protocol": proto, "result": result, "raw": data}, f, indent=1)

    print(f"protocol: {json.dumps(proto)}")
    print(f"  fail_ratio = {metrics.ratio(failed, attempted):.6g} ratio ({failed}/{attempted})")
    if "unit_s" in data:
        q1, q2, q3 = metrics.quartiles(data["unit_s"])
        print(f"  unit time over {len(data['unit_s'])} units: "
              f"q1 {q1:.6g} s, median {q2:.6g} s, q3 {q3:.6g} s")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
