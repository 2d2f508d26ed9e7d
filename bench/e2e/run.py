#!/usr/bin/env python3
"""End-to-end benchmark of the P3Q simulator.

Builds the C++ benchmark program (p3q_bench.cc) into build-bench/, runs each
workload in its own process, measures the process's peak RSS through
os.wait4, checks the outputs, and prints every metric by name with its unit.
Metric names, units, directions and bounds come from BENCHMARK.json at the
repository root.

  python3 bench/e2e/run.py                      all four workloads, 3 rounds
  python3 bench/e2e/run.py --trace              ... plus one traced pass
  python3 bench/e2e/run.py --smoke              ~200 users, checks, self-test
  python3 bench/e2e/run.py compare BASE.json NEW.json
  python3 bench/e2e/run.py --workload serve --seed 3 --seconds 12 --trace 0

The last form runs one workload once and prints, as its last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. See README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / "build-bench"
BENCH_BIN = BUILD_DIR / "p3q_bench"
WORKLOADS = ["converge", "converge-serial", "serve", "churn-update"]
SMOKE_USERS = 200
ROUNDS = 3


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def end_to_end_metrics(spec):
    """name -> (better, bound) of every end-to-end metric."""
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def select_metrics(result, wanted):
    """The metrics of `result` named in a BENCHMARK.json list, and one error
    per listed metric that is missing or in another unit, or is an
    end-to-end metric (one with a bound) that is not positive."""
    metrics, errors = {}, []
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            errors.append(f"{result['workload']}: metric {m['name']} missing "
                          f"or not in {m['unit']}: {got}")
        elif "bound" in m and not got["value"] > 0:
            errors.append(f"{result['workload']}: end-to-end metric "
                          f"{m['name']} is {got['value']}, not positive")
        else:
            metrics[m["name"]] = got
    return metrics, errors


def build():
    """Configures build-bench/ once, then builds p3q_bench (a no-op when
    nothing changed)."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "core" / "p3q_system.h").is_file():
        raise BenchError(f"{ROOT} is not a P3Q source tree: the benchmark "
                         "builds the simulator from CMakeLists.txt and src/")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "p3q_bench",
                  "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            log(proc.stdout + proc.stderr)
            raise BenchError("build failed: " + " ".join(cmd))


def run_bench(workload, seed, seconds, trace, users=None):
    """Runs p3q_bench once; returns its JSON result plus peak_rss_mb. Only
    the smoke test sets `users`."""
    cmd = [str(BENCH_BIN), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={1 if trace else 0}"]
    if users is not None:
        cmd.append(f"--users={users}")
    if trace:
        out_dir = BUILD_DIR / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-out={out_dir / f'{workload}-seed{seed}.json'}")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: p3q_bench exited with "
                         f"{proc.returncode}")
    result = json.loads(lines[-1])
    # ru_maxrss is in KiB on Linux.
    result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0,
                                        "unit": "MB"}
    return result


def check(results):
    """Output checks over p3q_bench results; returns one message per failure,
    each naming its workload."""
    errors = []
    for r in results:
        w = r["workload"]
        if len(set(r["digests"])) != 1:
            errors.append(f"{w}: determinism digest differs across reps: "
                          f"{r['digests']}")
        q = r["queries"]
        if q["completed"] + q["abandoned"] != q["issued"]:
            errors.append(f"{w}: completed + abandoned != issued ({q})")
        ratio = r["metrics"]["success_ratio"]["value"]
        if not 0 < ratio <= 1:
            errors.append(f"{w}: success_ratio {ratio} outside (0, 1]")
        if r["traced"] and r["lazy_call_s"] > 0:
            gap = abs(r["lazy_phase_s"] - r["lazy_call_s"]) / r["lazy_call_s"]
            if gap > 0.05:
                errors.append(f"{w}: lazy engine phases sum to "
                              f"{r['lazy_phase_s']:.4f} s but RunLazyCycles "
                              f"took {r['lazy_call_s']:.4f} s")
    # Runs of one input must agree across processes, and the thread count
    # must not change the outcome.
    by_input = {}
    for r in results:
        name = "converge" if r["workload"] == "converge-serial" \
            else r["workload"]
        by_input.setdefault((name, r["seed"], r["users"]), []).append(r)
    for (name, seed, users), group in by_input.items():
        digests = {r["digests"][0] for r in group}
        if len(digests) != 1:
            names = sorted({r["workload"] for r in group})
            errors.append(f"{'/'.join(names)}: determinism digest differs "
                          f"between runs of seed {seed}, {users} users: "
                          f"{sorted(digests)}")
    return errors


# -- Reporting ----------------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def fmt(value):
    return f"{value:.6g}"


def print_table(title, rows):
    print(title)
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    for row in rows:
        print("  " + "  ".join(str(c).ljust(widths[i])
                               for i, c in enumerate(row)).rstrip())


def summarize(runs, names):
    """Rows of (metric, unit, median, q1, q3, n) over runs of one workload."""
    rows = [("metric", "unit", "median", "q1", "q3", "n")]
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs
                  if name in r["metrics"]]
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        unit = runs[0]["metrics"][name]["unit"]
        rows.append((name, unit, fmt(med), fmt(q1), fmt(q3), len(values)))
    return rows


def verdict(base, new, better, bound):
    """better / same / worse: the change of the median against the bound.
    When the quartile spread of either side exceeds the bound, unresolved,
    unless every new run beats (or trails) every base run."""
    _, b_med, _ = quartiles(base)
    _, n_med, _ = quartiles(new)
    sign = 1 if better == "higher" else -1
    spread = 0.0
    for values in (base, new):
        q1, med, q3 = quartiles(values)
        if med != 0:
            spread = max(spread, (q3 - q1) / abs(med))
    if spread > bound:
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "better"
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "worse"
        return "unresolved"
    if b_med == 0:
        change = 0.0 if n_med == 0 else sign * float("inf") * n_med
    else:
        change = sign * (n_med - b_med) / abs(b_med)
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "same"


def compare(base_path, new_path):
    spec = load_spec()
    metrics = end_to_end_metrics(spec)
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    worse = 0
    for w in WORKLOADS:
        if w not in base["workloads"] or w not in new["workloads"]:
            continue
        b_runs = base["workloads"][w]["runs"]
        n_runs = new["workloads"][w]["runs"]
        rows = [("metric", "unit", "base median [q1, q3]",
                 "new median [q1, q3]", "bound", "verdict")]
        for name, (better, bound) in metrics.items():
            b = [r["metrics"][name]["value"] for r in b_runs
                 if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in n_runs
                 if name in r["metrics"]]
            if not b or not n:
                continue
            v = verdict(b, n, better, bound)
            worse += v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            rows.append((name, n_runs[0]["metrics"][name]["unit"],
                         f"{fmt(bq[1])} [{fmt(bq[0])}, {fmt(bq[2])}]",
                         f"{fmt(nq[1])} [{fmt(nq[0])}, {fmt(nq[2])}]",
                         f"{bound:g} ({better})", v))
        print_table(f"== {w}", rows)
    return 1 if worse else 0


# -- Modes --------------------------------------------------------------------

def one_workload_run(args):
    """One workload, one process: the last stdout line is the result."""
    spec = load_spec()
    build()
    result = run_bench(args.workload, args.seed, args.seconds,
                        args.trace == 1)
    metrics, errors = select_metrics(
        result, spec["per_layer" if args.trace == 1 else "end_to_end"])
    errors += check([result])
    for e in errors:
        log("FAIL " + e)
    print(json.dumps({"correct": not errors,
                      "attempted": result["attempted"],
                      "failed": result["failed"] + len(errors),
                      "metrics": metrics}))
    return 1 if errors else 0


def full_run(args):
    spec = load_spec()
    e2e = end_to_end_metrics(spec)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    build()
    started = time.monotonic()
    runs = {w: [] for w in WORKLOADS}
    # Round-robin, so slow drift of the machine spreads over all workloads.
    for rnd in range(ROUNDS):
        for w in WORKLOADS:
            log(f"round {rnd + 1}/{ROUNDS}: {w}")
            runs[w].append(run_bench(w, args.seed, seconds, False))
    untraced_s = time.monotonic() - started
    traced = {}
    if args.trace:
        for w in WORKLOADS:
            log(f"traced: {w}")
            traced[w] = run_bench(w, args.seed, seconds, True)
    traced_s = time.monotonic() - started - untraced_s

    errors = check([r for w in WORKLOADS for r in runs[w]] +
                   list(traced.values()))
    for w in WORKLOADS:
        first = runs[w][0]
        print_table(f"== {w}: {first['users']} users, {first['threads']} "
                    f"threads, seed {args.seed}, {len(runs[w])} runs of "
                    f"{first['reps']} reps ({seconds} s)",
                    summarize(runs[w], e2e))
        if w in traced:
            t = traced[w]
            print_table(f"-- {w}: per-layer metrics (traced run, "
                        f"{t['spans']} spans)",
                        [("metric", "unit", "value")] +
                        [(n, m["unit"], fmt(m["value"]))
                         for n, m in t["metrics"].items() if n not in e2e])
            plain = statistics.median(
                r["metrics"]["user_cycles_per_s"]["value"] for r in runs[w])
            overhead = 1 - t["metrics"]["user_cycles_per_s"]["value"] / plain
            print(f"  tracing overhead: {100 * overhead:.2f}% of "
                  f"user_cycles_per_s (traced vs untraced median)")
    print(f"wall: untraced pass {untraced_s:.1f} s" +
          (f", traced pass {traced_s:.1f} s" if args.trace else ""))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": seconds,
                       "workloads": {w: {"runs": runs[w],
                                         "traced": traced.get(w)}
                                     for w in WORKLOADS}}, f, indent=1)
    for e in errors:
        print("FAIL " + e)
    return 1 if errors else 0


def smoke_run(args):
    """All four workloads at ~200 users, traced and untraced, with the same
    checks, plus a negative self-test of the determinism check."""
    spec = load_spec()
    started = time.monotonic()
    build()
    built = time.monotonic()
    results = []
    for trace in (False, True):
        for w in WORKLOADS:
            results.append(run_bench(w, args.seed, 0, trace, SMOKE_USERS))
    errors = check(results)
    for r in results:
        errors += select_metrics(
            r, spec["per_layer" if r["traced"] else "end_to_end"])[1]
    # Self-test: a perturbed digest must fail the check.
    perturbed = json.loads(json.dumps(results[0]))
    perturbed["digests"][-1] = "0" * 16
    if not any("digest" in e for e in check([perturbed])):
        errors.append("self-test: a perturbed digest passed the check")
    for e in errors:
        print("FAIL " + e)
    print(f"smoke: {len(results)} runs at {SMOKE_USERS} users, "
          f"{'FAILED' if errors else 'passed'} in "
          f"{time.monotonic() - built:.1f} s (build {built - started:.1f} s)")
    return 1 if errors else 0


def main(argv):
    if argv[:1] == ["compare"]:
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("base")
        p.add_argument("new")
        a = p.parse_args(argv[1:])
        return compare(a.base, a.new)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload once (needs --trace 0|1)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   help="measured time per run (default: run_seconds)")
    p.add_argument("--trace", nargs="?", type=int, const=1, choices=[0, 1],
                   help="with --workload: 0 or 1; alone: add a traced pass")
    p.add_argument("--out", help="write the full run's results as JSON")
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args(argv)
    if a.smoke:
        return smoke_run(a)
    if a.workload is not None:
        if a.trace is None or a.seconds is None:
            p.error("--workload needs --seconds and --trace 0|1")
        return one_workload_run(a)
    return full_run(a)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        log(f"run.py: {e}")
        sys.exit(2)
