#!/usr/bin/env python3
"""CI perf-trajectory harness.

Runs the steady-state and lagged-steady scenarios with --timing, measures
cycles-to-convergence with and without delivery latency, runs the
bench_micro_similarity scoring benchmark (scalar vs batched kernel
pairs/sec), runs the open-loop-steady serving scenario (query-latency
p50/p95/p99 and queries/sec completed within the SLO), measures the
checkpoint/resume leg (snapshot size, save/resume wall time, and a hard
byte-identity check of straight vs checkpoint+resume reports), records each
scenario leg's peak RSS and arena footprint from the report's memory block,
and emits:

  * BENCH_pr.json        — the run's structured perf snapshot (scenario
                           wall-clock/throughput, engine phase timings with
                           shard-imbalance ratios, similarity-kernel
                           pairs/sec, cycles-to-convergence, delivery-lag
                           p50/p95, serving latency percentiles and SLO
                           goodput);
  * bench-trajectory.csv — one appended row per measurement, tagged with the
                           git SHA, so artifact history forms a trajectory;
  * an exit status       — non-zero when cycles-to-convergence OR a
                           scenario leg's peak RSS regressed more than
                           --regression-threshold (default 10%) against the
                           checked-in BENCH_baseline.json.

Convergence cycle counts are deterministic in (users, seed, latency) and
thread-count independent (the engine's ForkStream contract), which is what
makes a checked-in integer baseline gateable. Peak RSS is allocation-driven
and near-deterministic at fixed (users, seed) — the slab arenas bound the
profile footprint — so it is gated too (with the same fractional headroom
absorbing allocator noise). Wall-clock and pairs/sec throughput are
recorded for the trajectory but never gated — they depend on the runner.

Stdlib only; no dependencies beyond python3, the p3q_sim binary and
(optionally) the bench_micro_similarity binary.
"""

import argparse
import csv
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

SCENARIOS = ["steady-state", "lagged-steady"]
CONVERGENCE_MODELS = ["zero", "fixed:2"]


def run_sim(sim, args):
    """Runs the sim and returns its stdout; exits 2 when it fails."""
    cmd = [sim] + args
    result = subprocess.run(cmd, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(
            f"FAILED: {' '.join(cmd)}\n{result.stdout}{result.stderr}\n")
        sys.exit(2)
    return result.stdout


def profile_rollup(profile):
    """Collapses a --profile JSON into trajectory columns.

    Phase seconds are summed across engine labels (lazy + eager); the
    shard-imbalance ratios take the worst engine. Wall-clock phase times
    depend on the runner, so all of these are recorded, never gated.
    """
    rollup = {"plan_seconds": 0.0, "barrier_seconds": 0.0,
              "drain_seconds": 0.0, "end_cycle_seconds": 0.0,
              "shard_imbalance_mean": 0.0, "shard_imbalance_max": 0.0}
    for engine in profile.get("engines", {}).values():
        rollup["plan_seconds"] += engine["plan_seconds"]
        rollup["barrier_seconds"] += engine["barrier_seconds"]
        rollup["drain_seconds"] += engine["drain_seconds"]
        rollup["end_cycle_seconds"] += engine["end_cycle_seconds"]
        rollup["shard_imbalance_mean"] = max(rollup["shard_imbalance_mean"],
                                             engine["mean_imbalance"])
        rollup["shard_imbalance_max"] = max(rollup["shard_imbalance_max"],
                                            engine["max_imbalance"])
    return rollup


def measure_scenario(sim, name, users, seed):
    """Runs one scenario with --timing + --profile, returns its snapshot."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        profile_path = tmp.name
    try:
        run_sim(sim, [f"--scenario={name}", f"--users={users}",
                      f"--seed={seed}", "--timing", f"--json={json_path}",
                      f"--profile={profile_path}"])
        with open(json_path) as f:
            report = json.load(f)
        with open(profile_path) as f:
            profile = json.load(f)
    finally:
        os.unlink(json_path)
        os.unlink(profile_path)

    totals = report["totals"]
    timing = totals["timing"]
    snapshot = {
        "cycles": totals["cycles"],
        "queries_issued": totals["queries"]["issued"],
        "queries_completed": totals["queries"]["completed"],
        "total_messages": totals["traffic"]["total"]["messages"],
        "total_bytes": totals["traffic"]["total"]["bytes"],
        "threads": timing["threads"],
        "wall_seconds": timing["wall_seconds"],
        "cycles_per_sec": timing["cycles_per_sec"],
        "user_cycles_per_sec": timing["user_cycles_per_sec"],
    }
    memory = totals.get("memory")
    if memory is not None:
        # The sim's own peak (VmHWM on Linux). A child's wait4 ru_maxrss
        # would start at this harness's RSS, which Linux carries across
        # exec, and at 400 users the sim peaks below it.
        snapshot["peak_rss_mb"] = memory["peak_rss_mb"]
        snapshot["arena_used_mb"] = memory["arena_used_bytes"] / (1 << 20)
        snapshot["arena_reserved_mb"] = memory["arena_reserved_bytes"] / (1 << 20)
        snapshot["arena_slabs"] = memory["arena_slabs"]
        snapshot["arena_live_blocks"] = memory["arena_live_blocks"]
    snapshot.update(profile_rollup(profile))
    delivery = totals.get("delivery")
    if delivery is not None:
        snapshot["latency_model"] = report.get("latency", "zero")
        snapshot["delivery_lag_p50"] = delivery["lag_p50"]
        snapshot["delivery_lag_p95"] = delivery["lag_p95"]
        snapshot["delivery_dropped"] = delivery["dropped"]
        snapshot["delivery_max_in_flight"] = delivery["max_in_flight"]
    return snapshot


SIMD_LANES = ["scalar", "avx2"]


def measure_similarity_kernel(bench):
    """pairs/sec of the scalar vs batched scoring kernel, or None.

    Runs bench_micro_similarity's Paper* benchmarks (one node's profile
    against a gossip-sized candidate batch from a delicious-like trace) and
    reports items_per_second — pairs/sec — for the reference per-pair path,
    the batched kernel under the auto-dispatched lane, and one
    BM_PaperBatchedPairs/<lane> leg per SIMD lane the host can run (the
    binary registers those itself from runtime CPU detection). Recorded for
    the trajectory, never gated: absolute numbers depend on the runner, and
    the lanes are exactness-tested by tests/score_kernel_test.cc.
    """
    if not bench or not os.path.exists(bench):
        print("bench_micro_similarity not available; skipping kernel "
              "throughput", flush=True)
        return None
    result = subprocess.run(
        [bench, "--benchmark_filter=Paper", "--benchmark_format=json"],
        capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(f"bench_micro_similarity FAILED:\n{result.stderr}\n")
        sys.exit(2)
    report = json.loads(result.stdout)
    rates = {}
    for entry in report.get("benchmarks", []):
        if entry.get("run_type") == "aggregate":
            continue
        rates[entry["name"]] = entry.get("items_per_second")
    scalar = rates.get("BM_PaperScalarPairs")
    batched = rates.get("BM_PaperBatchedPairs")
    if scalar is None or batched is None:
        sys.stderr.write("Paper* benchmarks missing from "
                         f"bench_micro_similarity output: {sorted(rates)}\n")
        sys.exit(2)
    context = report.get("context", {})
    kernel = {
        "scalar_pairs_per_sec": scalar,
        "batched_pairs_per_sec": batched,
        "batched_speedup": batched / scalar if scalar else 0.0,
        "cpu_features": context.get("p3q_cpu_features", ""),
        "auto_simd_lane": context.get("p3q_simd_lane", ""),
        "lanes": {},
    }
    for lane in SIMD_LANES:
        rate = rates.get(f"BM_PaperBatchedPairs/{lane}")
        if rate is not None:
            kernel["lanes"][lane] = rate
    return kernel


def measure_serving(sim, users, seed):
    """Open-loop serving snapshot: latency percentiles + SLO goodput.

    The latency percentiles (in cycles) are deterministic in (users, seed);
    queries/sec within the SLO is wall-clock goodput and depends on the
    runner. Both are recorded for the trajectory, never gated.
    """
    name = "open-loop-steady"
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = tmp.name
    try:
        run_sim(sim, [f"--scenario={name}", f"--users={users}",
                      f"--seed={seed}", "--timing", f"--json={json_path}"])
        with open(json_path) as f:
            report = json.load(f)
    finally:
        os.unlink(json_path)

    totals = report["totals"]
    latency = totals["query_latency"]
    timing = totals["timing"]
    return {
        "scenario": name,
        "slo_cycles": report["slo_cycles"],
        "issued": latency["issued"],
        "completed": latency["completed"],
        "completed_within_slo": latency["completed_within_slo"],
        "abandoned": latency["abandoned"],
        "latency_p50": latency["p50"],
        "latency_p95": latency["p95"],
        "latency_p99": latency["p99"],
        "first_result_p50": latency["first_result_p50"],
        "queries_per_sec": timing["queries_per_sec"],
        "slo_queries_per_sec": timing["slo_queries_per_sec"],
    }


def measure_checkpoint(sim, users, seed):
    """Checkpoint/resume leg: snapshot size and save/resume wall time.

    Size and wall-clock are recorded for the trajectory, never gated (they
    depend on the runner). The byte-identity of the straight-through vs the
    checkpoint-at-K + resume JSON report IS enforced — that is a
    correctness property, not a perf number.
    """
    name = "diurnal"
    checkpoint_at = 20
    tmpdir = tempfile.mkdtemp()
    straight_json = os.path.join(tmpdir, "straight.json")
    resumed_json = os.path.join(tmpdir, "resumed.json")
    ckpt = os.path.join(tmpdir, "run.ckpt")
    base = [f"--scenario={name}", f"--users={users}", f"--seed={seed}"]
    try:
        start = time.monotonic()
        run_sim(sim, base + [f"--json={straight_json}"])
        straight_seconds = time.monotonic() - start

        start = time.monotonic()
        run_sim(sim, base + [f"--checkpoint-at={checkpoint_at}",
                             f"--checkpoint={ckpt}"])
        save_run_seconds = time.monotonic() - start
        snapshot_bytes = os.path.getsize(ckpt)

        start = time.monotonic()
        run_sim(sim, [f"--resume={ckpt}", f"--json={resumed_json}"])
        resume_run_seconds = time.monotonic() - start

        with open(straight_json, "rb") as f:
            straight = f.read()
        with open(resumed_json, "rb") as f:
            resumed = f.read()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if straight != resumed:
        sys.stderr.write(
            f"checkpoint/resume report diverged from the straight-through "
            f"run ({name}, K={checkpoint_at})\n")
        sys.exit(2)
    return {
        "scenario": name,
        "checkpoint_at": checkpoint_at,
        "snapshot_bytes": snapshot_bytes,
        "straight_run_seconds": straight_seconds,
        "save_run_seconds": save_run_seconds,
        "resume_run_seconds": resume_run_seconds,
        "byte_identical": True,
    }


def measure_convergence(sim, model, users, seed):
    """cycles_to_convergence for one latency model (deterministic).

    Runs the registered convergence scenario, whose lazy phase stops on its
    success-ratio target; the target and cycle budget live in the registry.
    """
    args = ["--scenario=convergence", f"--users={users}", f"--seed={seed}"]
    if model != "zero":
        args.append(f"--latency={model}")
    out = run_sim(sim, args)
    match = re.search(r"cycles_to_convergence:\s*(-?\d+)", out)
    if match is None:
        sys.stderr.write(f"no cycles_to_convergence in output:\n{out}\n")
        sys.exit(2)
    return int(match.group(1))


def append_trajectory(path, sha, bench):
    fields = ["git_sha", "kind", "name", "users", "seed", "threads", "cycles",
              "total_messages", "total_bytes", "wall_seconds",
              "cycles_per_sec", "user_cycles_per_sec", "lag_p50", "lag_p95",
              "dropped", "cycles_to_convergence", "pairs_per_sec_scalar",
              "pairs_per_sec_batched", "kernel_speedup", "simd_lane",
              "pairs_per_sec_lane_scalar", "pairs_per_sec_lane_avx2",
              "ql_p50", "ql_p95",
              "ql_p99", "slo_queries_per_sec", "plan_seconds",
              "barrier_seconds", "drain_seconds", "end_cycle_seconds",
              "shard_imbalance_mean",
              "shard_imbalance_max", "ckpt_bytes", "ckpt_save_seconds",
              "ckpt_resume_seconds", "peak_rss_mb", "arena_used_mb",
              "arena_reserved_mb"]
    new_file = not os.path.exists(path) or os.path.getsize(path) == 0
    with open(path, "a", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        if new_file:
            writer.writeheader()
        for name, s in bench["scenarios"].items():
            writer.writerow({
                "git_sha": sha, "kind": "scenario", "name": name,
                "users": bench["users"], "seed": bench["seed"],
                "threads": s["threads"], "cycles": s["cycles"],
                "total_messages": s["total_messages"],
                "total_bytes": s["total_bytes"],
                "wall_seconds": s["wall_seconds"],
                "cycles_per_sec": s["cycles_per_sec"],
                "user_cycles_per_sec": s["user_cycles_per_sec"],
                "lag_p50": s.get("delivery_lag_p50", ""),
                "lag_p95": s.get("delivery_lag_p95", ""),
                "dropped": s.get("delivery_dropped", ""),
                "cycles_to_convergence": "",
                "plan_seconds": s["plan_seconds"],
                "barrier_seconds": s["barrier_seconds"],
                "drain_seconds": s["drain_seconds"],
                "end_cycle_seconds": s["end_cycle_seconds"],
                "shard_imbalance_mean": s["shard_imbalance_mean"],
                "shard_imbalance_max": s["shard_imbalance_max"],
                "peak_rss_mb": s.get("peak_rss_mb", ""),
                "arena_used_mb": s.get("arena_used_mb", ""),
                "arena_reserved_mb": s.get("arena_reserved_mb", ""),
            })
        kernel = bench.get("similarity_kernel")
        if kernel is not None:
            lanes = kernel.get("lanes", {})
            writer.writerow({
                "git_sha": sha, "kind": "similarity-kernel",
                "name": "paper-scale-batch",
                "pairs_per_sec_scalar": kernel["scalar_pairs_per_sec"],
                "pairs_per_sec_batched": kernel["batched_pairs_per_sec"],
                "kernel_speedup": kernel["batched_speedup"],
                "simd_lane": kernel.get("auto_simd_lane", ""),
                "pairs_per_sec_lane_scalar": lanes.get("scalar", ""),
                "pairs_per_sec_lane_avx2": lanes.get("avx2", ""),
            })
        serving = bench.get("serving")
        if serving is not None:
            writer.writerow({
                "git_sha": sha, "kind": "serving", "name": serving["scenario"],
                "users": bench["users"], "seed": bench["seed"],
                "ql_p50": serving["latency_p50"],
                "ql_p95": serving["latency_p95"],
                "ql_p99": serving["latency_p99"],
                "slo_queries_per_sec": serving["slo_queries_per_sec"],
            })
        checkpoint = bench.get("checkpoint")
        if checkpoint is not None:
            writer.writerow({
                "git_sha": sha, "kind": "checkpoint",
                "name": checkpoint["scenario"],
                "users": bench["users"], "seed": bench["seed"],
                "ckpt_bytes": checkpoint["snapshot_bytes"],
                "ckpt_save_seconds": checkpoint["save_run_seconds"],
                "ckpt_resume_seconds": checkpoint["resume_run_seconds"],
            })
        for model, cycles in bench["convergence"].items():
            writer.writerow({
                "git_sha": sha, "kind": "convergence", "name": model,
                "users": bench["users"], "seed": bench["seed"],
                "cycles_to_convergence": cycles,
            })


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sim", required=True, help="path to p3q_sim")
    parser.add_argument("--bench", default="",
                        help="path to bench_micro_similarity (optional; "
                             "kernel throughput is skipped when absent)")
    parser.add_argument("--baseline", default="BENCH_baseline.json")
    parser.add_argument("--out", default="BENCH_pr.json")
    parser.add_argument("--trajectory", default="bench-trajectory.csv")
    parser.add_argument("--regression-threshold", type=float, default=0.10,
                        help="allowed fractional cycles-to-convergence "
                             "regression (default 0.10)")
    parser.add_argument("--write-baseline", metavar="PATH",
                        help="write the measured convergence numbers as a new "
                             "baseline to PATH and skip the gate")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    users = baseline["users"]
    seed = baseline["seed"]
    sha = os.environ.get("GITHUB_SHA", "local")

    bench = {
        "git_sha": sha,
        "users": users,
        "seed": seed,
        "scenarios": {},
        "convergence": {},
    }
    for name in SCENARIOS:
        print(f"running scenario {name} at {users} users ...", flush=True)
        bench["scenarios"][name] = measure_scenario(args.sim, name, users, seed)
    print("measuring similarity-kernel throughput ...", flush=True)
    bench["similarity_kernel"] = measure_similarity_kernel(args.bench)
    print(f"running open-loop serving at {users} users ...", flush=True)
    bench["serving"] = measure_serving(args.sim, users, seed)
    print(f"measuring checkpoint/resume at {users} users ...", flush=True)
    bench["checkpoint"] = measure_checkpoint(args.sim, users, seed)
    for model in CONVERGENCE_MODELS:
        print(f"measuring cycles-to-convergence under {model} ...", flush=True)
        bench["convergence"][model] = measure_convergence(
            args.sim, model, users, seed)

    with open(args.out, "w") as f:
        json.dump(bench, f, indent=2)
        f.write("\n")
    append_trajectory(args.trajectory, sha, bench)
    print(f"wrote {args.out} and appended to {args.trajectory}")
    kernel = bench["similarity_kernel"]
    if kernel is not None:
        print(f"similarity kernel: scalar "
              f"{kernel['scalar_pairs_per_sec']:,.0f} pairs/s, batched "
              f"{kernel['batched_pairs_per_sec']:,.0f} pairs/s "
              f"({kernel['batched_speedup']:.2f}x) — recorded, not gated")
        for lane, rate in kernel.get("lanes", {}).items():
            print(f"  batched[{lane}]: {rate:,.0f} pairs/s")
    serving = bench["serving"]
    print(f"serving ({serving['scenario']}): latency p50/p95/p99 "
          f"{serving['latency_p50']:.1f}/{serving['latency_p95']:.1f}/"
          f"{serving['latency_p99']:.1f} cycles, "
          f"{serving['slo_queries_per_sec']:,.1f} queries/s within the "
          f"{serving['slo_cycles']}-cycle SLO — recorded, not gated")
    checkpoint = bench["checkpoint"]
    print(f"checkpoint ({checkpoint['scenario']} at K="
          f"{checkpoint['checkpoint_at']}): snapshot "
          f"{checkpoint['snapshot_bytes']:,} bytes, save run "
          f"{checkpoint['save_run_seconds']:.2f} s, resume run "
          f"{checkpoint['resume_run_seconds']:.2f} s, reports byte-identical "
          f"— size/time recorded, not gated")

    if args.write_baseline:
        new_baseline = dict(baseline)
        new_baseline["convergence"] = bench["convergence"]
        new_baseline["peak_rss_mb"] = {
            name: round(s["peak_rss_mb"], 1)
            for name, s in bench["scenarios"].items()
            if "peak_rss_mb" in s
        }
        with open(args.write_baseline, "w") as f:
            json.dump(new_baseline, f, indent=2)
            f.write("\n")
        print(f"wrote new baseline to {args.write_baseline}")
        return 0

    # The gate: cycles-to-convergence must not regress beyond the threshold.
    failures = []
    for model, base_cycles in baseline["convergence"].items():
        measured = bench["convergence"].get(model)
        limit = base_cycles * (1.0 + args.regression_threshold)
        status = "ok"
        if measured is None or measured < 0:
            status = "NEVER CONVERGED"
            failures.append(model)
        elif measured > limit:
            status = f"REGRESSED (limit {limit:.1f})"
            failures.append(model)
        print(f"convergence[{model}]: baseline {base_cycles}, "
              f"measured {measured} -> {status}")
    # Peak RSS gate: the memory path's ratchet. Same fractional headroom as
    # convergence; absolute MB at fixed (users, seed) is allocation-driven,
    # so >threshold growth means the profile/index memory path regressed.
    for name, base_rss in baseline.get("peak_rss_mb", {}).items():
        measured = bench["scenarios"].get(name, {}).get("peak_rss_mb")
        limit = base_rss * (1.0 + args.regression_threshold)
        status = "ok"
        if measured is None:
            status = "NOT MEASURED"
            failures.append(f"peak_rss[{name}]")
        elif measured > limit:
            status = f"REGRESSED (limit {limit:.1f} MB)"
            failures.append(f"peak_rss[{name}]")
        measured_str = f"{measured:.1f}" if measured is not None else "n/a"
        print(f"peak_rss[{name}]: baseline {base_rss} MB, "
              f"measured {measured_str} MB -> {status}")
    if failures:
        print(f"perf gate FAILED for: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
