#!/usr/bin/env python3
"""Validate the BENCH_*.json artifacts the bench binaries emit.

CI runs the benches in smoke mode and then this script, so a refactor
that silently breaks an emitter (malformed JSON, a dropped key, an empty
series) fails the pipeline instead of producing a hollow artifact.

Usage: check_bench_json.py [dir]
  Scans `dir` (default: the current directory) for BENCH_*.json. Known
  files are checked against their schema: required top-level keys, the
  name of their series array, per-entry required keys, and that every
  series is non-empty. Unknown BENCH_*.json files only need to be valid
  JSON objects with a "bench" key and at least one non-empty list value.
Exits non-zero, listing every problem, if anything is malformed.
"""

import json
import pathlib
import sys

# file name -> (required top-level keys, series key, required series-entry
# keys). Every listed series must be a non-empty list of objects. Keys
# must track the emitters exactly (docs/BENCHMARKS.md documents both
# sides); a key the emitter writes but the schema does not require is
# drift that lets a silently-dropped field through.
SCHEMAS = {
    "BENCH_parallel.json": (
        {"bench", "hardware_concurrency", "speedups_measurable",
         "simulated_hours", "train_rows", "eval_cases", "points"},
        "points",
        {"threads", "simulate_hours_per_s", "simulate_speedup",
         "train_rows_per_s", "train_speedup", "eval_cases_per_s",
         "eval_speedup", "bit_identical"},
    ),
    "BENCH_robustness.json": (
        {"bench", "hardware_concurrency", "warmup_days", "live_days",
         "window_days", "eval_cases", "classes"},
        "classes",
        {"name", "top1", "delta_top1_vs_clean", "worst_health",
         "final_health", "retrain_failures", "cms_health_fallbacks",
         "archive_blocks_recovered", "archive_status"},
    ),
    "BENCH_ha.json": (
        {"bench", "hardware_concurrency", "warmup_days", "live_days",
         "window_days", "crash_cases", "failover", "net", "pool"},
        "crash_cases",
        {"name", "crash_at_hour", "restore_source", "replayed_records",
         "skipped_records", "recovery_ms", "bit_identical"},
    ),
    "BENCH_incremental.json": (
        {"bench", "hardware_concurrency", "window_days", "total_days",
         "stream_rows", "steady_state", "boundaries"},
        "boundaries",
        {"day", "window_rows", "full_ms", "incremental_ms", "steady_state",
         "bit_identical"},
    ),
    "BENCH_obs.json": (
        {"bench", "mode", "small", "hardware_concurrency", "queries",
         "prediction_path", "points", "primitives"},
        "points",
        {"batch", "queries", "baseline_ns", "instrumented_ns",
         "overhead_pct", "within_target"},
    ),
    "BENCH_serving.json": (
        {"bench", "mode", "small", "hardware_concurrency", "queries",
         "prediction_path", "epoch", "points"},
        "points",
        {"backend", "batch", "queries", "ns_per_query", "ns_per_flow"},
    ),
    "BENCH_whatif.json": (
        {"bench", "small", "hardware_concurrency", "flows", "candidates",
         "bit_identical", "points"},
        "points",
        {"threads", "ms", "candidates_per_s", "bit_identical"},
    ),
}


def check_obs_targets(data: dict) -> list[str]:
    """Every batch row must hold the dual instrumentation-overhead target
    (< 3% relative or < 30 ns/query absolute).

    A headline aggregate alone would let a regression confined to small
    batches (e.g. batch=1 paying a full clock-read pair per query) hide
    inside a passing average, so CI asserts the committed artifact row
    by row. Smoke (--small) artifacts are exempt: min-of-5-rounds on a
    tiny workload is noisy enough to flip a verdict without any code
    change.
    """
    if data.get("small") is True:
        return []
    problems = []
    for index, entry in enumerate(data.get("points", [])):
        if isinstance(entry, dict) and entry.get("within_target") is not True:
            problems.append(
                f"points[{index}] (batch={entry.get('batch')}): overhead "
                f"{entry.get('overhead_pct')}% not within the <3%-or-<30ns "
                "target")
    path = data.get("prediction_path", {})
    if isinstance(path, dict) and path.get("within_target") is not True:
        problems.append("prediction_path.within_target is not true")
    return problems


def check_serving_targets(data: dict) -> list[str]:
    """PR 6 acceptance over the committed artifact: the flat serving core
    must stay under 75 ns/query (BENCH_obs-comparable metric) and at least
    2x faster than the 149.2 ns/query recorded before the rewrite.

    Smoke (--small) artifacts are exempt: the comparable metric bakes in
    the full-mode round count, so a smoke run's absolute numbers are not
    on the recorded baseline's scale.
    """
    if data.get("small") is True:
        return []
    problems = []
    path = data.get("prediction_path", {})
    if not isinstance(path, dict):
        return ["prediction_path is not an object"]
    if path.get("within_target") is not True:
        problems.append(
            f"prediction_path: flat {path.get('flat_ns_per_query')} "
            f"ns/query not within the <{path.get('target_ns_per_query')} "
            "ns target")
    speedup = path.get("speedup_vs_recorded")
    if not isinstance(speedup, (int, float)) or speedup < 2.0:
        problems.append(
            f"prediction_path.speedup_vs_recorded {speedup!r} is below "
            "the required 2x over the recorded baseline")
    return problems


def check_parallel_speedups(data: dict) -> list[str]:
    """Speedup fields must be numbers on multi-core hosts and the literal
    "skipped: 1 core" on single-core hosts, where a ~1x reading would be
    scheduler noise presented as a measurement. Every thread count must
    also reproduce the serial run bit for bit (simulated rows, exported
    table, accuracy): a speedup that changed the results is no speedup."""
    problems = []
    measurable = data.get("speedups_measurable")
    for index, entry in enumerate(data.get("points", [])):
        if not isinstance(entry, dict):
            continue
        if entry.get("bit_identical") is not True:
            problems.append(
                f"points[{index}] (threads={entry.get('threads')}): "
                "bit_identical is not true")
        for key in ("simulate_speedup", "train_speedup", "eval_speedup"):
            value = entry.get(key)
            if measurable is True and not isinstance(value, (int, float)):
                problems.append(
                    f"points[{index}].{key}: expected a number on a "
                    f"multi-core host, got {value!r}")
            if measurable is False and value != "skipped: 1 core":
                problems.append(
                    f"points[{index}].{key}: expected \"skipped: 1 core\" "
                    f"on a single-core host, got {value!r}")
    return problems


def check_ha_net(data: dict) -> list[str]:
    """The networked failover lane (real sockets through the fault proxy)
    must actually run, promote a standby within the tick-derived promotion
    budget, and serve at least one predict request end to end. A lane that
    silently skipped (warmup never converged) or promoted late would
    otherwise still produce a schema-valid artifact.
    """
    net = data.get("net")
    if not isinstance(net, dict):
        return ["'net' is not an object"]
    problems = []
    if net.get("ran") is not True:
        problems.append("net.ran is not true (warmup never converged)")
    if net.get("promoted") is not True:
        problems.append("net.promoted is not true: the standby was never "
                        "promoted after the partition")
    budget = net.get("promotion_budget_ms")
    if not isinstance(budget, (int, float)) or budget <= 0:
        problems.append(
            f"net.promotion_budget_ms {budget!r}: the promotion budget "
            "must be derived from the tick cadence "
            "((heartbeat_timeout_ticks + 1) * tick_ms)")
    if net.get("promoted_within_budget") is not True:
        problems.append(
            f"promotion took {net.get('promotion_ticks')} ticks of "
            f"{net.get('tick_ms')} ms, exceeding the tick-derived budget "
            f"of {budget} ms")
    ok = net.get("requests_ok")
    if not isinstance(ok, int) or ok <= 0:
        problems.append(
            f"net.requests_ok {ok!r}: no predict request survived the run")
    problems.extend(check_ha_pool(data))
    return problems


def check_ha_pool(data: dict) -> list[str]:
    """The pooled-read lane: a 1-primary/2-standby fleet must serve at
    least 95% of pooled predict requests through the partition-driven
    promotion, keep serving *inside* the partition window, and never
    duplicate a journal apply. A lane that silently skipped or a pool
    that blackholed reads during the failover would otherwise still
    produce a schema-valid artifact.
    """
    pool = data.get("pool")
    if not isinstance(pool, dict):
        return ["'pool' is not an object"]
    problems = []
    if pool.get("ran") is not True:
        problems.append("pool.ran is not true (the pooled lane never ran)")
    total = pool.get("requests_total")
    if not isinstance(total, int) or total <= 0:
        problems.append(
            f"pool.requests_total {total!r}: no pooled request was issued")
    fraction = pool.get("served_fraction")
    if not isinstance(fraction, (int, float)) or fraction < 0.95:
        problems.append(
            f"pool.served_fraction {fraction!r} is below the 0.95 gate: "
            "the fleet failed to serve reads through the promotion")
    during = pool.get("served_during_failover")
    if not isinstance(during, int) or during <= 0:
        problems.append(
            f"pool.served_during_failover {during!r}: no read was served "
            "inside the partition window")
    if pool.get("zero_duplicates") is not True:
        problems.append(
            "pool.zero_duplicates is not true: a replica re-applied or "
            "missed a journal record during the pooled lane")
    return problems


def check_robustness_chaos(data: dict) -> list[str]:
    """The `chaos` object is written by tools/chaos_harness (the bench
    emitter preserves it across rewrites). Every recorded seed must have
    converged bit-identically, exercised the snapshot catch-up path, and
    carried a digest — a harness run that quietly skipped the interesting
    paths would otherwise still merge a schema-valid object.
    """
    chaos = data.get("chaos")
    if chaos is None:
        # Legitimate before the first harness run on this checkout; the
        # CI chaos job always merges before checking.
        return []
    if not isinstance(chaos, dict):
        return ["'chaos' is not an object"]
    problems = []
    seeds = chaos.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        return ["chaos.seeds is missing or empty"]
    if chaos.get("all_converged") is not True:
        problems.append("chaos.all_converged is not true")
    for index, entry in enumerate(seeds):
        if not isinstance(entry, dict):
            problems.append(f"chaos.seeds[{index}] is not an object")
            continue
        for key in ("seed", "events", "hours_fed", "kills", "restarts",
                    "partitions", "promotions", "snapshot_catchups",
                    "converged", "digest"):
            if key not in entry:
                problems.append(
                    f"chaos.seeds[{index}] missing key '{key}'")
        if entry.get("converged") is not True:
            problems.append(
                f"chaos.seeds[{index}] (seed={entry.get('seed')}) did not "
                "converge bit-identically")
        catchups = entry.get("snapshot_catchups")
        if not isinstance(catchups, int) or catchups <= 0:
            problems.append(
                f"chaos.seeds[{index}] (seed={entry.get('seed')}): "
                f"snapshot_catchups {catchups!r} — the snapshot catch-up "
                "path was never exercised")
        digest = entry.get("digest")
        if not isinstance(digest, str) or len(digest) != 8:
            problems.append(
                f"chaos.seeds[{index}] (seed={entry.get('seed')}): digest "
                f"{digest!r} is not an 8-hex crc32c")
    return problems


def check_whatif_determinism(data: dict) -> list[str]:
    """The what-if sweep's ranked reports must be bit-identical at every
    thread count. Unlike the timing targets this binds for --small
    artifacts too: determinism is a correctness contract, not a
    measurement, so workload scale cannot excuse a divergence."""
    problems = []
    if data.get("bit_identical") is not True:
        problems.append("bit_identical is not true: the sweep diverged "
                        "across thread counts")
    for index, entry in enumerate(data.get("points", [])):
        if isinstance(entry, dict) and entry.get("bit_identical") is not True:
            problems.append(
                f"points[{index}] (threads={entry.get('threads')}): reports "
                "differ from the single-threaded reference")
    return problems


# file name -> extra semantic checks run after the schema passes.
TARGET_CHECKS = {
    "BENCH_ha.json": check_ha_net,
    "BENCH_robustness.json": check_robustness_chaos,
    "BENCH_obs.json": check_obs_targets,
    "BENCH_serving.json": check_serving_targets,
    "BENCH_parallel.json": check_parallel_speedups,
    "BENCH_whatif.json": check_whatif_determinism,
}


def check_file(path: pathlib.Path) -> list[str]:
    problems = []
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path.name}: unreadable or malformed JSON: {error}"]
    if not isinstance(data, dict):
        return [f"{path.name}: top level is not a JSON object"]

    schema = SCHEMAS.get(path.name)
    if schema is None:
        if "bench" not in data:
            problems.append(f"{path.name}: missing required key 'bench'")
        if not any(isinstance(v, list) and v for v in data.values()):
            problems.append(f"{path.name}: no non-empty series array")
        return problems

    required, series_key, entry_keys = schema
    for key in sorted(required - data.keys()):
        problems.append(f"{path.name}: missing required key '{key}'")
    series = data.get(series_key)
    if not isinstance(series, list) or not series:
        problems.append(
            f"{path.name}: series '{series_key}' is missing or empty")
        return problems
    for index, entry in enumerate(series):
        if not isinstance(entry, dict):
            problems.append(
                f"{path.name}: {series_key}[{index}] is not an object")
            continue
        for key in sorted(entry_keys - entry.keys()):
            problems.append(
                f"{path.name}: {series_key}[{index}] missing key '{key}'")
    if not problems and path.name in TARGET_CHECKS:
        problems.extend(
            f"{path.name}: {issue}"
            for issue in TARGET_CHECKS[path.name](data))
    return problems


def main() -> int:
    directory = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(directory.glob("BENCH_*.json"))
    if not files:
        print(f"check_bench_json: no BENCH_*.json found in {directory}",
              file=sys.stderr)
        return 1
    problems = []
    for path in files:
        issues = check_file(path)
        problems.extend(issues)
        status = "FAIL" if issues else "OK"
        print(f"{status:4} {path.name}")
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)
    if problems:
        print(f"check_bench_json: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print(f"check_bench_json: {len(files)} file(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main())
