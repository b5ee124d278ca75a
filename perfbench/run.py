#!/usr/bin/env python3
"""End-to-end benchmark of TIPSY's three users.

    python3 perfbench/run.py --workload serve_read --seed 20211110 \
        --seconds 8 --trace 0

Builds perfbench_host (and the repository's libraries) from source, runs
one workload, checks its outputs, and prints one JSON object as the last
line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes the spans to .bench_build/perfbench/trace-*.json). See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20211110  # scenario::DefaultScenarioConfig's seed

# Per workload: the world its daemon serves and the serving session's
# shape. The idle phase (in four quarters spread over the session) and
# each try of the read phase last idle_share and read_share of --seconds;
# tries are made until read_tries of them were quiet. Hours are scenario hours the collector
# sends, first the mixed phase (lock-step, one per interval, starting on a
# day boundary, so each day of it begins with a close), then the backfill
# (pipelined, in chunks). Every workload also runs the paper experiment on
# the tiny world, EXPERIMENT_REPEATS times before the session and as often
# after it. Every workload reports every metric; the ones it exists for are
# listed in perfbench/README.md.
WORKLOADS = {
    "serve_read": dict(
        serving="default", restarts=3,
        idle_share=0.375, read_share=0.25, read_tries=3,
        mixed_hours=25, mixed_interval_ms=100,
        backfill_hours=23, backfill_chunk_hours=4),
    "serve_mixed": dict(
        serving="daemon6k", restarts=3,
        idle_share=0.375, read_share=0.25, read_tries=2,
        mixed_hours=72, mixed_interval_ms=200,
        backfill_hours=168, backfill_chunk_hours=24),
}
EXPERIMENT_REPEATS = 12
# Offered rates. Neither is a figure from the paper or the repository;
# both are assumptions (perfbench/README.md, "Offered load"):
# - IDLE_RATE, one connection: each request arrives some 10 ms after the
#   last answer, with the daemon asleep, as a sporadic caller's does (the
#   CMS asks a few questions per congestion event, events minutes apart).
# - READ_RATE, over 2 connections: a busy reader, in the read phase and
#   alongside the mixed phase.
IDLE_RATE = 100
READ_RATE = 4000

# The predict_max_qps ladder: READ_RATE, then 16,000 rising 8% a rung to
# about 110,000 req/s, 0.2 s each, climbed until a rung's p99 (or the
# median of its last tenth, the backlog test) exceeds 10 ms, or a request
# fails, three times running. Past the knee the backlog pushes latency
# over 10 ms within a rung; below it, only a stall of the host does. The
# ladder's 2 connections are blocking clients, so no more than 2 requests
# are ever in flight and the knee is near 2 / round trip (40-80k req/s on
# a 4-vCPU VM): the top rungs are there so the knee is always inside.
LADDER = [READ_RATE] + [round(16000 * 1.08 ** k) for k in range(26)]
RUNG_SECONDS = 0.2
LIMIT_US = 10000.0

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MiB", "experiment_s": "s",
    "predict_p50_us": "us", "predict_p99_us": "us",
    "predict_max_qps": "req/s",
    "ingest_rows_per_s": "rows/s", "day_close_ms": "ms",
}
PER_LAYER = {
    "scenario.simulate_s": "s", "scenario.rows": "count",
    "core.train_s": "s", "core.train_rows_per_s": "rows/s",
    "core.finalize_s": "s", "core.evalset_build_s": "s",
    "core.evaluate_s": "s", "core.tuples": "count",
    "core.flat_table_bytes": "bytes", "core.predict_ns_per_flow": "ns",
    "core.unpredicted_flow_frac": "ratio", "core.epoch_acquire_ns": "ns",
    "core.hour_apply_ms": "ms", "core.retrain_ms": "ms",
    "ha.journal_append_ms": "ms", "ha.journal_bytes_per_row": "bytes/row",
    "ha.snapshot_ms": "ms", "ha.snapshot_bytes": "bytes",
    "ha.compact_ms": "ms", "ha.restore_ms": "ms",
    "net.predict_rtt_us": "us", "net.idle_predict_p50_us": "us",
    "net.request_decode_us": "us",
    "net.response_encode_us": "us", "net.transport_us": "us",
    "net.records_per_fsync": "count", "net.window_wait_ms": "ms",
    "loadgen.late_ms": "ms", "loadgen.sent": "count",
    "loadgen.failed": "count",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(path)


def build():
    """Configures (once) and builds the host; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no TIPSY sources next to the benchmark (src/CMakeLists.txt)")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_host",
                    "-j", str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_host")


def filesystem_type(path):
    """fstype of the mount holding `path`, from /proc/mounts."""
    real = os.path.realpath(path)
    best, fstype = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if (real == mount or real.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) >= len(best):
                best, fstype = mount, fields[2]
    return fstype


def l2_per_core():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as f:
                if f.read().strip() == "2":
                    with open(os.path.join(base, index, "size")) as f:
                        return f.read().strip()
    except OSError:
        pass
    return "unknown"


# Every host call after the build shares one deadline, so a run ends
# within 180 s of its build however its steps divide the time.
DEADLINE_S = 170.0
deadline = None


def host(binary, args, env):
    """Runs one host subcommand; returns its last stdout line as JSON."""
    if args[0] in ("experiment", "load"):
        wait_for_quiet_host()
    start = time.monotonic()
    timeout = max(1.0, deadline - start)
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, env=env, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.wait()
        fail("%s timed out" % args[0])
    if proc.returncode != 0:
        fail("%s exited with %d" % (args[0], proc.returncode))
    lines = [line for line in out.splitlines() if line.strip()]
    log("perfbench: %s took %.1f s" % (args[0], time.monotonic() - start))
    return json.loads(lines[-1])


# Before each timed part the host may wait for a second in which the
# hypervisor stole at most 0.5% of the CPU time, up to this long in all
# per run: on a shared VM a neighbour's burst of steal (5-13% for a
# minute) slows every figure of the runs it hits.
QUIET_WAIT_S = 15.0
host_wait_s = 0.0


def cpu_times():
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:9]]
    return sum(fields), fields[7]


def wait_for_quiet_host():
    global host_wait_s
    start = time.monotonic()
    while host_wait_s + time.monotonic() - start < QUIET_WAIT_S:
        total, steal = cpu_times()
        time.sleep(1.0)
        total2, steal2 = cpu_times()
        if steal2 - steal <= 0.005 * max(1, total2 - total):
            break
    host_wait_s += time.monotonic() - start


def load_reference():
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def check_tables(result, recorded, problems):
    """Accuracy-table gates: the recorded digest, if any, and the shape."""
    if recorded is not None and recorded != result["digest"]:
        problems.append("accuracy tables digest %s != recorded %s"
                        % (result["digest"], recorded))
    overall = {row[0]: row[1:] for row in result["tables"]["overall"]}
    for rows in result["tables"].values():
        for row in rows:
            top = row[1:]
            if not all(0.0 <= v <= 100.0 for v in top) or \
                    not top[0] <= top[1] <= top[2]:
                problems.append("implausible accuracy row %s" % row)
    for fs in ("A", "AP", "AL"):
        model, oracle = overall.get("Hist_" + fs), overall.get("Oracle_" + fs)
        if model is None or oracle is None:
            problems.append("overall table lacks Hist_%s or Oracle_%s" % (fs, fs))
        elif any(m > o + 1e-9 for m, o in zip(model, oracle)):
            problems.append("Hist_%s beats its oracle" % fs)


def check_table4(result, reference, problems):
    """The default world on the default seed must reproduce EXPERIMENTS.md."""
    got = {row[0]: [round(v, 2) for v in row[1:]]
           for row in result["tables"]["overall"]}
    for model, want in reference["table4_default_seed"].items():
        if got.get(model) != want:
            problems.append("Table 4 %s = %s, EXPERIMENTS.md says %s"
                            % (model, got.get(model), want))


def experiment_args(size, seed, repeat):
    """Each repetition on a world of its own."""
    return ["experiment", "--seed", str(seed), "--size", size,
            "--setups", str(repeat), "--repeat", str(repeat)]


def run_experiments(binary, env, seed, trace_path, serve):
    """The tiny world's experiment, EXPERIMENT_REPEATS times before
    `serve()` and as often after it.

    experiment_s is the fastest repetition: a neighbour's load only ever
    adds time, and spreading the repetitions over the run keeps one slow
    spell of the host from deciding it.
    """
    args = experiment_args("tiny", seed, EXPERIMENT_REPEATS)
    first = host(binary, args + (["--trace", trace_path] if trace_path else []),
                 env)
    session = serve()
    second = host(binary, args, env)
    first["experiment_s"] += second["experiment_s"]
    first["repeats_match"] = (first["repeats_match"] and second["repeats_match"]
                              and first["digest"] == second["digest"])
    first["repeat"] += second["repeat"]
    return first, session


def hours_of(shape):
    return shape["mixed_hours"] + shape["backfill_hours"]


def prepared_state(binary, env, size):
    """The prepared serving state for a world, built by this build.

    One state serves every workload on that world: it holds enough hours
    after the window, and control digests, for all of them. It is the
    default seed's: --seed draws the requests, not the state (README.md,
    "Seeds"). A rebuild of the host replaces it.
    """
    counts = sorted({hours_of(w) for w in WORKLOADS.values()
                     if w["serving"] == size})
    stamp = os.stat(binary)
    identity = {"binary_mtime_ns": stamp.st_mtime_ns,
                "binary_size": stamp.st_size, "counts": counts}
    cache = os.path.join(build_dir(), "perfbench", "state")
    path = os.path.join(cache, "%s-%d" % (size, DEFAULT_SEED))
    marker = os.path.join(path, "prepared.json")
    try:
        with open(marker) as f:
            entry = json.load(f)
        if entry["identity"] == identity:
            log("perfbench: reusing prepared state %s" % path)
            return path, entry["prepared"]
    except (OSError, ValueError, KeyError):
        pass
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(cache, exist_ok=True)
    prepared = host(binary, ["prepare", "--seed", str(DEFAULT_SEED), "--size", size,
                             "--dir", path, "--future-hours", str(max(counts)),
                             "--digest-at", ",".join(map(str, counts))],
                    env)
    with open(marker + ".tmp", "w") as f:
        json.dump({"identity": identity, "prepared": prepared}, f)
    os.replace(marker + ".tmp", marker)
    # Write the new state back now, not while the daemon is measured.
    os.sync()
    return path, prepared


def run_session(binary, env, shape, request_seed, seconds, work, trace_path):
    """Drives daemons over the prepared serving state."""
    size = shape["serving"]
    path, prepared = prepared_state(binary, env, size)
    os.sync()  # nothing left to write back from earlier runs
    args = ["load", "--seed", str(DEFAULT_SEED),
            "--request-seed", str(request_seed), "--size", size,
            "--prepared", path, "--work", work,
            "--restarts", str(shape["restarts"]),
            "--idle-rate", str(IDLE_RATE),
            "--idle-seconds", "%.3f" % (shape["idle_share"] * seconds),
            "--read-rate", str(READ_RATE),
            "--read-seconds", "%.3f" % (shape["read_share"] * seconds),
            "--read-tries", str(shape["read_tries"]),
            "--ladder", ",".join(str(r) for r in LADDER),
            "--rung-seconds", str(RUNG_SECONDS),
            "--limit-us", str(LIMIT_US),
            "--mixed-hours", str(shape["mixed_hours"]),
            "--mixed-interval-ms", str(shape["mixed_interval_ms"]),
            "--backfill-hours", str(shape["backfill_hours"]),
            "--backfill-chunk-hours", str(shape["backfill_chunk_hours"]),
            "--window-digest", prepared["window_digest"],
            "--final-digest", prepared["control_digests"][str(hours_of(shape))]]
    if trace_path:
        args += ["--trace", trace_path]
    return host(binary, args, env)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    shape = WORKLOADS[args.workload]

    binary = build()
    global deadline
    deadline = time.monotonic() + DEADLINE_S
    out = build_dir()
    work = os.path.join(out, "perfbench", "%s-%d-%d" % (args.workload, args.seed,
                                                         os.getpid()))
    os.makedirs(work, exist_ok=True)
    fstype = filesystem_type(work)
    if fstype in ("tmpfs", "ramfs"):
        fail("state directory %s is on %s: fsync there measures nothing"
             % (work, fstype))
    nproc = len(os.sched_getaffinity(0))
    threads = min(4, nproc)
    env = dict(os.environ, TIPSY_THREADS=str(threads))
    trace_paths = {}
    if args.trace:
        for part in ("experiment", "session"):
            trace_paths[part] = os.path.join(
                out, "perfbench", "trace-%s-%d-%s.json"
                % (args.workload, args.seed, part))

    os.sync()  # write back what earlier runs left, before anything is timed
    paper = None
    try:
        def serve():
            return run_session(binary, env, shape, args.seed, args.seconds,
                               work, trace_paths.get("session"))
        experiment, session = run_experiments(
            binary, env, args.seed, trace_paths.get("experiment"), serve)
        # Table 4 is the default scenario's: on the default seed it is
        # checked too, on a run of its own that times nothing.
        if args.seed == DEFAULT_SEED:
            paper = host(binary, experiment_args("default", DEFAULT_SEED, 1), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = []  # wrong answers: each counts as one failed operation
    reference = load_reference()
    recorded = reference["experiment_digests"].get(str(args.seed))
    check_tables(experiment, recorded, problems)
    if recorded is None:
        log("perfbench: no recorded table digest for seed %d; "
            "checked the tables' shape only" % args.seed)
    if paper is not None:
        check_tables(paper, reference["default_world_digest"], problems)
        check_table4(paper, reference, problems)
    if not experiment["repeats_match"]:
        problems.append("repeated experiments gave different tables")
    if args.trace and not experiment["traced_tables_match"]:
        problems.append("traced experiment tables differ")
    attempted = (session["attempted"] + experiment["repeat"]
                 + int(paper is not None) + len(problems))
    failed = session["failed"] + len(problems)
    problems += session["errors"]
    if not session["generator_on_schedule"]:
        # Invalid rather than slow: the latencies measured the generator.
        problems.append("load generator fell behind its schedule "
                        "(p99 lag %.2f ms): run invalid"
                        % session["layers"]["loadgen.late_ms"])

    # serve_read's latency is its read phase's. serve_mixed's is its mixed
    # phase's, whose tail is the day closes it exists to show: the day (a
    # close and the 23 hours after it) with the lowest p99. Where a figure
    # is the best of several, a slow spell of the host, which only ever
    # adds time, is what the others carry.
    read = session["read"]
    if args.workload == "serve_read":
        latency = read
    else:
        mixed = session["mixed"]
        day = min(range(len(mixed["day_p99_us"])),
                  key=lambda d: mixed["day_p99_us"][d])
        latency = {"p50_us": mixed["day_p50_us"][day],
                   "p99_us": mixed["day_p99_us"][day]}
    end_to_end = {
        "setup_s": statistics.median(session["setup_s"]),
        "peak_rss_mb": max(session["daemon_rss_mb"]),
        "experiment_s": min(experiment["experiment_s"]),
        "predict_p50_us": latency["p50_us"],
        "predict_p99_us": latency["p99_us"],
        "predict_max_qps": session["max_qps"],
        "ingest_rows_per_s": session["backfill"]["rows_per_s"],
        "day_close_ms": min(session["mixed"]["day_close_ms"]),
    }

    facts = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "nproc": nproc, "TIPSY_THREADS": threads,
        "build_type": "Release", "l2_per_core": l2_per_core(),
        "state_fs": fstype,
        "experiment_runs_s": experiment["experiment_s"],
        "served_tuples": session["layers"]["core.tuples"],
        "served_flat_bytes": session["layers"]["core.flat_table_bytes"],
        "generator_lag_p99_ms": session["layers"]["loadgen.late_ms"],
        "idle_phase": session["idle"],
        "idle_parts_p50_us": session["idle_parts_p50_us"], "read_phase": read,
        "read_tries": session["read_tries"],
        "read_quiet_wait_s": session["read_quiet_wait_s"],
        "host_wait_s": host_wait_s,
        "request_flows": {"p50": session["request_flows_p50"],
                          "p99": session["request_flows_p99"]},
        "mixed_phase": session["mixed"],
        "ladder": session["ladder"], "backfill": session["backfill"],
        "session_steps_s": session["step_s"],
    }

    if args.trace:
        layers = dict(session["layers"])
        # The served working set is the session's.
        served = ("core.tuples", "core.flat_table_bytes")
        layers.update({k: v for k, v in experiment["layers"].items()
                       if k not in served})
        layers["net.idle_predict_p50_us"] = min(session["idle_parts_p50_us"])
        layers["net.records_per_fsync"] = session["backfill"]["records_per_fsync"]
        layers["net.window_wait_ms"] = session["backfill"]["window_wait_ms"]
        layers["net.transport_us"] = (
            layers["net.predict_rtt_us"] - layers["net.request_decode_us"]
            - session["local_predict_us"] - layers["net.response_encode_us"])
        report_self_times(experiment, session)
        log("perfbench: the session's end-to-end figures carry no spans (its "
            "layers are timed in process, beside the daemon): %s"
            % json.dumps(end_to_end))
        covered = sum(layers[k] for k in (
            "scenario.simulate_s", "core.train_s", "core.finalize_s",
            "core.evalset_build_s", "core.evaluate_s"))
        untraced = min(experiment["experiment_s"])
        traced = experiment["traced_experiment_s"]
        log("perfbench: experiment %.3f s untraced, %.3f s traced "
            "(tracing overhead %+.3f s); the layers account for %.3f s"
            % (untraced, traced, traced - untraced, covered))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    for problem in problems:
        log("perfbench: FAILED CHECK: " + problem)
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def report_self_times(experiment, session):
    for name, part in (("experiment", experiment), ("session", session)):
        if "self_s" not in part:
            continue
        log("perfbench: %s self time by span (s):" % name)
        for span, seconds in sorted(part["self_s"].items(),
                                    key=lambda item: -item[1]):
            log("  %-28s %10.4f" % (span, seconds))


if __name__ == "__main__":
    main()
