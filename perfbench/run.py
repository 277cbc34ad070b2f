#!/usr/bin/env python3
"""Wire-level serving benchmark for osap_serve.

One command per workload:

    python3 perfbench/run.py --workload upi-mixed --seed 1 --seconds 10 --trace 0

It builds the shipped server and the benchmark's two programs from this
checkout's sources (perfbench/CMakeLists.txt), trains or loads the
Gamma(2,2) deployment into perfbench/.work/osap_cache (untimed), then

  1. perfbench_wire spawns `osap_serve <signal> --listen 0 --shards 2`
     several times (set-up samples), drives one server at the workload's
     fixed offered rate with staggered open-loop arrivals and another in a
     closed loop (capacity), and reads the server's CPU, context switches,
     syscalls and peak RSS from outside;
  2. perfbench_replay replays the same viewers in process at the wire
     run's mean batch size, checks every completed session's QoE against
     the wire and the decomposed decision path against DecideBatch, and
     (--trace 1) derives per-layer costs from recorded spans.

Every metric is printed by name with its unit; the last stdout line is one
JSON object. When a correctness gate fails nothing is reported and the
exit code is 1. --quick runs every phase and gate on a tiny population in
a few seconds (for testing the harness itself).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# Share of --seconds given to the fixed-rate and closed-loop phases; the
# rest of the run is set-up, pre-aging and the in-process replay.
FIXED_SHARE = 0.6
CLOSED_SHARE = 0.25
QUICK = {"viewers": 120, "rate": 3000, "seconds": 1.5}

END_TO_END = [
    ("setup_s", "s"),
    ("server_cpu_us_per_decision", "us"),
    ("server_rss_mb", "MiB"),
    ("ok_share", "share"),
    ("qoe_id", "score"),
    ("qoe_ood", "score"),
]

PER_LAYER = [
    ("step_p50_us", "us"),
    ("max_dps", "1/s"),
    ("step_p99_us", "us"),
    ("open_p99_us", "us"),
    ("net.batch_mean", "count"),
    ("net.syscalls_per_decision", "count"),
    ("net.ctx_switches_per_decision", "count"),
    ("net.edge_us_per_decision", "us"),
    ("net.busy_share", "share"),
    ("net.closed_lane_util", "share"),
    ("protocol.encode_request_ns", "ns"),
    ("protocol.decode_request_ns", "ns"),
    ("protocol.encode_reply_ns", "ns"),
    ("protocol.decode_reply_ns", "ns"),
    ("serve.decide_us_per_decision", "us"),
    ("serve.decide_wall_us_per_decision", "us"),
    ("serve.stage_sum_us_per_decision", "us"),
    ("serve.overhead_us_per_decision", "us"),
    ("serve.open_us", "us"),
    ("serve.close_us", "us"),
    ("serve.bytes_per_session", "B"),
    ("serve.defaulted_share", "share"),
    ("model.score_us_per_decision", "us"),
    ("model.actor_us_per_decision", "us"),
    ("model.fallback_ns", "ns"),
    ("core.observe_ns", "ns"),
    ("core.extractor_push_ns", "ns"),
    ("client.lag_p99_us", "us"),
    ("client.env_step_us", "us"),
    ("client.open_samples", "count"),
    ("client.failed_share", "share"),
    ("client.host_steal_share", "share"),
    ("trace.overhead_share", "share"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run(cmd, cwd, timeout, capture=True):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=subprocess.PIPE if capture else sys.stderr,
                            text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{os.path.basename(cmd[0])} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-20:]
        raise BenchError(f"{os.path.basename(cmd[0])} exited with "
                         f"{proc.returncode}:\n" + "\n".join(tail))
    return out


def build(deadline):
    """Configures and builds perfbench/ (incremental after the first run)."""
    for needed in ("src/CMakeLists.txt", "tools/osap_serve.cpp"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise BenchError(f"repository source {needed} is missing; "
                             "run from a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    tree = os.path.join(os.path.abspath(target), "perfbench")
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            cwd=ROOT, timeout=max(10, deadline - time.monotonic()), capture=False)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", tree, "-j", jobs], cwd=ROOT,
        timeout=max(10, deadline - time.monotonic()), capture=False)
    return tree


def spec_args(spec, seed, seconds):
    return ["--signal", spec["signal"], "--viewers", str(spec["viewers"]),
            "--session-len", str(spec["session_len"]),
            "--rate", str(spec["rate"]), "--shards", str(spec["shards"]),
            "--fixed-seconds", repr(FIXED_SHARE * seconds),
            "--closed-seconds", repr(CLOSED_SHARE * seconds),
            "--seed", str(seed)]


def last_json(text, who):
    lines = [l for l in text.strip().splitlines() if l.startswith("{")]
    if not lines:
        raise BenchError(f"{who} printed no result")
    return json.loads(lines[-1])


def measure(args, tree, deadline):
    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    if args.workload not in workloads:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(one of {', '.join(workloads)})")
    spec = dict(workloads[args.workload])
    seconds = args.seconds
    if args.quick:
        spec.update(viewers=QUICK["viewers"], rate=QUICK["rate"])
        seconds = QUICK["seconds"]
    os.makedirs(WORK, exist_ok=True)
    wire_bin = os.path.join(tree, "perfbench_wire")
    replay_bin = os.path.join(tree, "perfbench_replay")
    server_bin = os.path.join(tree, "osap_serve")

    # Untimed preparation: train (first run in a checkout) or load.
    run([replay_bin, "--prepare"], cwd=WORK,
        timeout=max(10, deadline - time.monotonic()))

    common = spec_args(spec, args.seed, seconds)
    sessions = os.path.join(WORK, f"sessions-{args.workload}.txt")
    wire = last_json(run([wire_bin, "--server", server_bin,
                          "--sessions-out", sessions]
                         + common, cwd=WORK,
                         timeout=max(10, deadline - time.monotonic())),
                     "perfbench_wire")
    batch = max(1, round(wire["fixed_decisions"] / max(1, wire["fixed_epochs"])))
    replay = last_json(run([replay_bin, "--batch", str(batch),
                            "--trace", str(args.trace),
                            "--sessions-in", sessions,
                            "--spans-out",
                            os.path.join(WORK, f"spans-{args.workload}.csv")]
                           + common, cwd=WORK,
                           timeout=max(10, deadline - time.monotonic())),
                       "perfbench_replay")

    gates = list(wire["failed_gates"]) + list(replay["failed_gates"])
    if gates:
        raise BenchError("correctness gates failed:\n  " + "\n  ".join(gates))

    decisions = wire["fixed_decisions"]
    sent = wire["sent"]
    failed = wire["busy"] + wire["full"] + wire["error"] + wire["lost"]
    cpu_us = wire["server_cpu_ns"] / 1e3 / decisions
    e2e = {
        "setup_s": statistics.median(wire["setup_s"]),
        "server_cpu_us_per_decision": cpu_us,
        "server_rss_mb": wire["server_maxrss_kb"] / 1024.0,
        "ok_share": wire["ok"] / sent,
        "qoe_id": replay["qoe_id"],
        "qoe_ood": replay["qoe_ood"],
    }
    layer = dict(replay["metrics"])
    layer.update({
        "step_p50_us": wire["step_p50_us"],
        "max_dps": wire["max_dps"],
        "step_p99_us": wire["step_p99_us"],
        "open_p99_us": wire["open_p99_us"],
        "net.batch_mean": decisions / max(1, wire["fixed_epochs"]),
        "net.syscalls_per_decision":
            wire["server_syscalls"] / max(1, wire["server_decided"]),
        "net.ctx_switches_per_decision": wire["server_ctx"] / decisions,
        "net.busy_share": wire["busy"] / sent,
        "net.closed_lane_util": wire["closed_server_util"],
        "serve.defaulted_share": wire["defaulted_replies"] / decisions,
        "client.lag_p99_us": wire["lag_p99_us"],
        "client.env_step_us": wire["env_step_us"],
        "client.open_samples": wire["open_samples"],
        "client.failed_share": failed / sent,
        "client.host_steal_share": wire["steal_share"],
    })
    if args.trace:
        layer["net.edge_us_per_decision"] = (
            cpu_us - layer["serve.decide_us_per_decision"])
    return spec, seconds, wire, e2e, layer


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny population and phases (harness testing)")
    args = parser.parse_args()
    started = time.monotonic()
    # The first run in a checkout builds and trains; later runs must end
    # well inside three minutes.
    deadline = started + 880
    try:
        tree = build(deadline)
        if time.monotonic() - started > 5:
            deadline = time.monotonic() + 170
        else:
            deadline = started + 170
        spec, seconds, wire, e2e, layer = measure(args, tree, deadline)
    except BenchError as e:
        log(str(e))
        return 1

    print(f"workload {args.workload}: {spec['signal']}, {spec['viewers']} "
          f"viewers, {spec['session_len']}-chunk sessions, "
          f"{spec['rate']} decisions/s offered, {spec['shards']} shard lanes, "
          f"1 edge; {seconds:g} s, seed {args.seed}")
    print(f"  OPEN samples {wire['open_samples']:.0f} "
          f"({wire['open_beyond_p99']:.0f} beyond p99), completed sessions "
          f"{wire['completed_sessions']:.0f}; attempts fixed-rate "
          f"{wire['fixed_attempts']:.0f}, closed-loop "
          f"{wire['closed_attempts']:.0f} (host steal "
          f"{wire['steal_share']:.3f}, {wire['closed_steal_share']:.3f})")
    units = dict(END_TO_END + PER_LAYER)
    for name, _ in END_TO_END:
        print(f"  {name:34s} {e2e[name]:14.6g} {units[name]}")
    if args.trace:
        for name, _ in PER_LAYER:
            print(f"  {name:34s} {layer[name]:14.6g} {units[name]}")
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layer if args.trace else e2e
    result = {
        "correct": True,
        "attempted": int(wire["sent"]),
        "failed": int(wire["busy"] + wire["full"] + wire["error"] + wire["lost"]),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
