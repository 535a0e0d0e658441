#!/usr/bin/env python3
"""Fabric-simulator benchmark: one workload, one seed, one result line.

    python3 fabbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fabbench/run.py --selftest

Run from the repository root. The first call builds the simulator library
and the `fabbench` program from source (Release) into
$CARGO_TARGET_DIR/fabbench (default .bench_build/fabbench).

--trace 0 runs the workload again and again, each time in a fresh process,
for S seconds (at least three runs) and prints the end-to-end metrics:
medians of the host-time measurements, and the simulated ones, which every
run of one seed must reproduce exactly.

--trace 1 spends half of S on the same untraced runs (the baseline for
trace.overhead_frac), then one process makes an untraced run with a packet
capture, a traced run of the same seed, and the layer replays, writes one
Perfetto file under <build>/traces/, and prints the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. attempted counts host-injected packets and failed the
ones lost (never delivered to a host or a management port). A failed
correctness check prints correct=false, names the check on stderr and
exits 1. The run's provenance (source digest, commit when known, nproc,
seed, build type, run length) is printed on the line before and kept with
the result under <build>/results/. Nothing is written outside the build
directory.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ft4_incast_adcp", "ls_churn_rmt", "inc_agg_adcp", "ft8_full_rtc"]
BUILD_TYPE = "Release"
MIN_RUNS = 3

END_TO_END = {
    "setup_s": "s",
    "pkts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_cct_p50_us": "us",
    "sim_cct_p90_us": "us",
}
# Host-time measurements: one value per run, the result is their median.
MEDIAN_OF_RUNS = ["setup_s", "pkts_per_s", "peak_rss_mb"]
# Simulated measurements: identical in every run of one seed.
DETERMINISTIC = ["sim_cct_p50_us", "sim_cct_p90_us", "sim.digest", "attempted"]

PER_LAYER = {
    "sim.events": "count",
    "sim.events_per_pkt": "count",
    "sim.ns_per_event": "ns",
    "sim.kernel_ns": "ns",
    "sim.digest": "hash",
    "pdes.busy_ms": "ms",
    "pdes.horizon_wait_ms": "ms",
    "pdes.busy_frac": "frac",
    "pdes.epochs": "count",
    "pdes.messages": "count",
    "pdes.mailbox_occ_p99": "count",
    "packet.parse_calls": "count",
    "packet.parse_ns": "ns",
    "packet.deparse_ns": "ns",
    "packet.pool_fresh": "count",
    "packet.pool_reuse": "frac",
    "topo.fib_lookups": "count",
    "topo.fib_lookup_ns": "ns",
    "topo.trunk_pkts": "count",
    "topo.hops_p50": "count",
    "topo.ecmp_imbalance": "ratio",
    "coflow.tracker_mismatch": "count",
    "tm.enqueued": "count",
    "tm.drops_admission": "count",
    "tm.enqdeq_ns": "ns",
    "tm.queue_wait_p90_us": "us",
    "mat.array_batches": "count",
    "mat.array_update_ns": "ns",
    "mat.bytes_touched": "B",
    "mat.versioned_hits": "count",
    "mat.staleness_misses": "count",
    "switch.drops.parse": "count",
    "switch.drops.program": "count",
    "switch.drops.no_route": "count",
    "switch.drops.admission": "count",
    "switch.drops.recirc_limit": "count",
    "switch.drops.dispatch_queue": "count",
    "rmt.recirc_passes": "count",
    "rtc.dispatch_drops": "count",
    "fastpath.hits": "count",
    "fastpath.misses": "count",
    "fastpath.hit_rate": "frac",
    "fastpath.invalidations": "count",
    "fastpath.evictions": "count",
    "ctrl.update_packets": "count",
    "ctrl.installs": "count",
    "ctrl.batch_latency_mean_us": "us",
    "ctrl.batch_latency_max_us": "us",
    "ctrl.decode_ns": "ns",
    "ctrl.hit_rate": "frac",
    "telem.stamps": "count",
    "telem.stamp_bytes": "B",
    "telem.postcards": "count",
    "telem.reports": "count",
    "telem.decode_ns": "ns",
    "net.host_tx_pkts": "count",
    "net.host_rx_pkts": "count",
    "net.mgmt_consumed": "count",
    "net.rx_reordered": "count",
    "loss_frac": "frac",
    "phase.setup_ms": "ms",
    "phase.inject_ms": "ms",
    "phase.run_ms": "ms",
    "phase.report_ms": "ms",
    "span.pipeline_p50_us": "us",
    "span.trunk_p50_us": "us",
    "span.recirc_p50_us": "us",
    "span.tx_p50_us": "us",
    "trace.spans": "count",
    "trace.spans_overwritten": "count",
    "trace.overhead_frac": "frac",
    "est_share.sim": "frac",
    "est_share.packet": "frac",
    "est_share.topo": "frac",
    "est_share.tm": "frac",
    "est_share.mat": "frac",
    "est_share.ctrl": "frac",
    "est_share.telem": "frac",
    "est_share.unattributed": "frac",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(base if os.path.isabs(base) else os.path.join(ROOT, base), "fabbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("fabbench: simulator sources (src/) not found next to fabbench/")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "--target", "fabbench", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("fabbench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(bdir, "fabbench")


def run_once(binary, workload, seed, scale=1.0, trace_out=None):
    """One fabbench process; returns (exit code, parsed JSON or None, stderr)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--scale", repr(scale)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    data = None
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            data = json.loads(lines[-1])
        except json.JSONDecodeError:
            data = None
    return proc.returncode, data, proc.stderr


class Runs:
    """Untraced fabbench runs of one workload and seed, with their checks."""

    def __init__(self):
        self.values = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def add(self, code, data, err):
        if data is None:
            self.failures.append("fabbench exit %d without a result: %s" % (code, err.strip()[-500:]))
            return None
        self.failures += data["failures"]
        if code != 0 and data["ok"]:
            self.failures.append("fabbench exit %d" % code)
        v = data["values"]
        self.attempted += int(v.get("attempted", 0))
        self.failed += int(v.get("lost", 0))
        return v

    def run(self, binary, workload, seed, budget_s):
        t0 = time.monotonic()
        while len(self.values) < MIN_RUNS or time.monotonic() - t0 < budget_s:
            v = self.add(*run_once(binary, workload, seed))
            if v is None:
                return
            self.values.append(v)
        for key in DETERMINISTIC:
            seen = {json.dumps(v[key]) for v in self.values}
            if len(seen) != 1:
                self.failures.append("%s differs between runs of one seed: %s" % (key, sorted(seen)))

    def median(self, key):
        return statistics.median(v[key] for v in self.values)


def source_digest():
    """sha256 over the simulator and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "fabbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args, runs):
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "build_type": BUILD_TYPE,
        "run_seconds": args.seconds,
        "processes": runs,
    }


def measure(args, binary):
    """Returns (correct, attempted, failed, metrics, processes run, failures)."""
    runs = Runs()
    if args.trace == 0:
        runs.run(binary, args.workload, args.seed, args.seconds)
        if runs.failures:
            return False, runs.attempted, runs.failed, {}, len(runs.values), runs.failures
        metrics = {}
        for name, unit in END_TO_END.items():
            value = runs.median(name) if name in MEDIAN_OF_RUNS else runs.values[0][name]
            metrics[name] = {"value": value, "unit": unit}
        return True, runs.attempted, runs.failed, metrics, len(runs.values), []

    runs.run(binary, args.workload, args.seed, args.seconds / 2)
    if runs.failures:
        return False, runs.attempted, runs.failed, {}, len(runs.values), runs.failures
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, "%s.seed%d.perfetto.json" % (args.workload, args.seed))
    v = runs.add(*run_once(binary, args.workload, args.seed, trace_out=trace_out))
    if v is None or runs.failures:
        return False, runs.attempted, runs.failed, {}, len(runs.values) + 1, runs.failures
    if v["sim.digest"] != runs.values[0]["sim.digest"]:
        runs.failures.append("the traced process's untraced run changed sim.digest")
    v["trace.overhead_frac"] = runs.median("pkts_per_s") / v["trace.pkts_per_s"] - 1.0
    log("fabbench: Perfetto trace written to " + os.path.relpath(trace_out, ROOT))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name not in v:
            runs.failures.append("fabbench did not report " + name)
            continue
        metrics[name] = {"value": v[name], "unit": unit}
    return (not runs.failures, runs.attempted, runs.failed, metrics, len(runs.values) + 1,
            runs.failures)


def selftest(binary):
    """Each workload at a tiny size passes its gates; one seed reproduces
    sim.digest exactly, another seed changes it; the traced path reports
    every per-layer metric; BENCHMARK.json names what this file prints."""
    ok = True

    def fail(msg):
        nonlocal ok
        ok = False
        log("selftest FAIL: " + msg)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        fail("BENCHMARK.json workloads differ from run.py's")
    if {m["name"]: m["unit"] for m in bench["end_to_end"]} != END_TO_END:
        fail("BENCHMARK.json end_to_end metrics differ from run.py's")
    if {m["name"]: m["unit"] for m in bench["per_layer"]} != PER_LAYER:
        fail("BENCHMARK.json per_layer metrics differ from run.py's")

    scale = 0.05
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    for w in WORKLOADS:
        results = {}
        for label, seed in (("a", 1), ("b", 1), ("c", 2)):
            code, data, err = run_once(binary, w, seed, scale)
            if code != 0 or data is None or not data["ok"]:
                fail("%s seed %d: exit %d %s %s" % (w, seed, code, data and data["failures"],
                                                    err.strip()[-300:]))
                continue
            results[label] = data["values"]
        if len(results) == 3:
            if results["a"]["sim.digest"] != results["b"]["sim.digest"]:
                fail(w + ": the same seed gave two digests")
            if results["a"]["sim.digest"] == results["c"]["sim.digest"]:
                fail(w + ": another seed gave the same digest")
        code, data, err = run_once(binary, w, 1, scale, os.path.join(trace_dir, w + ".selftest.json"))
        if code != 0 or data is None or not data["ok"]:
            fail("%s traced: exit %d %s" % (w, code, data and data["failures"]))
        else:
            missing = [k for k in PER_LAYER if k not in data["values"] and k != "trace.overhead_frac"]
            if missing:
                fail("%s traced run lacks %s" % (w, missing))
            if "a" in results and data["values"]["sim.digest"] != results["a"]["sim.digest"]:
                fail(w + ": traced process digest differs from the untraced one")
        log("selftest %s: %s" % (w, "ok" if ok else "FAIL"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        return 2
    if args.selftest:
        return 0 if selftest(binary) else 1

    correct, attempted, failed, metrics, runs, failures = measure(args, binary)
    for f in failures:
        log("fabbench: check failed: " + f)
    result = {"correct": correct, "attempted": max(1, attempted), "failed": failed,
              "metrics": metrics}
    prov = provenance(args, runs)
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    name = "%s.seed%d.trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results_dir, name), "w") as f:
        json.dump({"provenance": prov, "result": result, "failures": failures}, f, indent=1)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
