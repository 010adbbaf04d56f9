#!/usr/bin/env python3
"""End-to-end benchmark of the rdfsummary program.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --workload NAME --seed N --seconds T --repeat K

Run from the root of a source checkout. The script builds the
`rdfsummary` binary and the `perfbench` helper from source (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the seeded inputs
outside any timed phase (cached under `.perfbench/cache`), runs one
workload against the real program with its default flags, checks every
output, and prints the metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics of the traced run.
`--repeat K` runs the workload K times (seeds N..N+K-1) and reports each
metric's median and quartiles. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# name -> (BSBM products, what the workload needs from `perfbench prep`)
WORKLOADS = {
    "serve_read_2m": (20000, "base,read"),
    "serve_write_200k": (2000, "base,write"),
}
# Cached input sets kept per scale (the 2M sets are ~340 MB each).
CACHE_KEEP = {20000: 3, 2000: 6}
# A serve run is ROUNDS[workload] = (rounds, set-ups per round): each
# round spawns and sets up that many servers one after another, and the
# last of them serves a 1/rounds slice of the timed traffic. Set-ups and
# traffic so alternate over the whole run, and every figure samples the
# host across all of it: the host's speed drifts in spells of 10-20 s,
# and LOAD samples bunched at the two ends of a run moved the run's
# median by as much as the drift. setup_s and triples_per_s are medians
# over all set-ups.
ROUNDS = {"serve_read_2m": (6, 1), "serve_write_200k": (6, 6)}
PROBE_RATE = 100.0    # open-loop probe requests per second
# One serve operation is this many consecutive requests of a closed-loop
# connection: a full read-mix period, or a writer step (UPDATE, then its
# SUMMARIZE and QUERY). Its time is the sum of their latencies.
GROUP = {"serve_read_2m": 10, "serve_write_200k": 3}
# The set-up that serves a round's traffic slice ends with a short burst
# of traffic, the first lines of this script (two read-mix periods; four
# writer steps, which leave the graph as loaded), and then reads the
# server's peak RSS. peak_rss_mb is the median of these readings over the
# run's rounds.
BURST = {"serve_read_2m": ("read_0.txt", 20), "serve_write_200k": ("write_pre.txt", 12)}
# The workload's tail percentile: the highest one its sample supports
# with at least ten samples beyond it.
TAIL = {"serve_read_2m": 0.98, "serve_write_200k": 0.90}
QUERY_CLASSES = ("empty", "star", "join", "wquery", "probe")
SUMMARIZE_CLASSES = ("sum_w", "sum_ts")
UPDATE_CLASSES = ("update_add", "update_del")

CHILDREN = []  # live child processes, stopped on any exit path


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def quantile(xs, p):
    """Nearest-rank p-quantile (0 < p <= 1) of a sample."""
    if not xs:
        return 0.0
    v = sorted(xs)
    return v[min(len(v), max(1, math.ceil(p * len(v)))) - 1]


# ---------------------------------------------------------------- build

def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
            os.path.join(ROOT, "crates")):
        raise BenchError("no rdfsummary source tree next to perfbench/; run from a checkout")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (["cargo", "build", "--release", "--offline", "--bin", "rdfsummary"],
                ["cargo", "build", "--release", "--offline", "--manifest-path",
                 os.path.join(HERE, "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "rdfsummary"), os.path.join(rel, "perfbench")


# ---------------------------------------------------------------- inputs

def prepare(helper, workload, seed):
    scale, parts = WORKLOADS[workload]
    cache = os.path.join(ROOT, ".perfbench", "cache")
    d = os.path.join(cache, "bsbm-%d-%d" % (scale, seed))
    os.makedirs(d, exist_ok=True)
    with open(os.path.join(d, "used"), "w") as f:
        f.write("%f\n" % time.time())
    evict(cache, scale, keep=d)
    t0 = time.perf_counter()
    run_helper(helper, ["prep", "--dir", d, "--scale", str(scale), "--seed", str(seed),
                        "--parts", parts])
    os.sync()  # no writeback of fresh inputs during the timed phase
    log("inputs ready in %.1fs: %s" % (time.perf_counter() - t0, d))
    meta = {}
    with open(os.path.join(d, "meta.txt")) as f:
        for line in f:
            k, _, v = line.strip().partition("=")
            meta[k] = int(v)
    return d, meta


def evict(cache, scale, keep):
    prefix = "bsbm-%d-" % scale
    dirs = [os.path.join(cache, n) for n in os.listdir(cache) if n.startswith(prefix)]

    def used(d):
        try:
            return os.path.getmtime(os.path.join(d, "used"))
        except OSError:
            return 0.0
    dirs.sort(key=used, reverse=True)
    for d in [x for x in dirs if x != keep][CACHE_KEEP[scale] - 1:]:
        shutil.rmtree(d, ignore_errors=True)


def run_helper(helper, args):
    p = subprocess.Popen([helper] + args, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr)
    CHILDREN.append(p)
    out, _ = p.communicate()
    CHILDREN.remove(p)
    if p.returncode != 0:
        raise BenchError("perfbench %s failed (exit %d)" % (args[0], p.returncode))
    return out.decode()


def rel(path):
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------- serve

class Conn:
    """A minimal protocol client (status line + length-framed body)."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.f = self.sock.makefile("rb")

    def request(self, line):
        self.sock.sendall(line.encode() + b"\n")
        status = self.f.readline().decode().rstrip("\r\n")
        if not status:
            raise BenchError("server closed the connection on: " + line[:80])
        words = status.split()
        body = None
        if words[:2] in (["OK", "summary"], ["OK", "stats"], ["OK", "query"]):
            n = int(words[-1].partition("=")[2])
            body = self.f.read(n)
        return status, body

    def close(self):
        self.f.close()
        self.sock.close()


def fields(status):
    return dict(w.split("=", 1) for w in status.split() if "=" in w)


def stop(p):
    if p.poll() is None:
        p.terminate()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    if p in CHILDREN:
        CHILDREN.remove(p)


def start_server(rdfsummary, graph_path, d, checks):
    """Spawns `serve` with default flags, LOADs the graph and warms W and
    TS. Returns (process, addr, timings, handshake fields)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([rdfsummary, "serve", "--addr", "127.0.0.1:0"], cwd=ROOT,
                         stdout=subprocess.PIPE, stderr=sys.stderr)
    CHILDREN.append(p)
    ready, _, _ = select.select([p.stdout], [], [], 60)
    line = p.stdout.readline().decode() if ready else ""
    if not line.startswith("listening on "):
        stop(p)
        raise BenchError("serve did not come up: %r" % line)
    # "listening on HOST:PORT (W workers, T build thread(s), E engine)"
    words = line.split()
    addr = words[2]
    host = {"serve_workers": int(words[3].strip("(")), "serve_threads": int(words[5])}
    c = Conn(addr)
    t1 = time.perf_counter()
    status, _ = c.request("LOAD " + graph_path)
    load_s = time.perf_counter() - t1
    checks.check(status.startswith("OK loaded"), "LOAD: " + status)
    host["graph_triples"] = int(fields(status).get("triples", 0))
    for kind, ref in (("w", "ref_w.nt"), ("ts", "ref_ts.nt")):
        status, body = c.request("SUMMARIZE %s %s" % (kind, graph_path))
        with open(os.path.join(d, ref), "rb") as f:
            checks.check(body == f.read(), "warm-up SUMMARIZE %s differs from %s: %s"
                         % (kind, ref, status))
    setup_s = time.perf_counter() - t0
    c.close()
    return p, addr, {"setup_s": setup_s, "load_s": load_s}, host


def server_stats(addr):
    c = Conn(addr)
    status, _ = c.request("STATS")
    c.close()
    return {k: int(v) for k, v in fields(status).items()}


def peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 8:
                self.errors.append(what)

    def absorb(self, report):
        self.attempted += int(report["attempted"])
        self.failed += int(report["failed"])
        self.errors.extend(report["errors"][: max(0, 8 - len(self.errors))])


def burst_script(d, workload):
    src, n = BURST[workload]
    path = os.path.join(d, "burst_" + src)
    if not os.path.exists(path):
        with open(os.path.join(d, src)) as f:
            lines = f.readlines()[:n]
        with open(path + ".tmp", "w") as f:
            f.writelines(lines)
        os.replace(path + ".tmp", path)
    return path, n


def serve_phase(rdfsummary, helper, workload, d, seconds, checks, rounds, traced=False):
    """`rounds` = (rounds, set-ups per round); see ROUNDS. A traced run
    adds the probe and two update cycles to the read workload, so every
    wire figure exists. Returns the merged drive report of all traffic
    slices, per-set-up figures, the serving servers' summed STATS, the
    median of their peak RSS at the end of their slices and host
    context."""
    graph = rel(os.path.join(d, "graph.snap" if workload == "serve_read_2m" else "graph.nt"))
    n_rounds, per_round = rounds
    timings, reports, stats, slice_rss, p = [], [], {}, [], None
    burst, burst_len = burst_script(d, workload)
    if workload == "serve_write_200k":
        conns = ["--conn", "%s+%s" % (os.path.join(d, "write_pre.txt"),
                                      os.path.join(d, "write_loop.txt"))]
        probe = True
    else:
        conns = ["--conn", os.path.join(d, "read_0.txt"),
                 "--conn", os.path.join(d, "read_1.txt")]
        probe = traced
    if probe:
        conns += ["--probe", os.path.join(d, "probe.txt"), "--rate", str(PROBE_RATE)]

    def drive(addr, secs, extra):
        r = json.loads(run_helper(helper, ["drive", "--addr", addr, "--graph", graph,
                                           "--seconds", str(secs)] + extra
                                  ).strip().splitlines()[-1])
        checks.absorb(r)
        return r

    def setup(serves):
        p, addr, t, host = start_server(rdfsummary, graph, d, checks)
        if serves:
            t["rss_mb"] = peak_rss_mb(p.pid)
            r = drive(addr, 0, ["--conn", burst, "--rss-pid", str(p.pid),
                                "--rss-after", str(burst_len)])
            t["burst_rss_mb"] = r.get("rss_mb", 0.0)
        timings.append(t)
        return p, addr, host
    try:
        for _ in range(n_rounds):
            for i in range(per_round):
                if p is not None:
                    stop(p)
                p, addr, host = setup(i == per_round - 1)
            r = drive(addr, seconds / n_rounds, ["--group", str(GROUP[workload])] + conns)
            if traced and workload == "serve_read_2m":
                upd = drive(addr, 0, ["--conn", os.path.join(d, "updates.txt")])
                for k, v in upd["latency_ms"].items():
                    r["latency_ms"].setdefault(k, []).extend(v)
            reports.append(r)
            st = server_stats(addr)
            checks.check(st["builds"] == st["patch_fallbacks"] + st["misses"],
                         "STATS invariant broken: builds=%d patch_fallbacks=%d misses=%d"
                         % (st["builds"], st["patch_fallbacks"], st["misses"]))
            for k, v in st.items():
                stats[k] = stats.get(k, 0) + v
            slice_rss.append(peak_rss_mb(p.pid))
    finally:
        if p is not None:
            stop(p)
    report = {"latency_ms": {}, "response_bytes": {}, "op_ms": [], "probe_late_ms": [],
              "closed_completed": 0, "elapsed_s": 0.0}
    for r in reports:
        for k, v in r["latency_ms"].items():
            report["latency_ms"].setdefault(k, []).extend(v)
        for k, v in r["response_bytes"].items():
            report["response_bytes"][k] = report["response_bytes"].get(k, 0) + v
        for k in ("op_ms", "probe_late_ms"):
            report[k].extend(r[k])
        for k in ("closed_completed", "elapsed_s"):
            report[k] += r[k]
    return report, timings, stats, statistics.median(slice_rss), host


def latencies(report, classes):
    out = []
    for c in classes:
        out.extend(report["latency_ms"].get(c, []))
    return out


# ---------------------------------------------------------------- workloads

def run_serve(rdfsummary, helper, workload, d, meta, seconds, checks):
    report, timings, stats, rss, host = serve_phase(
        rdfsummary, helper, workload, d, seconds, checks, ROUNDS[workload])
    ops = report["op_ms"]
    load_s = statistics.median(t["load_s"] for t in timings)
    metrics = {
        "setup_s": statistics.median(t["setup_s"] for t in timings),
        "peak_rss_mb": statistics.median(t["burst_rss_mb"] for t in timings
                                         if "burst_rss_mb" in t),
        "triples_per_s": meta["triples"] / load_s,
        "req_per_s": report["closed_completed"] / report["elapsed_s"],
        "op_p50_ms": quantile(ops, 0.5),
        "op_tail_ms": quantile(ops, TAIL[workload]),
    }
    q = latencies(report, [c for c in QUERY_CLASSES if c != "probe"])
    s = latencies(report, SUMMARIZE_CLASSES)
    u = latencies(report, UPDATE_CLASSES)
    pr = report["latency_ms"].get("probe", [])
    detail = {
        "query_p50_ms": quantile(q, 0.5), "query_p99_ms": quantile(q, 0.99),
        "summarize_p50_ms": quantile(s, 0.5), "summarize_p99_ms": quantile(s, 0.99),
        "queries": len(q), "summarizes": len(s), "load_s": load_s,
        "builds_after_setup": stats["builds"] - 2 * ROUNDS[workload][0],
        "cache_hits": stats["hits"], "ops": len(ops),
        "setup_rss_mb": statistics.median(t["rss_mb"] for t in timings if "rss_mb" in t),
        "traffic_rss_mb": rss,
    }
    if u:
        detail.update({"update_p50_ms": quantile(u, 0.5), "update_p90_ms": quantile(u, 0.9),
                       "updates": len(u), "patches": stats["patches"],
                       "patch_fallbacks": stats["patch_fallbacks"]})
    if pr:
        detail.update({"probe_p50_ms": quantile(pr, 0.5), "probe_p99_ms": quantile(pr, 0.99),
                       "probes": len(pr),
                       "probe_late_p99_ms": quantile(report["probe_late_ms"], 0.99)})
    return metrics, detail, host


def run_trace(rdfsummary, helper, workload, d, seed, seconds, checks):
    scale, _ = WORKLOADS[workload]
    outdir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    spans = os.path.join(outdir, "spans-%s-%d.jsonl" % (workload, seed))
    if workload == "serve_write_200k":
        scripts = ["write_pre.txt", "probe.txt"]
    else:
        scripts = ["read_0.txt", "read_1.txt", "updates.txt"]
    args = ["trace", "--dir", d, "--workload", workload, "--scale", str(scale),
            "--seed", str(seed), "--spans", spans]
    for s in scripts:
        args += ["--script", os.path.join(d, s)]
    inproc = json.loads(run_helper(helper, args).strip().splitlines()[-1])
    checks.absorb(inproc)
    m = dict(inproc["metrics"])
    report, _, stats, _, _ = serve_phase(rdfsummary, helper, workload, d, seconds, checks,
                                         (1, 1), traced=True)
    wire = {
        "query": latencies(report, [c for c in QUERY_CLASSES if c != "probe"]),
        "summarize": latencies(report, SUMMARIZE_CLASSES),
        "update": latencies(report, UPDATE_CLASSES),
    }
    for verb, xs in wire.items():
        m["server.self_%s_ms" % verb] = quantile(xs, 0.5) - m["core.service_%s_ms" % verb]
    qbytes = sum(report["response_bytes"].get(c, 0) for c in QUERY_CLASSES if c != "probe")
    m["server.response_bytes_per_query"] = qbytes / max(1, len(wire["query"]))
    m["server.probe_late_ms"] = quantile(report["probe_late_ms"], 0.99)
    hits, misses = stats["hits"], stats["misses"]
    m["core.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    log("spans written to %s" % rel(spans))
    return m


# ---------------------------------------------------------------- main

def declared_units(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def run_once(tools, workload, seed, seconds, trace):
    rdfsummary, helper = tools
    checks = Checks()
    units = declared_units("per_layer" if trace else "end_to_end")
    d, meta = prepare(helper, workload, seed)
    host = {"nproc": len(os.sched_getaffinity(0)), "triples": meta["triples"],
            "terms": meta["terms"], "nt_bytes": meta["nt_bytes"],
            "snap_bytes": meta["snap_bytes"], "seed": seed, "seconds": seconds}
    if trace:
        m = run_trace(rdfsummary, helper, workload, d, seed, seconds, checks)
        for k, u in units.items():
            print("%-34s %16.6f %s" % (k, m[k], u))
    else:
        m, detail, h = run_serve(rdfsummary, helper, workload, d, meta, seconds, checks)
        host.update(h)
        detail["failed_ratio"] = checks.failed / max(1, checks.attempted)
        # Figures BENCHMARK.json does not gate are printed as detail.
        detail.update({k: v for k, v in m.items() if k not in units})
        print("workload %s  seed %d  (%s)" % (workload, seed,
              " ".join("%s=%s" % kv for kv in sorted(host.items()))))
        for k, u in units.items():
            print("  %-22s %14.4f %s" % (k, m[k], u))
        for k, v in sorted(detail.items()):
            print("  detail %-15s %14.4f" % (k, v))
    metrics = {k: {"value": m[k], "unit": u} for k, u in units.items()}
    for e in checks.errors:
        log("check failed: " + e)
    return {"correct": checks.failed == 0, "attempted": max(1, checks.attempted),
            "failed": checks.failed, "metrics": metrics}


def repeat(tools, workload, seed, seconds, trace, k):
    runs = []
    for i in range(k):
        r = run_once(tools, workload, seed + i, seconds, trace)
        print(json.dumps(r), flush=True)
        runs.append(r)
    summary = {}
    print("%-34s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3", "iqr/med"))
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "unit": runs[0]["metrics"][name]["unit"]}
        print("%-34s %14.4f %14.4f %14.4f %8.3f" % (name, q1, med, q3, spread))
    correct = all(r["correct"] for r in runs)
    print(json.dumps({"workload": workload, "runs": k, "correct": correct, "metrics": summary}))
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    a = ap.parse_args()

    def on_signal(signum, _frame):
        raise BenchError("interrupted by signal %d" % signum)
    signal.signal(signal.SIGTERM, on_signal)
    try:
        tools = build()
        if a.repeat:
            return 0 if repeat(tools, a.workload, a.seed, a.seconds, a.trace, a.repeat) else 1
        r = run_once(tools, a.workload, a.seed, a.seconds, a.trace)
        print(json.dumps(r), flush=True)
        return 0 if r["correct"] else 1
    except BenchError as e:
        log("perfbench: %s" % e)
        return 2
    finally:
        for p in list(CHILDREN):
            stop(p)


if __name__ == "__main__":
    sys.exit(main())
