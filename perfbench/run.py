#!/usr/bin/env python3
"""perfbench: the repository's benchmark, on two clocks.

    python3 perfbench/run.py --workload kv-rpc --seed 1 --seconds 25 --trace 0

Builds the simulator's core libraries and the driver from source (Release,
into .bench_build/ at the checkout root), then runs one workload:

  kv-rpc   kv --pairs 4 --ops 65536 --seed N                  (rpc GETs)
  kv-read  the same with --get-mode read                    (one-sided GETs)
  e2e-san  e2e --gib 128                       (SAN -> RoCE -> SAN, Fig. 9)
  wan-ff   wan --gib 65536 --fast-forward 1    (95 ms ANI loop, Fig. 13)

Each repetition is one driver process. --trace 0 repeats the workload for
--seconds and prints the end-to-end metrics as medians over repetitions:
host time (wall_s, cpu_s, setup_s, peak_rss_mib) and the modeled outputs
(model_*). --trace 1 makes one traced run instead and prints the per-layer
metrics. Its legs: three rounds of the timed configuration interleaved
with stats off, one repetition with the auditor on, a half-size repetition
for the steady-state allocation delta, and on e2e-san one with the tracer
installed. Every leg counts allocations, so the cost shares compare legs
that differ only in the observer measured. The audited repetition's spans,
with self time, go to .bench_build/spans-<workload>-seed<N>.json.

Every repetition is checked: complete, integrity, no failed ops, auditor
clean when on, the same modeled fingerprint as every other repetition, and
equal to the committed golden in goldens.json when there is one for the
seed. The last stdout line is the result:
{"correct", "attempted", "failed", "metrics"}; attempted and failed count
repetitions (failed / attempted is the failed fraction). A failed
repetition makes the exit code 1.
"""
import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDENS = os.path.join(HERE, "goldens.json")

KV = ("kv-rpc", "kv-read")
BULK = ("e2e-san", "wan-ff")
REFERENCE = {  # modeled metric -> paper cell, per workload
    "e2e-san": {"model_gbps": {"paper": 91.0, "cell":
                               "Fig. 9, RFTP end-to-end SAN->RoCE->SAN"}},
}
# A kv seed without a golden must still land within this share of seed 1's
# modeled Mops/s (catches a wrong-result build on a held-out seed).
KV_MOPS_BAND = 0.02
REP_TIMEOUT_S = 170
MIN_REPS = 3
TRACED_ROUNDS = 3

# name, unit, better
END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("model_gbps", "Gbps", "higher"),
    ("model_mops", "Mops/s", "higher"),
    ("model_get_p50_us", "sim_us", "lower"),
    ("model_get_p999_us", "sim_us", "lower"),
]

# name, unit, better, what it should move (and where it should not)
PER_LAYER = [
    ("sim.events_per_op", "events/op", "lower",
     "wall_s, cpu_s on kv-rpc (0 on bulk)"),
    ("sim.events_per_gib", "events/GiB", "lower",
     "wall_s on e2e-san (0 on kv)"),
    ("sim.host_ns_per_event", "ns", "lower", "wall_s on every workload"),
    ("sim.heap_peak", "events", "lower",
     "peak_rss_mib on e2e-san (single engine; 0 on kv)"),
    ("cluster.windows", "count", "lower",
     "wall_s, cpu_s on kv-rpc and kv-read (0 on e2e-san, wan-ff)"),
    ("cluster.events_per_window", "events", "higher",
     "wall_s, cpu_s on kv-rpc and kv-read (0 on e2e-san, wan-ff)"),
    ("cluster.cross_posts", "count", "lower",
     "wall_s, cpu_s on kv-rpc and kv-read (0 on e2e-san, wan-ff)"),
    ("cluster.sys_s", "s", "lower",
     "cpu_s on kv-rpc and kv-read (0 on e2e-san, wan-ff)"),
    ("rdma.wrs_per_doorbell", "WRs", "higher",
     "model_mops on kv-rpc (rpc endpoints; 0 on bulk)"),
    ("rdma.cqes_per_poll", "CQEs", "higher",
     "model_mops on kv-rpc (rpc endpoints; 0 on bulk)"),
    ("rdma.wr_posted_per_gib", "WRs/GiB", "lower",
     "model_mops on kv-rpc, model_gbps on e2e-san"),
    ("rdma.wr_p50_us", "sim_us", "lower",
     "model_mops on kv-rpc, model_gbps on e2e-san"),
    ("rdma.wr_p99_us", "sim_us", "lower",
     "model_mops on kv-rpc, model_gbps on e2e-san"),
    ("rpc.calls_served", "count", "higher",
     "model_mops on kv-rpc (PUT and cross-pair only on kv-read)"),
    ("rpc.retries_per_call", "ratio", "lower",
     "model_mops and failed repetitions on kv-rpc"),
    ("rpc.stale_responses", "count", "lower",
     "model_mops and failed repetitions on kv-rpc"),
    ("kv.pair_mops_min", "Mops/s", "higher",
     "model_mops on kv-rpc and kv-read (slowest pair)"),
    ("kv.pair_mops_max", "Mops/s", "higher",
     "model_mops on kv-rpc and kv-read"),
    ("kv.remote_share", "ratio", "lower",
     "model_mops on kv-rpc and kv-read"),
    ("kv.put_p50_us", "sim_us", "lower", "model_mops on kv-rpc and kv-read"),
    ("kv.put_p999_us", "sim_us", "lower",
     "model_mops on kv-rpc and kv-read"),
    ("iscsi.tasks_completed", "count", "higher",
     "model_gbps on e2e-san (idle elsewhere)"),
    ("iscsi.cmd_p50_us", "sim_us", "lower",
     "model_gbps on e2e-san (idle elsewhere)"),
    ("iscsi.cmd_p99_us", "sim_us", "lower",
     "model_gbps on e2e-san (idle elsewhere)"),
    ("iser.data_op_p50_us", "sim_us", "lower",
     "model_gbps on e2e-san (idle elsewhere)"),
    ("iser.read_p50_us", "sim_us", "lower",
     "model_gbps on e2e-san (idle elsewhere)"),
] + [
    ("numa.%s.%s_pct" % (host, cat), "%", "lower",
     "model_gbps on e2e-san (modeled CPU over the transfer; 0 on kv)")
    for host in ("src", "dst", "targets") for cat in ("user", "sys", "copy")
] + [
    ("rftp.blocks", "count", "higher", "model_gbps on e2e-san (0 on kv)"),
    ("rftp.control_msgs_per_block", "msgs", "lower",
     "model_gbps on e2e-san (0 on kv)"),
    ("rftp.fill_p50_us", "sim_us", "lower",
     "model_gbps, model_get_p50_us on e2e-san (0 on kv)"),
    ("rftp.credit_wait_p50_us", "sim_us", "lower",
     "model_gbps on e2e-san (0 on kv)"),
    ("rftp.credit_wait_p99_us", "sim_us", "lower",
     "model_gbps on e2e-san (0 on kv)"),
    ("rftp.drain_p50_us", "sim_us", "lower",
     "model_gbps on e2e-san (0 on kv)"),
    ("rftp.ff_spans", "count", "higher",
     "wall_s on wan-ff (0 on e2e-san, so no change there)"),
    ("rftp.ff_block_share", "ratio", "higher",
     "wall_s on wan-ff (0 on e2e-san, so no change there)"),
    ("rftp.ff_time_share", "ratio", "higher",
     "wall_s on wan-ff (0 on e2e-san, so no change there)"),
    ("mem.allocs_per_op", "allocs/op", "lower",
     "wall_s, peak_rss_mib on kv-rpc and kv-read (steady state)"),
    ("mem.allocs_per_gib", "allocs/GiB", "lower",
     "wall_s, peak_rss_mib on e2e-san and wan-ff (steady state)"),
    ("stats.cost_share", "ratio", "lower", "wall_s on every workload"),
    ("check.cost_share", "ratio", "lower", "wall_s on every workload"),
    ("trace.cost_share", "ratio", "lower",
     "wall_s on e2e-san (only there: a tracer disarms fast-forward)"),
    ("exp.build_s", "s", "lower",
     "setup_s (kv: all of run_kv outside the parallel phase)"),
    ("exp.start_s", "s", "lower",
     "setup_s (SAN logins on e2e-san; inside exp.build_s on kv)"),
    ("exp.teardown_s", "s", "lower",
     "setup_s (inside exp.build_s on kv)"),
    ("bench.trace_overhead_s", "s", "lower",
     "nothing: traced minus untraced wall_s of this run"),
]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def die(msg, code=2):
    log(msg)
    sys.exit(code)


# --- build -----------------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources at %s; run from the repository root"
            % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            die("cmake configure failed", 1)
    if subprocess.call(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr) != 0:
        die("build failed", 1)
    return os.path.join(BUILD, "perfbench")


# --- one repetition --------------------------------------------------------

def run_rep(binary, workload, seed, tiny, stats=1, audit=0, tracer=0,
            count_allocs=0, size_div=1):
    """Runs one driver process; returns its JSON record plus peak_rss_mib,
    or a record with an "error" key."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--tiny", str(int(tiny)), "--size-div", str(size_div),
           "--stats", str(stats), "--audit", str(audit),
           "--tracer", str(tracer), "--count-allocs", str(count_allocs)]
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    killer = threading.Timer(REP_TIMEOUT_S, p.kill)
    killer.start()
    try:
        out = p.stdout.read().decode()
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        killer.cancel()
        p.stdout.close()
    if p.returncode != 0:
        return {"error": "driver exited %d" % p.returncode}
    try:
        rep = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"error": "driver printed no JSON record"}
    rep["peak_rss_mib"] = ru.ru_maxrss / 1024.0  # ru_maxrss is in KiB
    return rep


def modeled_fingerprint(rep):
    """The golden handle. kv: the kv-v1 digest without the host-schedule
    fields (events=, windows=, cross=), which a cheaper simulation may
    legitimately change. Bulk: bytes, blocks, elapsed, goodput, sink XOR
    digest."""
    return re.sub(r" (events|windows|cross)=\d+", "", rep["fingerprint"])


def stats_free(rep):
    """modeled_fingerprint without the stats-dump hash (legs that run with
    stats off or on must still agree on everything else)."""
    return re.sub(r" stats_fnv=\d+", "", modeled_fingerprint(rep))


def golden_for(goldens, workload, tiny, seed):
    table = goldens.get(workload, {}).get("tiny" if tiny else "full", {})
    key = "*" if workload in BULK else str(seed)
    return table.get(key)


def seed1_mops(goldens, workload, tiny):
    """Aggregate modeled Mops/s in the kv seed-1 golden, or None."""
    m = re.search(r" mops=\[([^\]]*)\]",
                  golden_for(goldens, workload, tiny, 1) or "")
    return sum(float(x) for x in m.group(1).split(",")) if m else None


def check_rep(rep, golden, expect_audit, band_mops=None):
    """Problems with one repetition (empty list = correct). `band_mops`:
    the seed-1 modeled Mops/s a kv repetition without a golden must stay
    within KV_MOPS_BAND of."""
    if "error" in rep:
        return [rep["error"]]
    bad = []
    if not rep["complete"]:
        bad.append("incomplete")
    if not rep.get("integrity_ok", True):  # bulk: per-block checksums
        bad.append("integrity check failed")
    if rep.get("failed_ops", 0) > 0:  # kv: rpc gave up / READ retries out
        bad.append("%d failed ops" % rep["failed_ops"])
    if expect_audit and not rep["audit_ok"]:
        bad.append("%d audit violations" % rep["audit_violations"])
    if golden is not None and modeled_fingerprint(rep) != golden:
        bad.append("modeled fingerprint differs from the golden")
    if golden is None and band_mops and \
            abs(rep["mops"] / band_mops - 1) > KV_MOPS_BAND:
        bad.append("modeled Mops/s %.6g is outside %g of seed 1's %.6g"
                   % (rep["mops"], KV_MOPS_BAND, band_mops))
    return bad


# --- stats documents -------------------------------------------------------

def _docs(stats):
    return stats["shards"] if "shards" in stats else [stats]


def counter_sum(stats, name):
    return sum(c["value"] for d in _docs(stats) for c in d["counters"]
               if c["name"] == name)


def hist_quantile(stats, name, q, entity=lambda e: True):
    """Quantile of every histogram `name` (entity filter) merged, read the
    way stats::Histogram::value_at_quantile reads one. 0 when empty."""
    buckets, count, lo, hi = {}, 0, None, 0
    for d in _docs(stats):
        for h in d["histograms"]:
            if h["name"] != name or not entity(h["entity"]) or not h["count"]:
                continue
            for lower, upper, c in h["buckets"]:
                buckets[(lower, upper)] = buckets.get((lower, upper), 0) + c
            count += h["count"]
            lo = h["min"] if lo is None else min(lo, h["min"])
            hi = max(hi, h["max"])
    if not count:
        return 0
    rank = min(max(int(count * q + 0.5), 1), count)
    cum = 0
    for (lower, upper) in sorted(buckets):
        cum += buckets[(lower, upper)]
        if cum >= rank:
            return min(max(upper - 1, lo), hi)
    return hi


# --- metrics ---------------------------------------------------------------

def end_to_end(rep):
    if rep["workload"] in KV:
        gbps = rep["mops"] * rep["value_bytes"] * 8 / 1e3  # value payload
        mops = rep["mops"]
        p50, p999 = rep["get_p50_ns"], rep["get_p999_ns"]
    else:
        # One op = one RFTP block; one GET = one block read from the source.
        gbps = rep["gbps"]
        mops = rep["blocks"] / rep["elapsed_s"] / 1e6
        p50 = hist_quantile(rep["stats"], "fill_ns", 0.5)
        p999 = hist_quantile(rep["stats"], "fill_ns", 0.999)
    return {
        "wall_s": rep["wall_s"], "cpu_s": rep["cpu_s"],
        "setup_s": rep["setup_s"], "peak_rss_mib": rep["peak_rss_mib"],
        "model_gbps": gbps, "model_mops": mops,
        "model_get_p50_us": p50 / 1e3, "model_get_p999_us": p999 / 1e3,
    }


def span_durations(rep):
    return {s["name"]: s["t1"] - s["t0"] for s in rep["spans"]}


def self_times(spans):
    """Each span's duration minus the part its children cover."""
    out = []
    for i, s in enumerate(spans):
        kids = sum(c["t1"] - c["t0"] for c in spans if c["parent"] == i)
        out.append(dict(s, total_s=s["t1"] - s["t0"],
                        self_s=s["t1"] - s["t0"] - kids))
    return out


def per_layer(workload, legs):
    """Per-layer metrics from the traced run's legs (name -> repetitions).
    Counters and histograms are deterministic, so any one repetition of a
    leg gives them; host times are medians over the leg's repetitions."""
    wall = lambda leg: statistics.median(r["wall_s"] for r in legs[leg])
    b, half = legs["base"][0], legs["half"][0]
    st = b["stats"]
    kv = workload in KV
    m = {name: 0.0 for name, _, _, _ in PER_LAYER}
    payload_gib = (b["ops"] * b["value_bytes"] if kv else b["bytes"]) / 2**30
    us = lambda name, q, **kw: hist_quantile(st, name, q, **kw) / 1e3
    m["sim.host_ns_per_event"] = wall("base") / b["events"] * 1e9
    m["rdma.wr_posted_per_gib"] = counter_sum(st, "wr_posted") / payload_gib
    m["rdma.wr_p50_us"] = us("wr_ns", 0.5)
    m["rdma.wr_p99_us"] = us("wr_ns", 0.99)
    m["stats.cost_share"] = (wall("base") - wall("nostats")) / wall("base")
    m["check.cost_share"] = (wall("traced") - wall("base")) / wall("traced")
    m["bench.trace_overhead_s"] = wall("traced") - wall("base")
    span = lambda name: statistics.median(
        span_durations(r).get(name, 0.0) for r in legs["base"])
    if kv:
        m["sim.events_per_op"] = b["events"] / b["ops"]
        m["cluster.windows"] = b["windows"]
        m["cluster.events_per_window"] = b["events"] / b["windows"]
        m["cluster.cross_posts"] = b["cross_posts"]
        m["cluster.sys_s"] = statistics.median(r["sys_s"]
                                               for r in legs["base"])
        m["rdma.wrs_per_doorbell"] = b["doorbell_wrs"] / b["doorbells"]
        m["rdma.cqes_per_poll"] = b["poll_cqes"] / b["poll_batches"]
        m["rpc.calls_served"] = b["calls_served"]
        m["rpc.retries_per_call"] = b["rpc_retries"] / b["calls_served"]
        m["rpc.stale_responses"] = b["stale_responses"]
        m["kv.pair_mops_min"] = min(b["pair_mops"])
        m["kv.pair_mops_max"] = max(b["pair_mops"])
        m["kv.remote_share"] = b["remote_ops"] / b["ops"]
        m["kv.put_p50_us"] = b["put_p50_ns"] / 1e3
        m["kv.put_p999_us"] = b["put_p999_ns"] / 1e3
        m["mem.allocs_per_op"] = ((b["allocs"] - half["allocs"]) /
                                  (b["ops"] - half["ops"]))
        m["exp.build_s"] = span("run_kv") - span("parallel")
        return m
    window_ns = b["elapsed_s"] * 1e9
    m["sim.events_per_gib"] = b["events"] / payload_gib
    m["sim.heap_peak"] = b["heap_peak"]
    m["iscsi.tasks_completed"] = counter_sum(st, "tasks_completed")
    m["iscsi.cmd_p50_us"] = us("cmd_ns", 0.5)
    m["iscsi.cmd_p99_us"] = us("cmd_ns", 0.99)
    m["iser.data_op_p50_us"] = us("data_op_ns", 0.5)
    m["iser.read_p50_us"] = us("read_ns", 0.5,
                               entity=lambda e: "-target/" in e)
    for host in ("src", "dst", "targets"):
        for cat, ns in zip(("user", "sys", "copy"), b["cpu_" + host]):
            m["numa.%s.%s_pct" % (host, cat)] = 100.0 * ns / window_ns
    m["rftp.blocks"] = b["blocks"]
    m["rftp.control_msgs_per_block"] = b["control_msgs"] / b["blocks"]
    m["rftp.fill_p50_us"] = us("fill_ns", 0.5)
    m["rftp.credit_wait_p50_us"] = us("credit_wait_ns", 0.5)
    m["rftp.credit_wait_p99_us"] = us("credit_wait_ns", 0.99)
    m["rftp.drain_p50_us"] = us("drain_ns", 0.5)
    m["rftp.ff_spans"] = b["ff_spans"]
    m["rftp.ff_block_share"] = b["ff_blocks"] / b["blocks"]
    m["rftp.ff_time_share"] = b["ff_skipped_s"] / b["elapsed_s"]
    m["mem.allocs_per_gib"] = ((b["allocs"] - half["allocs"]) /
                               ((b["bytes"] - half["bytes"]) / 2**30))
    if "tracer" in legs:
        m["trace.cost_share"] = (wall("tracer") - wall("base")) / wall("tracer")
    m["exp.build_s"] = span("build")
    m["exp.start_s"] = span("start")
    m["exp.teardown_s"] = span("teardown")
    return m


# --- provenance ------------------------------------------------------------

def git_commit():
    """HEAD of the checkout's own .git, or None (no parent-directory walk:
    a checkout without .git must not report an enclosing repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        head = open(os.path.join(git, "HEAD")).read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            return open(path).read().strip()
        for line in open(os.path.join(git, "packed-refs")):
            if line.rstrip().endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over every file under src/ (relative path and bytes)."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def provenance(args, rep):
    build_type = rep.get("build_type")  # None: no repetition reported it
    unoptimised = build_type in ("", "Debug")
    if unoptimised:
        log("WARNING: core libraries built with CMAKE_BUILD_TYPE=%r "
            "(unoptimised); host-time metrics are not comparable"
            % build_type)
    return {
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "build_type": build_type, "core_flags": rep.get("core_flags"),
        "compiler": rep.get("compiler"), "unoptimised_build": unoptimised,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        # sim::Cluster worker threads (bulk workloads run one engine).
        "shard_workers": rep.get("shard_workers", 0), "seed": args.seed,
        "cli": "e2e_transfer_sim " + rep.get("cli", "?"),
    }


def reference(workload, metrics):
    """Each modeled metric beside its paper cell and the error against it;
    "unvalidated" where the paper has no such cell (kv-*, wan-ff's 4 MiB x
    4 streams)."""
    out = {}
    for name in (n for n, _, _ in END_TO_END if n.startswith("model_")):
        ref = REFERENCE.get(workload, {}).get(name)
        out[name] = "unvalidated" if ref is None else dict(
            ref, measured=metrics[name],
            error=(metrics[name] - ref["paper"]) / ref["paper"])
    return out


# --- modes -----------------------------------------------------------------

def timed(args, binary, goldens):
    golden = golden_for(goldens, args.workload, args.tiny, args.seed)
    band = seed1_mops(goldens, args.workload, args.tiny)
    reps, failed, fingerprints = [], 0, set()
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        rep = run_rep(binary, args.workload, args.seed, args.tiny)
        rep_s = time.monotonic() - r0
        bad = check_rep(rep, golden, False, band)
        if not bad:
            fingerprints.add(modeled_fingerprint(rep))
            if len(fingerprints) > 1:
                bad = ["modeled fingerprint differs between repetitions"]
        if bad:
            failed += 1
            log("%s seed %d repetition %d failed: %s"
                % (args.workload, args.seed, len(reps) + 1, "; ".join(bad)))
        reps.append((rep, bad))
        elapsed = time.monotonic() - t0
        if len(reps) >= MIN_REPS and elapsed + rep_s > args.seconds:
            break
    good = [end_to_end(r) for r, bad in reps if not bad]
    metrics = {name: statistics.median(m[name] for m in good)
               for name, _, _ in END_TO_END} if good else {}
    first = next((r for r, bad in reps if not bad), {})
    any_rep = next((r for r, _ in reps if "error" not in r), {})
    report = {
        "mode": "timed", "workload": args.workload,
        "repetitions": len(reps),
        "golden": "checked" if golden else "none for this seed",
        "fingerprint": modeled_fingerprint(first) if first else None,
        "provenance": provenance(args, any_rep),
        "reference": reference(args.workload, metrics) if metrics else None,
        "per_repetition": good,
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return report, len(reps), failed, metrics, units


def traced(args, binary, goldens):
    golden = golden_for(goldens, args.workload, args.tiny, args.seed)
    band = seed1_mops(goldens, args.workload, args.tiny)
    run = lambda **kw: run_rep(binary, args.workload, args.seed, args.tiny,
                               count_allocs=1, **kw)
    # (leg, repetition, golden, auditor on). base is the timed set's
    # configuration; stats.cost_share compares medians of interleaved
    # rounds. The audited leg runs once: the auditor costs up to 10x on
    # wan-ff.
    legs = []
    for _ in range(TRACED_ROUNDS):
        legs += [("base", run(), golden, False),
                 ("nostats", run(stats=0), None, False)]
    legs.append(("traced", run(audit=1), golden, True))
    legs.append(("half", run(size_div=2), None, False))
    if args.workload == "e2e-san":
        legs.append(("tracer", run(tracer=1), golden, False))
    failed = 0
    base = legs[0][1]
    for name, rep, gold, audit in legs:
        bad = check_rep(rep, gold, audit, band if name == "base" else None)
        if not bad and name != "half" and "error" not in base and \
                stats_free(rep) != stats_free(base):
            bad = ["modeled fingerprint differs from the untraced leg"]
        if bad:
            failed += 1
            log("%s traced leg %s failed: %s"
                % (args.workload, name, "; ".join(bad)))
    by_leg = {}
    for name, rep, _, _ in legs:
        by_leg.setdefault(name, []).append(rep)
    metrics, spans_path = {}, None
    if failed == 0:
        metrics = per_layer(args.workload, by_leg)
        spans = self_times(by_leg["traced"][0]["spans"])
        spans_path = os.path.join(ROOT, ".bench_build", "spans-%s-seed%d.json"
                                  % (args.workload, args.seed))
        with open(spans_path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans}, f, indent=1)
    report = {
        "mode": "traced", "workload": args.workload,
        "legs": [name for name, _, _, _ in legs], "spans_file": spans_path,
        "provenance": provenance(args, base),
        "moves": {name: moves for name, _, _, moves in PER_LAYER},
    }
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    return report, len(legs), failed, metrics, units


def measure(args, binary, goldens):
    """Runs the mode args.trace selects; returns (report, result), where
    result is the object of the last stdout line. args.tiny selects the
    self-test sizes."""
    mode = traced if args.trace else timed
    report, attempted, failed, metrics, units = mode(args, binary, goldens)
    return report, {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]}
                    for name, v in metrics.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=KV + BULK)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        die("--seed must be >= 0")
    args.tiny = False
    binary = build()
    with open(GOLDENS) as f:
        goldens = json.load(f)
    report, result = measure(args, binary, goldens)
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
