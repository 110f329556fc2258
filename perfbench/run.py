#!/usr/bin/env python3
"""Repository benchmark: builds the program from source and measures one
workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run it from the root of a checkout.  With --trace 0 it reports the
end-to-end metrics: set-up runs in fresh processes (the median of
several samples is reported) and the measured phase runs in one more
fresh process.  With --trace 1 it reports the per-layer metrics of the traced
replay.  Run facts go to standard output first; the last line is the
result JSON.  --self-check runs every workload and its traced replay at
tiny sizes and checks that one seed generates byte-identical inputs in
two processes; it exits non-zero on any wrong answer.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["serve-warm", "batch-packed", "edit-session"]
# Set-up samples per run, the set-ups of the measured phases and RSS
# probes included; each is a fresh process and the median is reported.
# Cheap set-ups take more samples, because their medians move more with
# the host.
SETUP_SAMPLES = {"serve-warm": 5, "batch-packed": 13, "edit-session": 11}
# Measured phases per run, each in a fresh process, splitting --seconds
# between them; every end-to-end metric is the median over the phases.
# serve-warm keeps ~3,000 requests per phase (≥ 300 beyond p90), so it
# takes four, and a host stall during one phase does not move the run.
# edit-session keeps ~9,000 ops per phase.  batch-packed needs the whole
# run in one phase to complete 100 jobs (10 beyond p90).
PHASES = {"serve-warm": 4, "batch-packed": 1, "edit-session": 2}
# A program's peak RSS is set by its inputs: one seed's VmHWM repeats to
# within 0.2 MB back to back (2 MB across minutes), but seeds differ by up
# to 20 % (batch-packed) or 8 % (serve-warm), with the op on which the
# GC's heap peaks.  So phase i,
# and after the phases RSS probe i, run on inputs from seed
# --seed + SEED_STEP * i; phase 0 runs on --seed itself.  batch-packed's
# peak_rss_mb is the mean over its phase and this many probes, each a
# fresh process that runs set-up and the jobs up to the reading.
RSS_PROBES = {"batch-packed": 8}
SEED_STEP = 1000003
# serve-warm's benchmark process and the server it spawns share one CPU.
# Spread over two vCPUs of a shared host, each request wakes threads on
# an idle vCPU, and those wake-ups follow the host's load: over 20
# alternating pairs of runs in 20 minutes of a 2-vCPU shared VM,
# throughput spread 0.33 and p90 0.55 unpinned, 0.13 and 0.14 pinned.
# The server's default crew is one worker domain either way.
PINNED = {"serve-warm"}
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
LAYERS = os.path.join("perfbench", "layers.json")
CLI = os.path.join("_build", "default", "bin", "spanner_cli.exe")
DEADLINE = time.monotonic() + 170  # the whole run, build excluded, ends within 180 s


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def check_sources():
    for path in ["dune-project", "lib", "bin", os.path.join("bin", "spanner_cli.ml"),
                 os.path.join("perfbench", "dune")]:
        if not os.path.exists(path):
            die("missing %s: run from the root of a full checkout" % path)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./" + EXE, "./" + CLI],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        die("build failed")


def pin_to_one_cpu():
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def bench(mode, workload, seed, seconds, size, work):
    """Runs the workload process in its own process group, so that on a
    timeout the server it spawned is killed with it."""
    cmd = [EXE, mode, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--size", size, "--cli", CLI, "--work", work]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True,
                            preexec_fn=pin_to_one_cpu if workload in PINNED else None)
    try:
        out, err = proc.communicate(timeout=max(1, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s %s timed out" % (mode, workload))
    sys.stderr.write(err.decode(errors="replace"))
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("%s %s failed with exit code %d" % (mode, workload, proc.returncode))
    return json.loads(lines[-1])


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), fields[7] if len(fields) > 7 else 0


def source_id():
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            return "commit " + proc.stdout.decode().strip()
    h = hashlib.sha256()
    for top in ["lib", "bin"]:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return "sources sha256 " + h.hexdigest()[:16]


def ocaml_version():
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-version"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL).stdout.decode().strip()
        return out or "unknown"
    except OSError:
        return "unknown"


def complete_layers(workload, res):
    """Every traced run prints every per-layer metric.  A workload's replay
    measures the metrics whose layer runs there (reported_on in
    layers.json); each other metric's layer does not run in it, or runs
    only inside a call timed as a whole, and is printed as 0 and named in
    the run facts."""
    with open(LAYERS) as f:
        layers = json.load(f)["layers"]
    known = {l["metric"] for l in layers}
    extra = sorted(set(res["metrics"]) - known)
    if extra:
        die("traced %s printed metrics missing from layers.json: %s" % (workload, extra))
    metrics, not_measured = {}, []
    for l in layers:
        name = l["metric"]
        if workload not in l["reported_on"]:
            if name in res["metrics"]:
                die("traced %s measured %s, which layers.json does not list for it" % (workload, name))
            metrics[name] = {"value": 0, "unit": l["unit"]}
            not_measured.append(name)
            continue
        m = res["metrics"].get(name)
        if m is None or m["unit"] != l["unit"] or not isinstance(m["value"], (int, float)):
            die("traced %s did not measure %s in %s" % (workload, name, l["unit"]))
        metrics[name] = m
    res["metrics"] = metrics
    res.setdefault("facts", {})["not_measured_here"] = not_measured
    return res


def measure(args, work):
    if args.trace:
        res = bench("trace", args.workload, args.seed, args.seconds, args.size, work)
        return complete_layers(args.workload, res)
    phases = PHASES[args.workload]
    probes = RSS_PROBES.get(args.workload, 0)
    setups = [bench("setup", args.workload, args.seed, args.seconds, args.size, work)["setup_s"]
              for _ in range(SETUP_SAMPLES[args.workload] - phases - probes)]
    seeds = [args.seed + SEED_STEP * i for i in range(phases + probes)]
    runs = [bench("run", args.workload, seed, args.seconds / phases, args.size, work)
            for seed in seeds[:phases]]
    extra = [bench("rss", args.workload, seed, args.seconds, args.size, work)
             for seed in seeds[phases:]]
    setups += [r["metrics"]["setup_s"]["value"] for r in runs + extra]
    metrics = {}
    facts = runs[0].setdefault("facts", {})
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        if phases > 1 and name != "setup_s":
            facts["phases." + name] = values
    metrics["setup_s"]["value"] = statistics.median(setups)
    facts["setup_samples_s"] = setups
    if extra:
        rss = [r["metrics"]["peak_rss_mb"]["value"] for r in runs + extra]
        metrics["peak_rss_mb"]["value"] = statistics.mean(rss)
        facts["rss_samples_mb"] = rss
    return {"correct": all(r["correct"] for r in runs + extra),
            "attempted": sum(r["attempted"] for r in runs + extra),
            "failed": sum(r["failed"] for r in runs + extra),
            "metrics": metrics, "facts": facts}


def self_check():
    ok = True
    for w in WORKLOADS:
        work = os.path.join(".perfbench", "selfcheck-%d" % os.getpid())
        os.makedirs(work, exist_ok=True)
        try:
            d1 = bench("digest", w, 7, 1, "tiny", work)["digest"]
            d2 = bench("digest", w, 7, 1, "tiny", work)["digest"]
            runs = [bench("run", w, 7, 1, "tiny", work),
                    complete_layers(w, bench("trace", w, 7, 1, "tiny", work))]
            if w in RSS_PROBES:
                runs.append(bench("rss", w, 7 + SEED_STEP, 1, "tiny", work))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        same = d1 == d2
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        print("%-13s inputs %s, answers %s" % (w, "identical" if same else "DIFFER",
                                               "correct" if correct else "WRONG"))
        ok = ok and same and correct
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    check_sources()
    build()
    global DEADLINE
    DEADLINE = time.monotonic() + (600 if args.self_check else 170)
    if args.self_check:
        sys.exit(self_check())
    if not args.workload:
        die("--workload is required")
    total0, steal0 = cpu_times()
    work = os.path.join(".perfbench", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        res = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    total1, steal1 = cpu_times()
    with open("/proc/loadavg") as f:
        load1 = f.read().split()[0]
    facts = {
        "nproc": os.cpu_count(),
        "ocaml": ocaml_version(),
        "source": source_id(),
        "loadavg_1m": float(load1),
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }
    facts.update(res.get("facts", {}))
    for k in sorted(facts):
        print("fact %s = %s" % (k, json.dumps(facts[k])))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))


if __name__ == "__main__":
    main()
