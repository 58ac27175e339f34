#!/usr/bin/env python3
"""The repository benchmark: the build and serve-read workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

It builds the pathest library, the pathest_cli daemon and the benchmark
harness from source under .bench_build/, makes seeded inputs, runs the
workload for --seconds, checks the outputs, and prints one JSON object as
its last line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics. The line before it is the host
and configuration block. Every result is also kept, with its raw samples,
under .bench_build/results/ for perfbench/compare.py.

See perfbench/README.md for the workloads and the metric-to-layer map.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

BUILD = ".bench_build"
CMAKE_DIR = os.path.join(BUILD, "cmake")
HARNESS = os.path.join(CMAKE_DIR, "perfbench_harness")
CLI = os.path.join(CMAKE_DIR, "pathest", "pathest_cli")

# Fixed configuration, recorded in every result.
CONFIG = {
    "build_threads": 1,      # path engine and ingest threads of `build`
    # Threads of the untimed catalog builds (the serve-read catalog, the
    # maint replay's entry); catalogs are bit-identical at every count.
    "catalog_threads": 4,
    "reader_connections": 2,  # closed-loop estimate connections
    "daemon_workers": 4,     # pathest_cli serve workers= (its default)
    "maint_batch_adds": 32,  # edge adds per batch of the maint replay
    "maint_seconds": 5,      # length of the maint replay (traced build)
    "setups": {"build": 3, "serve-read": 9},
    # The daemon and its client share this many CPUs: a request's wake-ups
    # then stay on the CPUs that just ran its pair, instead of waking an
    # idle vCPU, which made round trips drift by a quarter between runs.
    "serve_cpus": 2,
}
DAEMON_START_TIMEOUT_S = 60


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    with open(logfile, "a") as out:
        rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logfile) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"{' '.join(cmd)} failed with code {rc}:\n{tail}")


def build_programs():
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    configured = any(os.path.exists(os.path.join(CMAKE_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", "perfbench", "-B", CMAKE_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"] + gen, logfile)
    run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench_harness",
                "pathest_cli", "-j", "4"], logfile)


def harness(*args, cpus=None):
    """Runs one harness subcommand to completion; returns its JSON line."""
    proc = subprocess.run([HARNESS] + [str(a) for a in args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170, preexec_fn=pin(cpus))
    if proc.returncode != 0:
        raise BenchError(f"harness {args[0]} failed ({proc.returncode}): "
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def serve_cpus():
    """The CPUs the daemon and its clients share."""
    return sorted(os.sched_getaffinity(0))[:CONFIG["serve_cpus"]]


def pin(cpus):
    return None if cpus is None else lambda: os.sched_setaffinity(0, cpus)


def cmake_cache_value(key):
    try:
        with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def host_block():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "not a git checkout"
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    compiler = cmake_cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cmake_cache_value("CMAKE_BUILD_TYPE"),
            "git_sha": sha, "kernel": platform.release(),
            "loadavg": os.getloadavg()}


# ------------------------------------------------------------- the daemon

def health_ok(sock_path):
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(5)
            s.connect(sock_path)
            s.sendall(b"health\n")
            data = b""
            while not data.endswith(b"\n"):
                chunk = s.recv(4096)
                if not chunk:
                    break
                data += chunk
            return data.startswith(b"ok")
    except (FileNotFoundError, ConnectionRefusedError):
        return False


class Daemon:
    """pathest_cli serve, timed from exec until `health` answers ok."""

    def __init__(self, work, catalog):
        self.sock = os.path.join(work, "d.sock")
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.logfile = open(os.path.join(work, "daemon.log"), "a")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", self.sock, catalog,
             f"workers={CONFIG['daemon_workers']}"],
            stdout=self.logfile, stderr=subprocess.STDOUT,
            preexec_fn=pin(serve_cpus()))
        while not health_ok(self.sock):
            if self.proc.poll() is not None:
                self.logfile.close()
                raise BenchError(f"daemon exited with {self.proc.returncode}")
            if time.perf_counter() - start > DAEMON_START_TIMEOUT_S:
                self.stop()
                raise BenchError("daemon did not answer health")
            time.sleep(0.0005)
        self.setup_s = time.perf_counter() - start

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.logfile.close()


def catalog_bytes(catalog):
    return sum(os.path.getsize(os.path.join(catalog, f))
               for f in os.listdir(catalog) if f.endswith(".stats"))


# -------------------------------------------------------------- workloads

def run_build(args, work, data):
    """Closed loop of full statistics rebuilds, one op at a time."""
    threads = CONFIG["build_threads"]
    base = [HARNESS, "build", "--data", data, "--out",
            os.path.join(work, "catalog"), "--threads", threads]
    setups = []
    result = None
    for i in range(CONFIG["setups"]["build"]):
        last = i == CONFIG["setups"]["build"] - 1
        cmd = base + (["--seconds", args.seconds, "--trace", args.trace,
                       "--spans", os.path.join(work, "spans.tsv")] if last
                      else ["--seconds", 0, "--trace", 0, "--setup-only", 1])
        errlog = os.path.join(work, "build-harness.log")
        start = time.perf_counter()
        with open(errlog, "w") as err:
            proc = subprocess.Popen([str(c) for c in cmd],
                                    stdout=subprocess.PIPE, stderr=err,
                                    text=True)
            try:
                ready = proc.stdout.readline()
                setups.append(time.perf_counter() - start)
                out = proc.stdout.read()
                proc.wait(timeout=170)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if ready.strip() != "ready" or proc.returncode != 0:
            with open(errlog) as f:
                raise BenchError(f"build harness failed ({proc.returncode}): "
                                 f"{f.read()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
    op_ms = result["op_ms"]["p50"]
    e2e = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": op_ms,
        "paths_per_s": result["domain_paths"] / (op_ms / 1e3),
        "peak_rss_mb": result["peak_rss_mb"],
        "catalog_mb": result["catalog_bytes"] / 1e6,
        "mean_abs_error": result["mean_abs_error"],
    }
    layers = dict(result["layers"])
    if args.trace:
        # The maint layer, traced in-process: seeded edge-delta batches
        # through incremental refreshes of a k=3 dbpedia entry.
        entry = os.path.join(work, "maint")
        harness("catalog", "--data", data, "--out", entry, "--set", "maint",
                "--threads", CONFIG["catalog_threads"])
        maint = harness("maint", "--catalog", entry, "--graph",
                        os.path.join(data, "dbpedia.graph"), "--seed",
                        args.seed, "--batch", CONFIG["maint_batch_adds"],
                        "--seconds", CONFIG["maint_seconds"], "--spans",
                        os.path.join(work, "maint-spans.tsv"))
        layers.update(maint["layers"])
    raw = {"setup_s": setups, "harness": result}
    return e2e, layers, result["attempted"], result["failed"], raw


def run_serve_read(args, work, data):
    """The static daemon, out of process, under closed-loop readers."""
    catalog = os.path.join(work, "catalog")
    built = harness("catalog", "--data", data, "--out", catalog, "--set",
                    "build", "--threads", CONFIG["catalog_threads"])
    setups = []
    daemon = None
    try:
        for _ in range(CONFIG["setups"]["serve-read"]):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(work, catalog)
            setups.append(daemon.setup_s)
        result = harness("client", "--socket", daemon.sock, "--catalog",
                         catalog, "--seed", args.seed, "--seconds",
                         args.seconds, "--readers",
                         CONFIG["reader_connections"], "--daemon-pid",
                         daemon.proc.pid, "--trace", args.trace, "--spans",
                         os.path.join(work, "spans.tsv"), cpus=serve_cpus())
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    e2e = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": result["read_us"]["p50"] / 1e3,
        "paths_per_s": result["paths_per_second"]["p50"],
        "peak_rss_mb": peak_rss_mb,
        "catalog_mb": catalog_bytes(catalog) / 1e6,
        "mean_abs_error": built["mean_abs_error"],
    }
    attempted = result["attempted"] + 1
    failed = result["failed"] + (1 if built["mismatches"] else 0)
    raw = {"setup_s": setups, "harness": result, "catalog": built}
    return e2e, result["layers"], attempted, failed, raw


# ------------------------------------------------------------------ main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["build", "serve-read"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results", default=os.path.join(BUILD, "results"),
                        help="directory that keeps every result "
                             "(perfbench/compare.py reads it)")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_programs()

    work = os.path.join(BUILD, "run", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "data")
    try:
        harness("gen", "--data", data, "--seed", args.seed, "--graphs",
                "dbpedia,snap-ff")
        run = run_build if args.workload == "build" else run_serve_read
        e2e, layers, attempted, failed, raw = run(args, work, data)
    finally:
        for name in ("spans.tsv", "maint-spans.tsv"):
            spans = os.path.join(work, name)
            if args.trace and os.path.exists(spans):
                os.makedirs(args.results, exist_ok=True)
                shutil.copy(spans, os.path.join(
                    args.results, f"{args.workload}-seed{args.seed}-{name}"))
        shutil.rmtree(work, ignore_errors=True)

    # Per-layer metrics cover every layer; a layer the workload does not
    # run reads 0.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    unknown = set(values) - set(metrics)
    missing = [name for name in metrics if name not in values]
    if unknown or (missing and not args.trace):
        raise BenchError(f"metrics out of step with BENCHMARK.json: "
                         f"unknown {sorted(unknown)}, missing {missing}")
    block = {"host": host_block(), "config": dict(CONFIG, seed=args.seed,
                                                   workload=args.workload,
                                                   seconds=args.seconds,
                                                   trace=args.trace)}
    line = {"correct": failed == 0, "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
    os.makedirs(args.results, exist_ok=True)
    with open(os.path.join(args.results, f"{args.workload}-seed{args.seed}-"
                           f"trace{args.trace}.json"), "w") as f:
        json.dump(dict(line, **block, raw=raw, all_layers=layers), f, indent=1)
    print(json.dumps(block))
    print(json.dumps(line))


if __name__ == "__main__":
    try:
        main()
    except Exception as e:  # any failure: no result line, nonzero exit
        log(f"error: {type(e).__name__}: {e}")
        sys.exit(1)
