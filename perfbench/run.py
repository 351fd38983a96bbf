#!/usr/bin/env python3
"""End-to-end benchmark of GRANII: warm served GCN inference, a GAT training
loop, and cold one-shot granii-cli runs.

    python3 perfbench/run.py --workload gcn-infer-warm --seed 1
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload gat-train-warm --seed 1 --trace 1

It builds the repository's libraries and granii-cli from source into
.bench_build/, generates seeded inputs there (cached by spec and seed), runs
the workload in a fresh process, checks its outputs, and prints every metric
by name with its unit. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the per-layer ones of the traced run.
See perfbench/README.md for the definitions.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
MODELS = os.path.join(HERE, "models")

THREADS = 4            # kernel threads of every workload
MIN_BEYOND = 10        # samples a reported percentile needs beyond it
REQUESTS = 120         # timed requests per run: 12 beyond the p90, and 5
                       # full cycles of oneshot-cold's 24 configurations
LOOP_CAP_S = 120.0     # safety cap on one timed loop, below the 180 s limit
SETUPS = 3             # set-ups per run, each in a fresh process; setup_s
                       # is their median

WORKLOADS = {
    "gcn-infer-warm": {
        "why": "served warm GCN inference: runtime and kernels, cold path only in set-up",
        "graph": ("rmat", 100000, 4000000), "model": "gcn", "kin": 128, "kout": 128,
    },
    "gat-train-warm": {
        "why": "GAT training loop: backward pass, edge kernels, caller-mutated weights",
        "graph": ("rmat", 25000, 1000000), "model": "gat", "kin": 64, "kout": 128,
    },
    "oneshot-cold": {
        "why": "sequential granii-cli runs: every request pays load, compile and select",
        "graphs": [("rmat", 20000, 400000), ("community", 20000, 400000)],
        "models": ["gcn", "gat", "sage", "gin", "sgc", "tagcn"],
        "kpairs": [(32, 128), (128, 32)],
    },
}

END_TO_END = [  # name, unit (all lower-is-better)
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("cpu_ms_per_request", "ms"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [  # name, unit; the traced run reports each (0 = n/a)
    ("serve.session_run_ms", "ms"), ("serve.overhead_ms", "ms"),
    ("serve.response_bytes", "bytes"), ("serve.session_hits", "count"),
    ("serve.session_misses", "count"), ("serve.plan_cache_hits", "count"),
    ("serve.plan_cache_misses", "count"), ("serve.unattributed_ms", "ms"),
    ("cli.unattributed_ms", "ms"),
    ("graph.load_ms", "ms"), ("graph.self_loops_ms", "ms"),
    ("graph.fingerprint_ms", "ms"),
    ("assoc.compile_ms", "ms"), ("assoc.enumerated", "count"),
    ("assoc.promoted", "count"),
    ("granii.params_ms", "ms"), ("granii.select_ms", "ms"),
    ("granii.regret", "ratio"),
    ("runtime.first_run_ms", "ms"), ("runtime.execute_ms", "ms"),
    ("runtime.charged_ms", "ms"), ("runtime.charged_ratio", "ratio"),
    ("runtime.steady_allocs", "count"),
    ("kernels.spmm_ms", "ms"), ("kernels.gemm_ms", "ms"),
    ("kernels.edge_ms", "ms"), ("kernels.elementwise_ms", "ms"),
    ("kernels.spmm_gbps", "GB/s"),
    ("trace.overhead_pct", "%"),
]


class BenchError(Exception):
    """A run that cannot produce a result (build, input or sampling error)."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def steal_slope(samples_ms, stolen_ms):
    """Theil-Sen slope of request wall time on the CPU time the hypervisor
    stole during each request, clamped to [0, 1]: stolen time delays the
    caller by at most all of it, and where the fit finds no relation the
    slope is 0 and the samples stay as measured."""
    pairs = list(zip(stolen_ms, samples_ms))
    slopes = [(w2 - w1) / (s2 - s1) for i, (s1, w1) in enumerate(pairs)
              for (s2, w2) in pairs[i + 1:] if s2 != s1]
    slope = statistics.median(slopes) if slopes else 0.0
    return min(max(slope, 0.0), 1.0)


def steal_adjusted(samples_ms, stolen_ms):
    """Per-request wall time less the part the stolen time explains."""
    slope = steal_slope(samples_ms, stolen_ms)
    return [w - slope * s for w, s in zip(samples_ms, stolen_ms)], slope


def percentile(samples, q):
    """The q-quantile (0 < q < 1) of samples, as statistics.quantiles'
    exclusive method places it. Refuses a tail with fewer than MIN_BEYOND
    samples beyond the quantile: such a tail is a guess, not a measurement."""
    n = len(samples)
    beyond = n - math.floor(q * (n + 1))
    if n < 2 or beyond < MIN_BEYOND:
        raise BenchError("p%g needs %d samples beyond it; %d samples give %d"
                         % (q * 100, MIN_BEYOND, n, max(beyond, 0)))
    if q == 0.5:
        return statistics.median(samples)
    cuts = statistics.quantiles(samples, n=100, method="exclusive")
    return cuts[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# Processes: CPU and peak RSS of children
# ---------------------------------------------------------------------------

def spawn_and_wait(argv, env, cwd, stdout_path, stderr_path):
    """Runs argv to completion. Returns (exit status, wall seconds, CPU
    seconds, peak RSS in KiB). CPU and RSS come from wait4, so they cover the
    child and every descendant it waited for."""
    actions = [(1, stdout_path), (2, stderr_path)]
    start = time.perf_counter()
    pid = _spawn_in(argv, env, cwd, actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def _spawn_in(argv, env, cwd, redirects):
    # fork + exec rather than subprocess: the parent must reap the child
    # with wait4 itself to get its resource usage.
    pid = os.fork()
    if pid == 0:  # child
        try:
            os.chdir(cwd)
            for fd, path in redirects:
                target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(target, fd)
                os.close(target)
            os.execvpe(argv[0], argv, env)
        finally:
            os._exit(127)
    return pid


def child_env(work_dir):
    env = {k: v for k, v in os.environ.items()
           if k not in ("GRANII_NUM_THREADS", "GRANII_VERIFY", "GRANII_ISA",
                        "GRANII_CACHE_DIR")}
    env["GRANII_NUM_THREADS"] = str(THREADS)
    # Cost-model and plan caches go to this run's own directory, so runs
    # cannot warm one another and nothing lands in the repository.
    env["GRANII_CACHE_DIR"] = os.path.join(work_dir, "cache")
    return env


def run_json(argv, work_dir, label):
    """Runs a granii-perfbench subcommand; returns its last stdout line as
    JSON plus the child's (wall, cpu, rss)."""
    out = os.path.join(work_dir, label + ".out")
    err = os.path.join(work_dir, label + ".err")
    code, wall, cpu, rss = spawn_and_wait(argv, child_env(work_dir), work_dir, out, err)
    with open(out) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if code != 0 or not lines:
        with open(err) as f:
            tail = f.read()[-2000:]
        raise BenchError("%s exited with %d:\n%s" % (label, code, tail))
    return json.loads(lines[-1]), (wall, cpu, rss)


# ---------------------------------------------------------------------------
# Host-noise record (reported beside the metrics, never gated)
# ---------------------------------------------------------------------------

def read_cpu_times():
    """(all CPU time, stolen CPU time) of the machine so far, in ms."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    tick_ms = 1000.0 / os.sysconf("SC_CLK_TCK")
    return sum(fields[:8]) * tick_ms, steal * tick_ms


def stolen_ms():
    return read_cpu_times()[1]


def load_average():
    with open("/proc/loadavg") as f:
        return float(f.read().split()[0])


class HostRecord:
    def __init__(self):
        self.total0, self.steal0 = read_cpu_times()
        self.load0 = load_average()
        self.isa = "?"

    def finish(self):
        total1, steal1 = read_cpu_times()
        span = max(total1 - self.total0, 1.0)
        return {"steal_pct": 100.0 * (steal1 - self.steal0) / span,
                "load_avg_start": self.load0, "load_avg_end": load_average(),
                "kernel_threads": THREADS, "nproc": os.cpu_count(), "isa": self.isa}


# ---------------------------------------------------------------------------
# Build and inputs
# ---------------------------------------------------------------------------

def ensure_built():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no GRANII sources next to perfbench/ (expected %s)"
                         % os.path.join(ROOT, "src"))
    tree = os.path.join(BUILD, "tree")
    os.makedirs(tree, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    steps = [["cmake", "--build", tree, "-j", str(THREADS),
              "--target", "granii-perfbench", "granii-cli"]]
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", tree, "-DCMAKE_BUILD_TYPE=Release"])
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run(step, stdout=f, stderr=subprocess.STDOUT).returncode != 0:
                with open(log) as g:
                    tail = g.read()[-3000:]
                raise BenchError("build failed (%s):\n%s" % (log, tail))
    return (os.path.join(tree, "granii-perfbench"),
            os.path.join(tree, "granii-cli", "granii-cli"))


def ensure_graph(bench, spec, seed):
    """Generates one seeded graph once; later runs reuse the files. The time
    is the benchmark's own and is excluded from every metric."""
    kind, nodes, edges = spec
    graph_seed = derive_seed(seed, "graph:%s:%d:%d" % spec)
    name = "%s-%d-%d-s%d" % (kind, nodes, edges, seed)
    path = os.path.join(BUILD, "inputs", name)
    if os.path.isfile(os.path.join(path, "done")):
        return path
    tmp = "%s.tmp%d" % (path, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run_json([bench, "generate", "--kind", kind, "--nodes", str(nodes),
              "--edges", str(edges), "--seed", str(graph_seed), "--out", tmp],
             tmp, "generate")
    for stray in ("generate.out", "generate.err"):
        os.remove(os.path.join(tmp, stray))
    open(os.path.join(tmp, "done"), "w").close()
    shutil.rmtree(path, ignore_errors=True)
    os.rename(tmp, path)
    return path


def derive_seed(seed, purpose):
    digest = hashlib.sha256(("%d/%s" % (seed, purpose)).encode()).digest()
    return int.from_bytes(digest[:7], "little")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Outcome:
    """What one workload run measured."""

    def __init__(self):
        self.setup_s = []
        self.samples_ms = []
        self.stolen_ms = []  # hypervisor steal during each timed request
        self.cpu_s = 0.0
        self.peak_rss_kb = 0
        self.attempted = 0
        self.failed = 0
        self.notes = {}

    def end_to_end(self):
        n = len(self.samples_ms)
        if n == 0:
            raise BenchError("no successful timed request")
        adjusted, slope = steal_adjusted(self.samples_ms, self.stolen_ms)
        self.notes.update({
            "raw wall p50 ms": percentile(self.samples_ms, 0.5),
            "raw wall p90 ms": percentile(self.samples_ms, 0.9),
            "stolen ms per request": statistics.mean(self.stolen_ms),
            "steal slope": slope})
        return {
            "setup_s": statistics.median(self.setup_s),
            "request_ms_p50": percentile(adjusted, 0.5),
            "request_ms_p90": percentile(adjusted, 0.9),
            "cpu_ms_per_request": self.cpu_s * 1e3 / n,
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }


def common_flags(args):
    return ["--check-seed", str(derive_seed(args.seed, "check"))]


def warm_flags(name, bench, args):
    """Input flags of a warm workload, shared by its timed and traced runs."""
    spec = WORKLOADS[name]
    graph_dir = ensure_graph(bench, spec["graph"], args.seed)
    params = args.param_seed if args.param_seed is not None else derive_seed(args.seed, "params")
    return ["--graph-dir", graph_dir, "--model", os.path.join(MODELS, spec["model"] + ".gnn"),
            "--kin", str(spec["kin"]), "--kout", str(spec["kout"]),
            "--param-seed", str(params)] + common_flags(args)


def run_warm(name, bench, args, work_dir, host):
    command = "serve-warm" if name == "gcn-infer-warm" else "train-warm"
    argv = [bench, command] + warm_flags(name, bench, args) + [
        "--requests", str(REQUESTS), "--max-seconds", str(LOOP_CAP_S)]
    if args.inject_fault:
        argv.append("--inject-fault")
    out = Outcome()
    # Every set-up runs in a fresh process, so each one pays the process-cold
    # costs (thread-pool start, first-touch page faults). The last process
    # goes on to the checks and the timed loop.
    for i in range(SETUPS - 1):
        result, _ = run_json(argv + ["--setup-only"], work_dir, "%s-setup%d" % (name, i))
        out.setup_s.append(result["setup_s"])
    result, _ = run_json(argv, work_dir, name)
    host.isa = result["isa"]
    out.setup_s.append(result["setup_s"])
    out.samples_ms = result["samples_ms"]
    out.stolen_ms = result["stolen_ms"]
    out.cpu_s = result["cpu_s"]
    out.peak_rss_kb = max(result["setup_peak_rss_kb"], result["loop_peak_rss_kb"])
    out.attempted = result["attempted"]
    out.failed = result["failed"]
    check = result["check"]
    out.notes = {"rows checked": check["rows_checked"], "rows wrong": check["rows_wrong"],
                 "max check error": check["max_error"],
                 "repeat identical": check["repeat_identical"],
                 "set-up peak RSS MB": result["setup_peak_rss_kb"] / 1024.0,
                 "timed-loop peak RSS MB": result["loop_peak_rss_kb"] / 1024.0,
                 "peak RSS reset after check": result["peak_reset"]}
    if "steady_allocs" in result:  # the daemon reports it per response
        out.notes["steady allocations (expect 0)"] = result["steady_allocs"]
    return out


def oneshot_configs(bench, args):
    spec = WORKLOADS["oneshot-cold"]
    graphs = [ensure_graph(bench, g, args.seed) for g in spec["graphs"]]
    return [(m, g, kin, kout) for m in spec["models"] for g in graphs
            for (kin, kout) in spec["kpairs"]]


def cli_argv(cli, config, out_path):
    model, graph_dir, kin, kout = config
    return [cli, "run", os.path.join(MODELS, model + ".gnn"),
            "--graph", os.path.join(graph_dir, "graph.mtx"),
            "--kin", str(kin), "--kout", str(kout), "--threads", str(THREADS),
            "--out", out_path]


CLI_PARAM_SEED = 1  # granii-cli run always seeds makeLayerParams with 1


def run_oneshot(bench, cli, args, work_dir, host):
    configs = oneshot_configs(bench, args)
    env = child_env(work_dir)
    log_out = os.path.join(work_dir, "cli.out")
    log_err = os.path.join(work_dir, "cli.err")
    out = Outcome()
    first_digest = {}   # config index -> digest of its first output
    kept = {}           # config index -> path of that output, checked below
    runs = []           # (config index, digest or None)

    def one_run(index):
        path = os.path.join(work_dir, "out.bin")
        if os.path.exists(path):
            os.remove(path)
        steal0 = stolen_ms()
        code, wall, cpu, rss = spawn_and_wait(cli_argv(cli, configs[index], path),
                                              env, work_dir, log_out, log_err)
        stolen = stolen_ms() - steal0
        out.attempted += 1
        out.peak_rss_kb = max(out.peak_rss_kb, rss)
        digest = file_digest(path) if code == 0 and os.path.isfile(path) else None
        if digest is not None and index not in first_digest:
            first_digest[index] = digest
            kept[index] = os.path.join(work_dir, "out-%d.bin" % index)
            os.rename(path, kept[index])
        runs.append((index, digest))
        return code, wall, cpu, digest, stolen

    for _ in range(SETUPS):
        code, wall, _, digest, _ = one_run(0)
        if code != 0 or digest is None:
            raise BenchError("granii-cli run failed during set-up (see %s)" % log_err)
        out.setup_s.append(wall)

    loop0 = time.perf_counter()
    index = 0
    while len(out.samples_ms) < REQUESTS and time.perf_counter() - loop0 < LOOP_CAP_S:
        code, wall, cpu, digest, stolen = one_run(index)
        if code == 0 and digest is not None:
            out.samples_ms.append(wall * 1e3)
            out.stolen_ms.append(stolen)
            out.cpu_s += cpu
        index = (index + 1) % len(configs)

    # One reference check per configuration; every other run of it must
    # have returned the same bytes.
    manifest = os.path.join(work_dir, "manifest.txt")
    with open(manifest, "w") as f:
        for i, path in sorted(kept.items()):
            model, graph_dir, kin, kout = configs[i]
            f.write("%s %s %d %d %d %s\n" % (os.path.join(MODELS, model + ".gnn"),
                                             graph_dir, kin, kout, CLI_PARAM_SEED, path))
    argv = [bench, "check", "--manifest", manifest] + common_flags(args)
    if args.inject_fault:
        argv.append("--inject-fault")
    checked, _ = run_json(argv, work_dir, "check")
    host.isa = checked["isa"]
    bad_configs = {sorted(kept)[line] for line in checked["failed_lines"]}
    out.failed, wrong_bytes = count_failures(runs, first_digest, bad_configs)
    out.notes = {"configurations": len(configs), "outputs checked": checked["checked"],
                 "outputs wrong": checked["failed"], "max check error": checked["max_error"],
                 "repeat identical": wrong_bytes == 0}
    return out


def count_failures(runs, first_digest, bad_configs):
    """One-shot accounting. A run fails if it produced no output, if its
    configuration's checked output was wrong, or if its bytes differ from
    the first run of its configuration. Returns (failed, runs whose bytes
    differ)."""
    failed = wrong_bytes = 0
    for config, digest in runs:
        differs = digest is not None and digest != first_digest.get(config)
        wrong_bytes += differs
        failed += digest is None or config in bad_configs or differs
    return failed, wrong_bytes


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def run_traced(name, bench, cli, args, work_dir, host):
    """Per-layer metrics: the benchmark calls each layer itself, in spans."""
    spans_path = os.path.join(BUILD, "last-trace-%s.json" % name)
    argv = [bench, "trace", "--workload", name, "--spans", spans_path]
    if name == "oneshot-cold":
        configs = oneshot_configs(bench, args)
        manifest = os.path.join(work_dir, "configs.txt")
        with open(manifest, "w") as f:
            for model, graph_dir, kin, kout in configs:
                f.write("%s %s %d %d %d\n" % (os.path.join(MODELS, model + ".gnn"),
                                              graph_dir, kin, kout, CLI_PARAM_SEED))
        argv += ["--configs", manifest] + common_flags(args)
    else:
        argv += warm_flags(name, bench, args)
    result, _ = run_json(argv, work_dir, "trace-" + name)
    host.isa = result["isa"]
    metrics = result["metrics"]
    if name == "oneshot-cold":
        # The CLI process is opaque: its wall time minus the layer calls the
        # traced run measured on the same configuration is unattributed.
        walls = []
        for i, config in enumerate(configs):
            path = os.path.join(work_dir, "trace-out.bin")
            code, wall, _, _ = spawn_and_wait(cli_argv(cli, config, path), child_env(work_dir),
                                              work_dir, os.path.join(work_dir, "cli.out"),
                                              os.path.join(work_dir, "cli.err"))
            if code != 0:
                raise BenchError("granii-cli run failed in the traced run")
            walls.append(wall * 1e3 - result["layer_sum_ms"][i])
        metrics["cli.unattributed_ms"] = statistics.mean(walls)
    return result, metrics


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def fmt(value):
    return ("%.6g" % value) if isinstance(value, float) else str(value)


def report_end_to_end(name, out, metrics, host_info):
    n = len(out.samples_ms)
    beyond_p90 = n - math.floor(0.9 * (n + 1))
    print("== %s: %s" % (name, WORKLOADS[name]["why"]))
    units = dict(END_TO_END)
    counts = {"setup_s": "%d set-ups" % len(out.setup_s),
              "request_ms_p50": "n=%d" % n,
              "request_ms_p90": "n=%d, %d beyond" % (n, beyond_p90),
              "cpu_ms_per_request": "n=%d" % n, "peak_rss_mb": ""}
    for key in units:
        print("  %-22s %14s %-3s %s" % (key, fmt(metrics[key]), units[key], counts[key]))
    ratio = out.failed / out.attempted if out.attempted else 1.0
    print("  %-22s %14s %-3s %d of %d requests" % ("failed_ratio", fmt(ratio), "1",
                                                  out.failed, out.attempted))
    for key, value in out.notes.items():
        print("  check: %-28s %s" % (key, fmt(value)))
    print("  host: " + ", ".join("%s %s" % (k, fmt(v)) for k, v in host_info.items()))


def report_layers(name, result, metrics, host_info):
    print("== %s traced run (layer calls timed from the benchmark)" % name)
    for key, unit in PER_LAYER:
        value = metrics.get(key)
        shown = "n/a" if value is None else fmt(value)
        print("  %-26s %14s %s" % (key, shown, unit if value is not None else ""))
    for layer, ms in sorted(result.get("self_ms", {}).items()):
        print("  self time %-16s %14s ms" % (layer, fmt(ms)))
    print("  spans written to %s" % result.get("spans_file", "?"))
    print("  host: " + ", ".join("%s %s" % (k, fmt(v)) for k, v in host_info.items()))


def run_workload(name, bench, cli, args):
    work_dir = os.path.join(BUILD, "runs", "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(os.path.join(work_dir, "cache"))
    host = HostRecord()
    try:
        if args.trace:
            result, measured = run_traced(name, bench, cli, args, work_dir, host)
            report_layers(name, result, measured, host.finish())
            metrics = {key: {"value": measured.get(key, 0), "unit": unit}
                       for key, unit in PER_LAYER}
            checks = result["check"]
            return checks["attempted"], checks["failed"], metrics
        if name == "oneshot-cold":
            out = run_oneshot(bench, cli, args, work_dir, host)
        else:
            out = run_warm(name, bench, args, work_dir, host)
        values = out.end_to_end()
        report_end_to_end(name, out, values, host.finish())
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}
        return out.attempted, out.failed, metrics
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="drives every generated graph and parameter")
    parser.add_argument("--param-seed", type=int, default=None,
                        help="second seed: overrides the parameter seed of the "
                             "warm workloads (e.g. to re-check a claim)")
    # A run always times REQUESTS requests, so both sides of a comparison
    # time the same work. --seconds is part of the benchmark's calling
    # convention (BENCHMARK.json's run_seconds) and does not change that.
    parser.add_argument("--seconds", type=float, default=None,
                        help="accepted for the calling convention; a run always "
                             "times %d requests" % REQUESTS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="perturb one checked output row (tests the check)")
    args = parser.parse_args(argv)

    try:
        bench, cli = ensure_built()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            a, f, m = run_workload(name, bench, cli, args)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
