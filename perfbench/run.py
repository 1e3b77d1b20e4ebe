#!/usr/bin/env python3
"""Benchmark runner for umlsoc: chaos soak (thread and process fleets),
verifier and model-compile workloads.

    python3 perfbench/run.py --workload soak --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the repository's
libraries and the benchmark binaries from source into .bench_build/ (see
perfbench/CMakeLists.txt); later runs only re-check the build. The last
line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones. README.md in
this directory describes the workloads and every metric.
"""

import argparse
import glob
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"

WORKLOADS = ("soak", "soak-process", "verify", "compile")

# Seeds per soak invocation; a run makes invocations until its time is up.
SOAK_SEEDS = 256
# One-seed soak invocations per untraced run that add set-up samples.
SETUP_PROBES = 8
# A single program invocation never runs longer than this.
INVOCATION_TIMEOUT_S = 150
# The tail percentile reported, and how many samples must lie beyond it.
TAIL_Q = 0.95
TAIL_BEYOND = 10

# Nominal wall time of one reference round (src/calibrate.cpp). Times are
# scaled to a host that runs a round in this time; see README.md.
REF_ROUND_NS = 150_000

# A unit of work is one soak seed, one verifier state or one compiled model.
# Throughput is counted per second of user CPU time, scaled by host speed
# (see README.md for why wall-clock figures are per-layer only).
END_TO_END = {
    "units_per_norm_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SPAN_MS = [
    "replay.checkpoint", "replay.capture", "replay.xml_save", "replay.xml_restore",
    "replay.ladder_restore", "replay.chain_decode", "replay.apply", "replay.recover",
    "statechart.compile", "soak.scratch_fs",
    "verify.explore", "statechart.dispatch", "statechart.capture", "statechart.restore",
    "xmi.read", "xmi.write", "uml.validate", "soc.validate", "asl.constraints",
    "mda.transform", "statechart.flatten", "codegen.rtl", "codegen.systemc", "codegen.sw",
    "codegen.tables", "codegen.plantuml",
]
PER_LAYER = {name + ".ms": "ms" for name in _SPAN_MS}
PER_LAYER.update({
    "replay.checkpoint.self_ms": "ms",
    "replay.checkpoint.calls": "count",
    "replay.checkpoint.bytes": "bytes",
    "replay.encode.self_ms": "ms",
    "replay.sections_dirty_ratio": "ratio",
    "replay.xml_save.calls": "count",
    "replay.xml_save.ok_ratio": "ratio",
    "replay.ladder_restore.calls": "count",
    "replay.quarantines": "count",
    "replay.snapshot_encodes": "count",
    "replay.rollup_checkpoints": "count",
    "sim.run.self_ms": "ms",
    "sim.run.calls": "count",
    "sim.events": "count",
    "fleet.idle_ms": "ms",
    "fleet.seed_wall_sum_ms": "ms",
    "fleet.redispatches": "count",
    "fleet.worker_deaths": "count",
    "soak.body.self_ms": "ms",
    "soak.span_coverage": "ratio",
    "verify.self_ms": "ms",
    "verify.states": "count",
    "verify.transitions": "count",
    "verify.revisit_ratio": "ratio",
    "statechart.dispatch.calls": "count",
    "statechart.interpreter_fallbacks": "count",
    "mda.psm_elements": "count",
    "codegen.loc": "lines",
    "trace.overhead_ratio": "ratio",
    "wall.units_per_s": "1/s",
    "wall.unit_p50_ms": "ms",
    "wall.unit_p95_ms": "ms",
    "cpu.sys_share": "ratio",
    "cpu.units_per_s": "1/s",
    "host.ref_round_us": "us",
})


class BenchError(Exception):
    """A failure that ends the run without a result."""


def log(message):
    print(message, flush=True)


# --- Statistics ----------------------------------------------------------------

def tail_percentile(values, q=TAIL_Q, beyond=TAIL_BEYOND):
    """Nearest-rank q-quantile; refuses when fewer than `beyond` samples
    lie above it, so a reported tail always rests on enough samples."""
    if not values:
        raise BenchError("no samples for the tail percentile")
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered))
    if len(ordered) - rank < beyond:
        raise BenchError("%d samples leave %d beyond the %g quantile; %d needed"
                         % (len(ordered), len(ordered) - rank, q, beyond))
    return ordered[rank - 1]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# --- Spans ----------------------------------------------------------------------

def read_spans(directory):
    """Sums the span totals of every process and thread in `directory`:
    {name: {"calls", "total_ns", "self_ns", "root_ns", "arg"}}."""
    totals = {}
    for path in sorted(glob.glob(os.path.join(directory, "spans-*.tsv"))):
        with open(path) as handle:
            for line in handle:
                fields = line.split("\t")
                if len(fields) != 7:
                    raise BenchError("malformed span line in %s: %r" % (path, line))
                entry = totals.setdefault(fields[1], {
                    "calls": 0, "total_ns": 0, "self_ns": 0, "root_ns": 0, "arg": 0})
                for key, text in zip(("calls", "total_ns", "self_ns", "root_ns", "arg"),
                                     fields[2:]):
                    entry[key] += int(text)
    return totals


def merge_spans(into, more):
    for name, entry in more.items():
        target = into.setdefault(name, dict.fromkeys(entry, 0))
        for key, value in entry.items():
            target[key] += value
    return into


def span_layers(spans):
    """The per-layer metrics every workload reports from its spans; a layer
    that did no work on this workload reports 0."""
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    metrics = {name + ".ms": get(name, "total_ns") / 1e6 for name in _SPAN_MS}
    metrics.update({
        "replay.checkpoint.self_ms": get("replay.checkpoint", "self_ns") / 1e6,
        "replay.checkpoint.calls": get("replay.checkpoint", "calls"),
        "replay.checkpoint.bytes": get("replay.checkpoint", "arg"),
        "replay.encode.self_ms": get("replay.encode", "self_ns") / 1e6,
        "replay.xml_save.calls": get("replay.xml_save", "calls"),
        "replay.xml_save.ok_ratio": ratio(get("replay.xml_save", "arg"),
                                          get("replay.xml_save", "calls")),
        "replay.ladder_restore.calls": get("replay.ladder_restore", "calls"),
        "replay.quarantines": get("replay.ladder_restore", "arg"),
        "sim.run.self_ms": get("sim.run", "self_ns") / 1e6,
        "sim.run.calls": get("sim.run", "calls"),
        "sim.events": get("sim.run", "arg"),
        "verify.self_ms": get("verify.explore", "self_ns") / 1e6,
        "statechart.dispatch.calls": get("statechart.dispatch", "calls"),
    })
    return metrics


def zero_layers():
    return {name: 0 for name in PER_LAYER}


# --- Build and environment -------------------------------------------------------

def check_sources():
    for relative in ("src/CMakeLists.txt", "examples/uart_soc.cpp", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, relative)):
            raise BenchError("%s is missing: run from a full checkout of the repository"
                             % relative)


def stop(proc):
    """Kills a child's whole process group (forked pool workers included)
    and waits for the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def run_logged(command, log_path, timeout):
    with open(log_path, "a") as out:
        out.write("$ %s\n" % " ".join(command))
        out.flush()
        proc = subprocess.Popen(command, stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            stop(proc)
            raise BenchError("timed out: %s" % " ".join(command))
        except BaseException:
            stop(proc)
            raise
    if code != 0:
        with open(log_path) as handle:
            tail = handle.read()[-4000:]
        raise BenchError("%s failed (exit %d):\n%s" % (" ".join(command), code, tail))


def build():
    """Configures once, then brings the benchmark binaries up to date."""
    check_sources()
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                   log_path, 300)
    run_logged(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)], log_path, 840)


def compiler():
    for path in glob.glob(os.path.join(BUILD, "CMakeFiles", "*", "CMakeCXXCompiler.cmake")):
        fields = {}
        with open(path) as handle:
            for line in handle:
                for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                    if line.startswith("set(%s " % key):
                        fields[key] = line.split('"')[1]
        return "%s %s" % (fields.get("CMAKE_CXX_COMPILER_ID", "?"),
                          fields.get("CMAKE_CXX_COMPILER_VERSION", "?"))
    return "?"


def filesystem_type(path):
    """Type of the filesystem holding `path`, from /proc/self/mountinfo."""
    path = os.path.realpath(path)
    best, best_type = "", "?"
    try:
        with open("/proc/self/mountinfo") as handle:
            for line in handle:
                left, _, right = line.partition(" - ")
                mount_point = left.split()[4]
                inside = path == mount_point or path.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) >= len(best):
                    best, best_type = mount_point, right.split()[0]
    except OSError:
        pass
    return best_type


def loadavg():
    with open("/proc/loadavg") as handle:
        return [float(value) for value in handle.read().split()[:3]]


# --- Program invocations ------------------------------------------------------------

def invoke(command, out_dir, env_extra=None):
    """Runs one program invocation in `out_dir`; returns (spawn_ns, stdout,
    (user_s, sys_s)) with the CPU time of the program and every process it
    started and waited for."""
    env = dict(os.environ)
    env.update(env_extra or {})
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    spawn_ns = time.monotonic_ns()
    proc = subprocess.Popen(command, cwd=out_dir, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("timed out: %s" % " ".join(command))
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise BenchError("%s exited %d:\n%s%s" % (" ".join(command), proc.returncode,
                                                  stdout[-2000:], stderr[-2000:]))
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return spawn_ns, stdout, (after.ru_utime - before.ru_utime,
                              after.ru_stime - before.ru_stime)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def soak_invocation(traced, isolation, seed_base, run_dir, index, seeds=SOAK_SEEDS):
    """One uart_soc --chaos-soak invocation through a wrapped soak binary."""
    out_dir = fresh_dir(os.path.join(run_dir, "inv-%d" % index))
    binary = os.path.join(BUILD, "soak_traced" if traced else "soak_plain")
    command = [binary, "--chaos-soak=%d" % seeds, "--jobs=%d" % (os.cpu_count() or 1),
               "--isolation=" + isolation]
    spawn_ns, _, (user_s, sys_s) = invoke(command, out_dir, {
        "TMPDIR": scratch_dir(), "PERFBENCH_OUT": out_dir,
        "PERFBENCH_SEED_BASE": str(seed_base)})
    with open(os.path.join(out_dir, "fleet.json")) as handle:
        fleet = json.load(handle)
    worker_kb = 0
    for path in glob.glob(os.path.join(out_dir, "worker-*.rss")):
        with open(path) as handle:
            worker_kb += int(handle.read())
    rounds = []
    for path in glob.glob(os.path.join(out_dir, "cal-*.txt")):
        with open(path) as handle:
            rounds += [int(line) for line in handle]
    return {
        "setup_s": (fleet["entry_ns"] - spawn_ns) / 1e9,
        "range_s": (fleet["exit_ns"] - fleet["entry_ns"]) / 1e9,
        "fleet": fleet,
        "rss_kb": fleet["peak_rss_kb"] + worker_kb,
        "user_s": user_s,
        "sys_s": sys_s,
        "rounds": rounds,
        "spans": read_spans(out_dir) if traced else {},
    }


def scratch_dir():
    path = os.path.join(BUILD_ROOT, "scratch")
    os.makedirs(path, exist_ok=True)
    return path


# --- Workloads -------------------------------------------------------------------------

def soak_phase(traced, isolation, seed_base, seconds, run_dir):
    invocations = []
    start = time.monotonic()
    while not invocations or time.monotonic() - start < seconds:
        invocations.append(soak_invocation(traced, isolation,
                                           seed_base + len(invocations) * SOAK_SEEDS,
                                           run_dir, len(invocations)))
    return soak_summary(invocations), invocations


def host_scale(round_ns):
    """How much slower than nominal the host ran the reference round."""
    if not round_ns:
        raise BenchError("no reference rounds were recorded")
    return round_ns / REF_ROUND_NS


def soak_cpu_rate(invocations):
    # Pooled rather than a median of invocations: user CPU is sampled per
    # scheduler tick, and pooling averages that sampling error away.
    return ratio(sum(len(inv["fleet"]["seeds"]) for inv in invocations),
                 sum(inv["user_s"] for inv in invocations))


def soak_round_ns(invocations):
    return statistics.median(r for inv in invocations for r in inv["rounds"])


def soak_summary(invocations, probes=()):
    scale = host_scale(soak_round_ns(invocations))
    setups = [inv["setup_s"] for inv in invocations] + [probe["setup_s"] for probe in probes]
    return {
        "units_per_norm_s": soak_cpu_rate(invocations) * scale,
        "setup_s": statistics.median(setups) / scale,
        "peak_rss_mb": max(inv["rss_kb"] for inv in invocations) / 1024,
    }


def soak_wall(invocations):
    walls = [wall for inv in invocations for _, _, wall in inv["fleet"]["seeds"]]
    user_s = sum(inv["user_s"] for inv in invocations)
    sys_s = sum(inv["sys_s"] for inv in invocations)
    return {
        "wall.units_per_s": statistics.median(len(inv["fleet"]["seeds"]) / inv["range_s"]
                                              for inv in invocations),
        "wall.unit_p50_ms": statistics.median(walls) / 1e6,
        "wall.unit_p95_ms": tail_percentile(walls) / 1e6,
        "cpu.sys_share": ratio(sys_s, user_s + sys_s),
        "cpu.units_per_s": soak_cpu_rate(invocations),
        "host.ref_round_us": soak_round_ns(invocations) / 1e3,
    }


def soak_layers(invocations):
    spans = {}
    for inv in invocations:
        merge_spans(spans, inv["spans"])
    fleets = [inv["fleet"] for inv in invocations]
    seed_wall_ns = sum(wall for fleet in fleets for _, _, wall in fleet["seeds"])
    busy_ns = sum(fleet["jobs"] * (fleet["exit_ns"] - fleet["entry_ns"]) for fleet in fleets)
    root_ns = sum(entry["root_ns"] for entry in spans.values())
    metrics = span_layers(spans)
    metrics.update({
        "replay.sections_dirty_ratio": ratio(sum(f["sections_dirty"] for f in fleets),
                                             sum(f["sections_total"] for f in fleets)),
        "replay.snapshot_encodes": sum(f["encodes"] for f in fleets),
        "replay.rollup_checkpoints": sum(f["rollup_checkpoints"] for f in fleets),
        "fleet.idle_ms": (busy_ns - seed_wall_ns) / 1e6,
        "fleet.seed_wall_sum_ms": seed_wall_ns / 1e6,
        "fleet.redispatches": sum(f["redispatches"] for f in fleets),
        "fleet.worker_deaths": sum(f["worker_deaths"] for f in fleets),
        "soak.body.self_ms": (seed_wall_ns - root_ns) / 1e6,
        "soak.span_coverage": ratio(root_ns, seed_wall_ns),
    })
    return metrics


def reconcile(metrics):
    """Prints the traced checkpoint counts beside the program's own counts.
    Mismatches are reported, not adjusted."""
    spans_total = metrics["replay.checkpoint.calls"] + metrics["replay.xml_save.calls"]
    program = metrics["replay.snapshot_encodes"]
    log("reconcile: SnapshotStats.encodes %d vs checkpoint calls + XML saves %d (%s)"
        % (program, spans_total, "equal" if program == spans_total else "MISMATCH"))
    log("reconcile: rollup 'checkpoints' %d vs checkpoint calls %d (the rollup counts "
        "only the ladder and crash stores of each seed)"
        % (metrics["replay.rollup_checkpoints"], metrics["replay.checkpoint.calls"]))


def run_soak(isolation, seed, seconds, traced):
    run_dir = fresh_dir(os.path.join(BUILD_ROOT, "runs", "soak-%s-%d" % (isolation, os.getpid())))
    seed_base = 1_000_000 + seed * 100_000
    if traced:
        plain, plain_invs = soak_phase(False, isolation, seed_base, seconds / 2, run_dir)
        traced_summary, traced_invs = soak_phase(True, isolation, seed_base, seconds / 2,
                                                 os.path.join(run_dir, "traced"))
        invocations = plain_invs + traced_invs
        metrics = soak_layers(traced_invs)
        metrics.update(soak_wall(plain_invs))
        metrics["trace.overhead_ratio"] = ratio(traced_summary["units_per_norm_s"],
                                                plain["units_per_norm_s"])
        reconcile(metrics)
    else:
        _, invocations = soak_phase(False, isolation, seed_base, seconds, run_dir)
        # Set-up is process start to run_range entry; one-seed invocations
        # add samples to its median cheaply.
        probe_dir = os.path.join(run_dir, "setup")
        probes = [soak_invocation(False, isolation, seed_base + i, probe_dir, i, seeds=1)
                  for i in range(SETUP_PROBES)]
        metrics = soak_summary(invocations, probes)
        invocations += probes

    # The other isolation mode must produce the same rollup for the same seeds.
    other = "process" if isolation == "thread" else "thread"
    check = soak_invocation(False, other, seed_base, os.path.join(run_dir, "check"), 0)
    mine = invocations[0]["fleet"]["fingerprint"]
    theirs = check["fleet"]["fingerprint"]
    log("fingerprint: %s isolation %s, %s isolation %s (%s)"
        % (isolation, mine, other, theirs, "equal" if mine == theirs else "MISMATCH"))

    seeds = [s for inv in invocations + [check] for s in inv["fleet"]["seeds"]]
    failed = sum(1 for _, ok, _ in seeds if not ok)
    for seed_id, ok, _ in seeds:
        if not ok:
            log("seed %d failed" % seed_id)
    correct = failed == 0 and mine == theirs
    shutil.rmtree(run_dir, ignore_errors=True)
    return correct, len(seeds), failed + (0 if mine == theirs else 1), metrics


def run_program(name, seed, seconds, traced, run_dir):
    command = [os.path.join(BUILD, name), "--seed", str(seed), "--seconds", repr(seconds)]
    out_dir = fresh_dir(os.path.join(run_dir, "traced" if traced else "plain"))
    if traced:
        command += ["--traced", "--out", out_dir]
    _, stdout, _ = invoke(command, out_dir)
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s printed nothing" % name)
    result = json.loads(lines[-1])
    result["spans"] = read_spans(out_dir) if traced else {}
    return result


def program_summary(result, units):
    return {
        "units_per_norm_s": (ratio(units, result["loop_user_s"])
                             * host_scale(result["cal_round_ns"])),
        "setup_s": statistics.median(result["setup_s"]) / host_scale(result["setup_round_ns"]),
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def program_wall(result, units, unit_ns):
    return {
        "wall.units_per_s": ratio(units, sum(unit_ns)) * 1e9,
        "wall.unit_p50_ms": statistics.median(unit_ns) / 1e6,
        "wall.unit_p95_ms": tail_percentile(unit_ns) / 1e6,
        "cpu.sys_share": ratio(result["loop_sys_s"],
                               result["loop_user_s"] + result["loop_sys_s"]),
        "cpu.units_per_s": ratio(units, result["loop_user_s"]),
        "host.ref_round_us": result["cal_round_ns"] / 1e3,
    }


def verify_summary(result):
    return program_summary(result, result["states"])


def verify_wall(result):
    # One exploration is the unit of latency; states are the unit of work.
    return dict(program_wall(result, result["states"], result["explore_ns_each"]),
                **{"wall.units_per_s": ratio(result["states"], result["explore_ns"]) * 1e9})


def verify_layers(result):
    metrics = span_layers(result["spans"])
    metrics.update({
        "verify.states": result["states"],
        "verify.transitions": result["transitions"],
        "verify.revisit_ratio": ratio(result["revisits"], result["transitions"]),
        "statechart.interpreter_fallbacks": result["fallbacks"],
    })
    return metrics


def compile_summary(result):
    return program_summary(result, len(result["model_ns"]))


def compile_wall(result):
    return program_wall(result, len(result["model_ns"]), result["model_ns"])


def compile_layers(result):
    metrics = span_layers(result["spans"])
    metrics.update({
        "mda.psm_elements": result["psm_elements"],
        "codegen.loc": result["lines"],
    })
    return metrics


PROGRAMS = {
    "verify": ("verify_bench", verify_summary, verify_wall, verify_layers),
    "compile": ("compile_bench", compile_summary, compile_wall, compile_layers),
}


def run_library_workload(workload, seed, seconds, traced):
    name, summarize, wall, layers = PROGRAMS[workload]
    run_dir = fresh_dir(os.path.join(BUILD_ROOT, "runs", "%s-%d" % (workload, os.getpid())))
    if traced:
        plain = run_program(name, seed, seconds / 2, False, run_dir)
        traced_result = run_program(name, seed, seconds / 2, True, run_dir)
        results = [plain, traced_result]
        metrics = layers(traced_result)
        metrics.update(wall(plain))
        metrics["trace.overhead_ratio"] = ratio(summarize(traced_result)["units_per_norm_s"],
                                                summarize(plain)["units_per_norm_s"])
    else:
        results = [run_program(name, seed, seconds, False, run_dir)]
        metrics = summarize(results[0])
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    shutil.rmtree(run_dir, ignore_errors=True)
    return failed == 0, attempted, failed, metrics


def run_workload(workload, seed, seconds, traced):
    if workload == "soak":
        return run_soak("thread", seed, seconds, traced)
    if workload == "soak-process":
        return run_soak("process", seed, seconds, traced)
    return run_library_workload(workload, seed, seconds, traced)


def result_line(correct, attempted, failed, metrics, traced):
    """The final JSON object: exactly the declared metrics, each with its unit."""
    declared = PER_LAYER if traced else END_TO_END
    values = zero_layers() if traced else {}
    values.update(metrics)
    if set(values) != set(declared):
        raise BenchError("metric set differs from the declared one: %s"
                         % sorted(set(values) ^ set(declared)))
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": declared[name]}
                    for name in sorted(declared)},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    # A terminated run unwinds through invoke(), which stops the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        build()
        environment = {
            "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
            "build_type": BUILD_TYPE, "compiler": compiler(),
            "scratch_fs": filesystem_type(scratch_dir()), "loadavg_before": loadavg(),
        }
        correct, attempted, failed, metrics = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace))
        environment["loadavg_after"] = loadavg()
        log("environment: " + json.dumps(environment))
        line = result_line(correct, attempted, failed, metrics, bool(args.trace))
    except BenchError as error:
        print("perfbench: %s" % error, file=sys.stderr)
        return 1
    print(line, flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
