#!/usr/bin/env python3
"""DDoSim benchmark: three workloads on the paper's memory-error pipeline.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flood --seed 1 --seconds 40 --trace 0

Builds the runner (``perfbench/``, a Cargo package of its own) from source,
then runs the workload in a closed loop from this one process: one run at a
time, each in a fresh child process, the next starting only when the
previous one has ended. The inputs are a fixed set of worlds generated from
``--seed`` (the same seed gives the same worlds); after one warm-up run,
whole cycles through that set run until ``--seconds`` are used up, at least
one cycle. Every run's output is checked.

With ``--trace 0`` every run is untraced and the end-to-end metrics are
reported. With ``--trace 1`` untraced and traced runs alternate: the traced
runs record spans around each call into a layer plus per-layer probes, the
per-layer metrics are reported, the spans are written to
``perfbench/out/spans-<workload>-seed<seed>.json``, and the tracing overhead
is the traced minus the untraced median ``run_s``.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flood", "recruit", "tree")
# Any one run taking longer than this is killed and counted as failed, so
# an invocation always ends well within three minutes.
RUN_LIMIT_S = 150.0

# Stop starting cycles once this many seconds have gone, whatever --seconds
# says, so an invocation always ends well within three minutes.
TIME_CAP_S = 120.0

# End-to-end times are reported in seconds at the reference speed: a run's
# wall seconds times REFERENCE_S over the time the runner's reference
# kernel (src/reference.rs) took just before that run. REFERENCE_S is about
# the kernel's time on the baseline 2-core Xeon when it is least contended,
# so the figures read close to wall seconds there. On a shared host the
# same run's wall time swings by up to 2x over minutes with other tenants'
# memory traffic; the kernel slows with it, and scaling by it about halves
# the spread of an invocation's figures (see README.md).
REFERENCE_S = 0.15

# Each workload's world is the scenario plan workloads/<name>.scenario.json;
# only its seed (and, for `tree`, the branches' fork seeds) comes from
# --seed. `WORLDS` is how many distinct worlds one invocation cycles
# through: on a 2-core Xeon one cycle takes 4-7 s, so the warm-up and
# five to eight cycles fit in 40 s, and little of the 40 s is left over.
WORLDS = {"flood": 3, "recruit": 2, "tree": 2}
TREE_BRANCHES = 32


def make_spec(workload, seed, world, trace):
    """The run spec of world number `world` of `workload` for benchmark
    seed `seed`."""
    rng = random.Random(f"perfbench/{workload}/{seed}/{world}")
    with open(os.path.join(HERE, "workloads", f"{workload}.scenario.json"),
              encoding="utf-8") as f:
        plan = json.load(f)
    plan["world"]["seed"] = rng.randrange(1, 2**63)
    spec = {"workload": workload, "trace": bool(trace), "plan": json.dumps(plan)}
    if workload == "tree":
        spec["fork_seeds"] = rng.sample(range(1, 2**32), TREE_BRANCHES)
    return spec


def build_runner():
    """Builds the runner and returns its path, or None if the build failed."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, check=False)
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: building the runner failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(runner, spec, limit_s):
    """Runs one spec in a child process.

    Returns (report or None, the child's peak RSS in MB, wall seconds).
    """
    start = time.monotonic()
    child = subprocess.Popen([runner], stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    watchdog = threading.Timer(limit_s, child.kill)
    watchdog.start()
    try:
        child.stdin.write(json.dumps(spec).encode())
        child.stdin.close()
        out = child.stdout.read()
    finally:
        watchdog.cancel()
        child.stdout.close()
    # Reap the child here rather than through Popen: wait4 returns the
    # child's own peak RSS, not the largest of all children so far.
    _, status, usage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - start
    rss_mb = usage.ru_maxrss / 1024.0
    if child.returncode != 0:
        print(f"perfbench: run exited with {child.returncode}", file=sys.stderr)
        return None, rss_mb, wall
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), rss_mb, wall
    except (ValueError, IndexError) as e:
        print(f"perfbench: unreadable run report: {e}", file=sys.stderr)
        return None, rss_mb, wall


# ---------------------------------------------------------------- checks


def check_report(workload, report, reference_digest):
    """Checks one run's output.

    Returns (attempted, failed, reasons): a tree run attempts one result
    per branch, any other run one result. A result fails its own checks;
    a failed run-level check fails every result of the run.
    """
    attempted = report["counts"]["branches"] if workload == "tree" else 1
    reasons = []
    failed = attempted - len(report["results"])
    if failed:
        reasons.append(f"{failed} of {attempted} results missing")
    for r in report["results"]:
        bad = []
        if r["infected"] > r["devs"]:
            bad.append(f"infected {r['infected']} > devs {r['devs']}")
        if workload == "flood" and r["flood_packets_received"] == 0:
            bad.append("TServer received no flood packets")
        failed += bool(bad)
        reasons += bad
    run_level = []
    if report["digest"] != reference_digest:
        run_level.append(f"digest {report['digest']} != {reference_digest} of the same world")
    if workload == "tree":
        rows = report["branch_rows"]
        if len(rows) != attempted or not all(ok for _, _, ok in rows):
            run_level.append("a tree branch did not stream an Ok row")
        probe = report.get("probe_result")
        if probe and report["results"] and probe["digest"] != report["results"][0]["digest"]:
            run_level.append("branch 0 run outside the pool differs from the pool's branch 0")
    probes = report.get("probes", {})
    if probes.get("tinyvm.exploits_exec", 0) != probes.get("tinyvm.exploits", 0):
        run_level.append("a replayed exploit did not reach execlp")
    if run_level:
        failed = attempted
    return attempted, min(failed, attempted), reasons + run_level


def reference_digests(reports):
    """Per world, the digest most of its runs agree on (first on a tie)."""
    by_world = {}
    for r in reports:
        by_world.setdefault(r["world"], []).append(r["digest"])
    return {world: max(ds, key=lambda d: (ds.count(d), -ds.index(d)))
            for world, ds in by_world.items()}


# --------------------------------------------------------------- metrics


def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (percentile, value). Below twenty samples no percentile above
    the median has ten samples beyond it, and the median is returned.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50, statistics.median(xs)
    q = math.floor(100 * (n - 10) / n)
    return q, xs[min(n - 1, math.ceil(q / 100 * n) - 1)]


def branch_latencies(workload, report):
    """Per-branch wall seconds of one run.

    On `tree` the rows are taken in the order they arrived. A row's
    latency is the time since the row `pool_threads` arrivals before it,
    which is the same worker's previous row while the workers take turns;
    the first `pool_threads` rows count from the start of the stage. Any
    other run is one branch, from the end of setup to its result.
    """
    if workload == "tree":
        times = sorted(s for _, s, _ in report["branch_rows"])
        k = report["pool_threads"]
        return [t - (times[i - k] if i >= k else 0.0) for i, t in enumerate(times)]
    return [report["run_s"] - report["setup_s"][-1]]


def scale(report):
    """The factor that turns one run's wall seconds into seconds at the
    reference speed: `REFERENCE_S` over the reference kernel's time just
    before the run."""
    return REFERENCE_S / report["reference_s"]


def end_to_end(workload, runs):
    """End-to-end metrics over untraced runs: list of (report, rss_mb).

    Every time is in seconds at the reference speed (see `scale`), each
    run's figures scaled by its own reference time."""
    reports = [r for r, _ in runs]
    run_s = [r["run_s"] * scale(r) for r in reports]
    # On `tree` the events are the parent's only: the pool's branches
    # expose no simulator counters.
    events_per_s = [r["counts"]["events"] / s for r, s in zip(reports, run_s)]
    if workload == "tree":
        per_s = [r["counts"]["branches"] / (r["stage_s"] * scale(r)) for r in reports]
    else:
        per_s = [1.0 / ((r["run_s"] - r["setup_s"][-1]) * scale(r)) for r in reports]
    latencies = [s * scale(r) for r in reports for s in branch_latencies(workload, r)]
    _, tail_s = tail(latencies)
    return {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(s * scale(r) for r in reports for s in r["setup_s"]), "s"),
        "events_per_s": (statistics.median(events_per_s), "1/s"),
        "peak_rss_mb": (statistics.median(rss for _, rss in runs), "MB"),
        "branches_per_s": (statistics.median(per_s), "1/s"),
        "branch_s": (statistics.median(latencies), "s"),
        "branch_tail_s": (tail_s, "s"),
    }


LAYERS = ("bench", "scenario", "core", "tinyvm", "telemetry")


def self_times(spans):
    """Self seconds per layer: each span's duration minus the part its
    child spans cover, summed by the layer prefix of its name."""
    child_s = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + s["end_s"] - s["start_s"] - child_s.get(s["id"], 0.0)
    return out


def span_median(report, name):
    xs = [s["end_s"] - s["start_s"] for s in report["spans"] if s["name"] == name]
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_layer_one(workload, report):
    """Per-layer metrics of one traced run."""
    m = {}
    m["core.build_s"] = (span_median(report, "core.build"), "s")
    m["scenario.parse_s"] = (span_median(report, "scenario.parse"), "s")
    for phase in ("prefix", "attack", "finish"):
        p = report["phases"][phase]
        m[f"core.{phase}_s"] = (p["s"], "s")
        m[f"netsim.{phase}.events"] = (p["events"], "count")
        m[f"netsim.{phase}.ns_per_event"] = (ratio(p["s"] * 1e9, p["events"]), "ns")
    net = report["netsim"]
    for key in ("packets_sent", "packets_delivered", "dropped_queue_overflow",
                "peak_pending_events"):
        m[f"netsim.{key}"] = (net[key], "count")
    m["netsim.peak_buffered_bytes"] = (net["peak_buffered_bytes"], "bytes")
    m["netsim.delivery_ratio"] = (ratio(net["packets_delivered"], net["packets_sent"]), "ratio")
    result = report["probe_result"] if workload == "tree" else report["results"][0]
    m["malware.infected"] = (result["infected"], "count")
    m["malware.infection_ratio"] = (ratio(result["infected"], result["devs"]), "ratio")
    m["malware.registrations"] = (result["registrations"], "count")
    m["malware.flood_rx_ratio"] = (
        ratio(result["flood_packets_received"], net["packets_sent"]), "ratio")
    probes = report["probes"]
    m["tinyvm.exploit_s"] = (probes["tinyvm.exploit_s"], "s")
    m["tinyvm.exploits"] = (probes["tinyvm.exploits"], "count")
    m["core.fork_s"] = (probes["core.fork_s"], "s")
    m["core.digest_s"] = (probes["core.digest_s"], "s")
    m["telemetry.events_recorded"] = (report["counts"]["recorder_events"], "count")
    m["telemetry.trace_bytes"] = (probes.get("telemetry.trace_bytes", 0), "bytes")
    m["telemetry.recorder_json_s"] = (probes["telemetry.recorder_json_s"], "s")
    for layer, s in self_times(report["spans"]).items():
        m[f"{layer}.self_s"] = (s, "s")
    return m


def per_layer(workload, traced, untraced):
    """Per-layer metrics: the median over traced runs of each, plus the
    tracing overhead against the untraced runs."""
    ones = [per_layer_one(workload, r) for r in traced]
    out = {name: (statistics.median(m[name][0] for m in ones), unit)
           for name, (_, unit) in ones[0].items()}
    overhead = (statistics.median(r["run_s"] for r in traced)
                - statistics.median(r["run_s"] for r in untraced))
    out["trace.overhead_s"] = (overhead, "s")
    return out


# ------------------------------------------------------------ reporting


def load_baseline():
    path = os.path.join(HERE, "baseline.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def compare_counts(workload, seed, counts):
    """One line saying whether the work counts match the stored baseline."""
    stored = load_baseline().get("counts", {}).get(workload, {}).get(str(seed))
    if stored is None:
        return "no stored baseline counts for this seed"
    diff = [f"{k} {stored.get(k)} -> {v}" for k, v in counts.items() if stored.get(k) != v]
    if not diff:
        return "counts equal the stored baseline (simulated work unchanged)"
    return "counts differ from the stored baseline (simulated work changed): " + "; ".join(diff)


def write_spans(workload, seed, traced):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = [dict(s, run_id=i) for i, r in enumerate(traced) for s in r["spans"]]
    path = os.path.join(out_dir, f"spans-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"workload": workload, "seed": seed, "spans": spans}, f)
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def measure(workload, seconds, trace, run):
    """Runs the invocation's schedule.

    Returns (warm-up, runs, attempted, failed): the warm-up's (report, rss)
    pairs, the timed runs' pairs keyed by their traced flag, and the
    results attempted and failed by runs that produced no report.

    `run(world, traced, limit_s)` runs one spec and returns (report, rss)
    or None. World 0 runs once untraced as a warm-up: it is checked like
    any run but not timed, and it makes world 0 run at least twice. Then
    whole cycles through worlds 0..WORLDS-1 run (each world untraced, then
    traced when tracing) while the next cycle is expected to end within
    `seconds`, at least one. A faster program runs more cycles of the same
    worlds, never other worlds, so every figure is taken over the same
    inputs in the same proportions.
    """
    modes = [False, True] if trace else [False]
    per_run = TREE_BRANCHES if workload == "tree" else 1
    runs = {False: [], True: []}
    warmup = []
    attempted = failed = 0
    start = time.monotonic()

    def one(world, traced, into):
        nonlocal attempted, failed
        limit = max(1.0, min(RUN_LIMIT_S, 170.0 - (time.monotonic() - start)))
        got = run(world, traced, limit)
        if got is None:
            attempted += per_run
            failed += per_run
        else:
            got[0]["world"] = world
            into.append(got)

    one(0, False, warmup)
    cycles_start = time.monotonic()
    cycles = 0
    while True:
        for world in range(WORLDS[workload]):
            for traced in modes:
                one(world, traced, runs[traced])
        cycles += 1
        now = time.monotonic()
        next_end = now - start + (now - cycles_start) / cycles
        if next_end > min(seconds, TIME_CAP_S):
            return warmup, runs, attempted, failed


def main(argv=None):
    args = parse_args(argv)
    runner = build_runner()
    if runner is None:
        return 1

    def run(world, traced, limit_s):
        spec = make_spec(args.workload, args.seed, world, traced)
        report, rss, _ = run_once(runner, spec, limit_s)
        return None if report is None else (report, rss)

    warmup, runs, attempted, failed = measure(args.workload, args.seconds, args.trace, run)
    all_reports = [r for r, _ in warmup + runs[False] + runs[True]]
    if all_reports:
        refs = reference_digests(all_reports)
        for report in all_reports:
            a, f, reasons = check_report(args.workload, report, refs[report["world"]])
            attempted += a
            failed += f
            for reason in reasons:
                print(f"perfbench: check failed: {reason}", file=sys.stderr)
    if not runs[False] or (args.trace and not runs[True]):
        print(f"perfbench: no completed runs ({failed} of {attempted} failed)", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": max(failed, 1), "metrics": {}}))
        return 1

    untraced = [r for r, _ in runs[False]]
    if args.trace:
        metrics = per_layer(args.workload, [r for r, _ in runs[True]], untraced)
        print(f"spans written to {write_spans(args.workload, args.seed, [r for r, _ in runs[True]])}")
    else:
        metrics = end_to_end(args.workload, runs[False])
    mode = "traced + untraced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} runs={len(all_reports)} "
          f"({mode}, worlds 0-{WORLDS[args.workload] - 1}, one warm-up run)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value!r} {unit}")
    print("  median wall run_s {!r} s, median reference kernel {!r} s".format(
        statistics.median(r["run_s"] for r in untraced),
        statistics.median(r["reference_s"] for r in untraced)))
    counts = next((r for r in all_reports if r["world"] == 0), untraced[0])["counts"]
    print("  work counts of world 0 (exact): " + " ".join(f"{k}={v}" for k, v in counts.items()))
    print("  " + compare_counts(args.workload, args.seed, counts))
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted!r}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
