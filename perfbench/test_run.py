"""Tests of the benchmark driver: metric names, seeded inputs, output checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import re
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def span(i, name, start, end, parent=None):
    return {"id": i, "parent": parent, "name": name, "start_s": start, "end_s": end}


def fake_report(workload, trace=False):
    """A well-formed runner report, as `perfbench` prints it."""
    result = {"digest": "00aa", "devs": 10, "infected": 9, "registrations": 9,
              "flood_packets_received": 100}
    tree = workload == "tree"
    phases = {"prefix": {"s": 0.5, "events": 500}}
    if trace or not tree:
        phases["attack"] = {"s": 1.0, "events": 2000}
        phases["finish"] = {"s": 0.1, "events": 100}
    report = {
        "workload": workload,
        "setup_s": [0.02, 0.01, 0.03],
        "run_s": 2.0,
        "stage_s": 1.4 if tree else None,
        "pool_threads": 2 if tree else None,
        "phases": phases,
        "counts": {"events": 2600, "packets_sent": 1000, "packets_delivered": 800,
                   "packets_dropped": 200, "infected": 9, "registrations": 9,
                   "recorder_events": 0, "branches": 4 if tree else 0},
        "netsim": {"events": 2600, "packets_sent": 1000, "packets_delivered": 800,
                   "dropped_queue_overflow": 150, "packets_dropped": 200,
                   "peak_pending_events": 40, "peak_buffered_bytes": 4096},
        "results": [dict(result) for _ in range(4 if tree else 1)],
        "probe_result": dict(result) if tree and trace else None,
        "branch_rows": [[i, 0.3 * (i + 1), True] for i in range(4)] if tree else [],
        "digest": "00ff",
        "probes": {},
        "trace": trace,
        "reference_s": run.REFERENCE_S,
        "spans": [],
    }
    if trace:
        report["probes"] = {"core.fork_s": 0.01, "core.digest_s": 0.002,
                            "telemetry.recorder_json_s": 1e-7,
                            "tinyvm.exploit_s": 0.001, "tinyvm.exploits": 9,
                            "tinyvm.exploits_exec": 9}
        report["spans"] = [span(0, "bench.setup", 0.0, 0.03),
                           span(1, "core.build", 0.0, 0.02, parent=0),
                           span(2, "core.prefix", 0.03, 0.53)]
    return report


def benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_well_formed(self):
        bench = benchmark_json()
        names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
        names += [w["name"] for w in bench["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
            self.assertLessEqual(len(name), 64)
        self.assertEqual(len(names), len(set(names)), "names are used once")
        self.assertEqual([w["name"] for w in bench["workloads"]], list(run.WORKLOADS))

    def test_every_workload_reports_exactly_the_declared_metrics(self):
        bench = benchmark_json()
        end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for workload in run.WORKLOADS:
            runs = [(fake_report(workload), 12.5), (fake_report(workload), 13.0)]
            got = run.end_to_end(workload, runs)
            self.assertEqual({k: u for k, (_, u) in got.items()}, end_to_end, workload)
            for value, _ in got.values():
                self.assertGreater(value, 0, workload)
            traced = [fake_report(workload, trace=True)]
            got = run.per_layer(workload, traced, [fake_report(workload)])
            self.assertEqual({k: u for k, (_, u) in got.items()}, per_layer, workload)
            for name in got:
                self.assertRegex(name, NAME)


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in run.WORKLOADS:
            for world in (0, 3):
                self.assertEqual(run.make_spec(workload, 7, world, False),
                                 run.make_spec(workload, 7, world, False))

    def test_seed_and_world_change_the_inputs(self):
        for workload in run.WORKLOADS:
            a = run.make_spec(workload, 7, 0, False)
            self.assertNotEqual(a, run.make_spec(workload, 8, 0, False), workload)
            self.assertNotEqual(a, run.make_spec(workload, 7, 1, False), workload)

    def test_tracing_changes_nothing_but_the_trace_flag(self):
        for workload in run.WORKLOADS:
            plain, traced = run.make_spec(workload, 3, 0, False), run.make_spec(workload, 3, 0, True)
            self.assertEqual(dict(traced, trace=False), plain)

    def test_tree_branches_have_distinct_fork_seeds(self):
        seeds = run.make_spec("tree", 1, 0, False)["fork_seeds"]
        self.assertEqual(len(seeds), run.TREE_BRANCHES)
        self.assertEqual(len(set(seeds)), len(seeds))
        self.assertNotIn(0, seeds, "seed 0 would replay the parent's future")


class Schedule(unittest.TestCase):
    def schedule(self, workload, trace, run_s):
        """The worlds an invocation of 30 s times when each run takes
        `run_s` seconds of a fake clock."""
        clock = [0.0]
        worlds = []

        def fake_run(world, traced, limit_s):
            clock[0] += run_s
            worlds.append((world, traced))
            return fake_report(workload, trace=traced), 10.0

        real = run.time.monotonic
        run.time.monotonic = lambda: clock[0]
        try:
            warmup, runs, attempted, failed = run.measure(workload, 30, trace, fake_run)
        finally:
            run.time.monotonic = real
        self.assertEqual((attempted, failed), (0, 0))
        self.assertEqual([r["world"] for r, _ in warmup], [0])
        self.assertEqual(worlds[0], (0, False), "the warm-up runs world 0 untraced")
        return worlds[1:], clock[0]

    def test_speed_changes_how_often_not_which_worlds(self):
        for workload in run.WORLDS:
            for trace in (False, True):
                per_world = {}
                for run_s in (0.3, 0.7, 1.1, 2.0, 9.0):
                    timed, _ = self.schedule(workload, trace, run_s)
                    cycle = [(w, t) for w in range(run.WORLDS[workload])
                             for t in ([False, True] if trace else [False])]
                    self.assertEqual(len(timed) % len(cycle), 0, "whole cycles only")
                    self.assertEqual(timed, cycle * (len(timed) // len(cycle)))
                    per_world[run_s] = len(timed) // len(cycle)
                self.assertGreater(per_world[0.3], per_world[9.0], workload)
                self.assertEqual(per_world[9.0], 1, "at least one cycle")

    def test_cycles_stop_within_the_seconds(self):
        for workload in run.WORLDS:
            for run_s in (0.3, 0.7, 1.1, 2.0):
                _, used = self.schedule(workload, False, run_s)
                self.assertLessEqual(used, 30 + 1e-9, (workload, run_s))


class OutputChecks(unittest.TestCase):
    def check(self, workload, report, reference="00ff"):
        return run.check_report(workload, report, reference)

    def test_a_good_report_passes(self):
        for workload in run.WORKLOADS:
            attempted, failed, reasons = self.check(workload, fake_report(workload, trace=True))
            self.assertEqual(failed, 0, reasons)
            self.assertEqual(attempted, 4 if workload == "tree" else 1)

    def test_a_tampered_digest_fails_the_whole_run(self):
        report = fake_report("tree")
        report["digest"] = "1234"
        self.assertEqual(self.check("tree", report)[:2], (4, 4))
        reports = [fake_report("flood"), fake_report("flood"), report, fake_report("recruit")]
        for world, r in zip((0, 0, 0, 1), reports):
            r["world"] = world
        reports[3]["digest"] = "0011"
        self.assertEqual(run.reference_digests(reports), {0: "00ff", 1: "0011"})

    def test_tampered_results_are_counted_as_failed(self):
        tampered = []
        r = fake_report("flood")
        r["results"][0]["infected"] = 11
        tampered.append(("flood", r, 1))
        r = fake_report("flood")
        r["results"][0]["flood_packets_received"] = 0
        tampered.append(("flood", r, 1))
        r = fake_report("tree")
        r["results"][2]["infected"] = 99
        tampered.append(("tree", r, 1))
        r = fake_report("tree")
        del r["results"][1]
        tampered.append(("tree", r, 1))
        r = fake_report("tree")
        r["branch_rows"][0][2] = False
        tampered.append(("tree", r, 4))
        r = fake_report("tree", trace=True)
        r["probe_result"]["digest"] = "beef"
        tampered.append(("tree", r, 4))
        r = fake_report("recruit", trace=True)
        r["probes"]["tinyvm.exploits_exec"] = 8
        tampered.append(("recruit", r, 1))
        for workload, report, want in tampered:
            _, failed, reasons = self.check(workload, copy.deepcopy(report))
            self.assertEqual(failed, want, (workload, reasons))
            self.assertTrue(reasons)


class Statistics(unittest.TestCase):
    def test_times_are_scaled_by_each_runs_reference_kernel(self):
        for workload in run.WORKLOADS:
            base = run.end_to_end(workload, [(fake_report(workload), 12.5)])
            slow = fake_report(workload)
            slow["reference_s"] = 2 * run.REFERENCE_S
            got = run.end_to_end(workload, [(slow, 12.5)])
            for name in ("run_s", "setup_s", "branch_s", "branch_tail_s"):
                self.assertAlmostEqual(got[name][0], base[name][0] / 2, msg=(workload, name))
            for name in ("events_per_s", "branches_per_s"):
                self.assertAlmostEqual(got[name][0], base[name][0] * 2, msg=(workload, name))
            self.assertEqual(got["peak_rss_mb"], base["peak_rss_mb"], workload)

    def test_tree_latency_is_measured_from_the_same_workers_previous_row(self):
        report = fake_report("tree")
        report["branch_rows"] = [[0, 0.5, True], [2, 1.4, True], [1, 0.6, True],
                                 [3, 1.5, True]]
        got = run.branch_latencies("tree", report)
        self.assertEqual([round(x, 9) for x in got], [0.5, 0.6, 0.9, 0.9])

    def test_tail_keeps_ten_samples_beyond_it(self):
        xs = list(range(1, 33))
        q, value = run.tail(xs)
        self.assertGreaterEqual(sum(x > value for x in xs), 10)
        self.assertLess(sum(x > value for x in xs), 11 + 1)
        self.assertEqual(q, 68)
        self.assertEqual(run.tail([3, 1, 2, 9]), (50, 2.5), "too few samples for a tail")

    def test_self_time_subtracts_children(self):
        spans = [span(0, "bench.setup", 0.0, 1.0), span(1, "core.build", 0.2, 0.9, parent=0),
                 span(2, "tinyvm.exploit", 1.0, 1.5)]
        got = run.self_times(spans)
        self.assertAlmostEqual(got["bench"], 0.3)
        self.assertAlmostEqual(got["core"], 0.7)
        self.assertAlmostEqual(got["tinyvm"], 0.5)
        self.assertEqual(got["scenario"], 0.0)


if __name__ == "__main__":
    unittest.main()
