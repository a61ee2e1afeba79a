#!/usr/bin/env python3
"""Tests for bench/check_regression.py, bench/compare_points.py,
tools/check_e2e_counts.py, tools/validate_metrics.py and the gates of
tools/soak.py.

The gate scripts decide whether CI legs pass, so their failure
modes (malformed JSON, missing baselines, silently dropped points) are
exercised here rather than discovered live on a red main.

Plain unittest so the suite runs without pytest installed:

    python3 -m unittest tools.test_bench_scripts -v

(pytest collects unittest.TestCase transparently, so the CI leg that
has pytest runs the same file.)
"""

import contextlib
import io
import json
import os
import stat
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "bench"))
sys.path.insert(0, os.path.join(REPO, "tools"))

import check_e2e_counts  # noqa: E402
import check_regression  # noqa: E402
import compare_points  # noqa: E402
import soak  # noqa: E402
import validate_metrics  # noqa: E402


def bench_doc(rps=100.0, points=None, bench="demo"):
    return {"schema": "pbl-bench-v1", "bench": bench,
            "perf": {"reps_per_sec": rps},
            "points": points if points is not None else []}


class ScriptCase(unittest.TestCase):
    """Shared plumbing: write temp JSON docs, run a script's main()."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.addCleanup(self.dir.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.dir.name, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def run_main(self, module, argv):
        out = io.StringIO()
        old = sys.argv
        sys.argv = [module.__name__] + argv
        try:
            with contextlib.redirect_stdout(out):
                try:
                    code = module.main()
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
        finally:
            sys.argv = old
        return code, out.getvalue()


class CheckRegressionTest(ScriptCase):
    def test_identical_docs_pass(self):
        a = self.write("a.json", bench_doc(rps=100.0))
        code, out = self.run_main(check_regression,
                                  ["--baseline", a, "--candidate", a])
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_throughput_drop_fails(self):
        base = self.write("base.json", bench_doc(rps=100.0))
        cand = self.write("cand.json", bench_doc(rps=50.0))
        code, out = self.run_main(check_regression,
                                  ["--baseline", base, "--candidate", cand])
        self.assertEqual(code, 1)
        self.assertIn("REGRESSION", out)

    def test_drop_within_ratio_passes(self):
        base = self.write("base.json", bench_doc(rps=100.0))
        cand = self.write("cand.json", bench_doc(rps=50.0))
        code, _ = self.run_main(
            check_regression,
            ["--baseline", base, "--candidate", cand, "--min-ratio", "0.4"])
        self.assertEqual(code, 0)

    def test_missing_baseline_is_actionable(self):
        cand = self.write("cand.json", bench_doc())
        missing = os.path.join(self.dir.name, "nope.json")
        code, out = self.run_main(
            check_regression, ["--baseline", missing, "--candidate", cand])
        self.assertNotEqual(code, 0)

    def test_malformed_json_rejected(self):
        base = self.write("base.json", "{not json")
        cand = self.write("cand.json", bench_doc())
        code, _ = self.run_main(check_regression,
                                ["--baseline", base, "--candidate", cand])
        self.assertNotEqual(code, 0)

    def test_dropped_source_points_fail(self):
        # A bench that stops emitting its simulated points must fail even
        # with throughput unchanged — that is the whole point of the
        # per-source count metrics.
        pts = [{"p": 0.01, "source": "analysis"},
               {"p": 0.01, "source": "sim"}]
        base = self.write("base.json", bench_doc(points=pts))
        cand = self.write("cand.json", bench_doc(points=pts[:1]))
        code, out = self.run_main(check_regression,
                                  ["--baseline", base, "--candidate", cand])
        self.assertEqual(code, 1)
        self.assertIn("points[source=sim]", out)

    def test_google_benchmark_format(self):
        gb = {"benchmarks": [
            {"name": "BM_encode", "bytes_per_second": 1e9, "real_time": 5.0}]}
        slow = {"benchmarks": [
            {"name": "BM_encode", "bytes_per_second": 1e8, "real_time": 50.0}]}
        base = self.write("base.json", gb)
        cand = self.write("cand.json", slow)
        code, out = self.run_main(check_regression,
                                  ["--baseline", base, "--candidate", cand])
        self.assertEqual(code, 1)
        self.assertIn("BM_encode", out)

    def test_unrecognised_schema_rejected(self):
        base = self.write("base.json", {"something": "else"})
        cand = self.write("cand.json", bench_doc())
        code, _ = self.run_main(check_regression,
                                ["--baseline", base, "--candidate", cand])
        self.assertNotEqual(code, 0)


class ComparePointsTest(ScriptCase):
    def test_identical_points_pass(self):
        pts = [{"p": 0.01, "mean": 1.5, "wall_seconds": 0.3}]
        a = self.write("a.json", bench_doc(points=pts))
        b = self.write("b.json",
                       bench_doc(points=[dict(pts[0], wall_seconds=9.9)]))
        code, out = self.run_main(compare_points, [a, b])
        self.assertEqual(code, 0)  # wall_seconds is volatile by default
        self.assertIn("OK", out)

    def test_statistic_drift_fails(self):
        a = self.write("a.json", bench_doc(points=[{"p": 0.01, "mean": 1.5}]))
        b = self.write("b.json", bench_doc(points=[{"p": 0.01, "mean": 1.6}]))
        code, out = self.run_main(compare_points, [a, b])
        self.assertEqual(code, 1)
        self.assertIn("mean", out)

    def test_dropped_point_fails(self):
        pts = [{"p": 0.01}, {"p": 0.05}]
        a = self.write("a.json", bench_doc(points=pts))
        b = self.write("b.json", bench_doc(points=pts[:1]))
        code, _ = self.run_main(compare_points, [a, b])
        self.assertNotEqual(code, 0)

    def test_bench_name_mismatch_fails(self):
        a = self.write("a.json", bench_doc(bench="x"))
        b = self.write("b.json", bench_doc(bench="y"))
        code, _ = self.run_main(compare_points, [a, b])
        self.assertNotEqual(code, 0)

    def test_malformed_json_rejected(self):
        a = self.write("a.json", "]]]")
        b = self.write("b.json", bench_doc())
        code, _ = self.run_main(compare_points, [a, b])
        self.assertNotEqual(code, 0)

    def test_custom_ignore_list(self):
        a = self.write("a.json", bench_doc(points=[{"p": 1, "noise": 1}]))
        b = self.write("b.json", bench_doc(points=[{"p": 1, "noise": 2}]))
        code, _ = self.run_main(compare_points, [a, b, "--ignore", "noise"])
        self.assertEqual(code, 0)


def e2e_result(tx=1.05, correct=True, failed=0):
    return {"correct": correct, "attempted": 20, "failed": failed,
            "metrics": {"tx_per_packet": {"value": tx, "unit": "ratio"}}}


class CheckE2eCountsTest(ScriptCase):
    SPEC = {"run_seconds": 10,
            "workloads": [{"name": "bulk"}, {"name": "many"}],
            "end_to_end": [{"name": "goodput_MBps", "bound": 0.2},
                           {"name": "tx_per_packet", "bound": 0.01}]}

    def check(self, result, base_tx=1.05):
        return check_e2e_counts.check("bulk", result, e2e_result(base_tx),
                                      0.01)

    def test_identical_counts_pass(self):
        self.assertEqual(self.check(e2e_result()), [])

    def test_drift_within_bound_passes(self):
        self.assertEqual(self.check(e2e_result(tx=1.05 * 1.009)), [])

    def test_drift_past_bound_fails_either_way(self):
        self.assertEqual(len(self.check(e2e_result(tx=1.05 * 1.02))), 1)
        self.assertEqual(len(self.check(e2e_result(tx=1.05 * 0.98))), 1)

    def test_incorrect_run_fails(self):
        self.assertEqual(len(self.check(e2e_result(correct=False))), 1)

    def test_failed_session_fails(self):
        self.assertEqual(len(self.check(e2e_result(failed=1))), 1)

    def test_missing_metric_fails(self):
        result = e2e_result()
        del result["metrics"]["tx_per_packet"]
        self.assertEqual(len(self.check(result)), 1)

    def fake_binary(self, tx_by_workload):
        """An executable standing in for ext_e2e: prints a log line, then
        one result per --workload, its tx_per_packet from the table.  It
        fails unless it is asked for seed 1 and the spec's run_seconds."""
        path = os.path.join(self.dir.name, "fake_e2e")
        with open(path, "w", encoding="utf-8") as f:
            f.write("#!%s\nimport json, sys\n" % sys.executable)
            f.write("assert '--seed=1' in sys.argv, sys.argv\n")
            f.write("assert '--seconds=10' in sys.argv, sys.argv\n")
            f.write("w = [a.split('=', 1)[1] for a in sys.argv\n"
                    "     if a.startswith('--workload=')][0]\n")
            f.write("print('log line')\n")
            f.write("print(json.dumps(%r[w]))\n" % {
                w: e2e_result(tx) for w, tx in tx_by_workload.items()})
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def run_gate(self, tx_by_workload):
        base = os.path.join(self.dir.name, "set1")
        os.makedirs(base, exist_ok=True)
        for w in ("bulk", "many"):
            self.write(os.path.join("set1", "%s-1-0.json" % w), e2e_result())
        spec = self.write("BENCHMARK.json", self.SPEC)
        before = sorted(os.listdir(base))
        code, out = self.run_main(check_e2e_counts, [
            "--binary", self.fake_binary(tx_by_workload),
            "--benchmark", spec, "--baselines", base])
        self.assertEqual(sorted(os.listdir(base)), before)  # read only
        return code, out

    def test_main_passes_on_matching_counts(self):
        code, out = self.run_gate({"bulk": 1.05, "many": 1.05})
        self.assertEqual(code, 0, out)
        self.assertIn("many", out)

    def test_main_fails_on_one_drifted_workload(self):
        code, out = self.run_gate({"bulk": 1.05, "many": 1.2})
        self.assertEqual(code, 1, out)


METRICS_SCHEMA = {
    "schema": "pbl-metrics-v1", "version": 1, "kind": "schema",
    "server": [
        {"name": "server_state", "kind": "string", "help": "",
         "allowed": ["running", "stopped"]},
        {"name": "sessions_completed", "kind": "counter", "help": ""},
        {"name": "uptime_seconds", "kind": "gauge", "help": ""},
        {"name": "session_tx_per_packet", "kind": "histogram", "help": "",
         "buckets": [1.0, 2.0]}],
    "session": [
        {"name": "label", "kind": "string", "help": ""},
        {"name": "data_sent", "kind": "counter", "help": ""}]}


def metrics_snapshot():
    """A snapshot that is valid under METRICS_SCHEMA."""
    return {"schema": "pbl-metrics-v1", "version": 1, "kind": "snapshot",
            "time": 1.5,
            "server": {"server_state": "stopped",
                       "sessions_completed": 2,
                       "uptime_seconds": 1.5,
                       "session_tx_per_packet": {
                           "buckets": [1.0, 2.0], "counts": [0, 2, 0],
                           "count": 2, "sum": 2.5}},
            "sessions": {"0": {"label": "any text", "data_sent": 8},
                         "1": {"label": "", "data_sent": 8}}}


class ValidateMetricsTest(ScriptCase):
    """The closed-world snapshot checker behind soak_smoke and the CI
    --require gates: one valid snapshot passes, each kind of violation
    fails on its own."""

    def snapshot(self):
        return metrics_snapshot()

    def validate(self, snap=None, require=()):
        argv = ["--schema", self.write("schema.json", METRICS_SCHEMA)]
        for name in require:
            argv += ["--require", name]
        if snap is not None:
            argv.append(self.write("snapshot_00000.json", snap))
        return self.run_main(validate_metrics, argv)

    def assert_invalid(self, snap, needle):
        code, out = self.validate(snap)
        self.assertEqual(code, 1, out)
        self.assertIn(needle, out)

    def test_valid_snapshot_passes(self):
        code, out = self.validate(self.snapshot())
        self.assertEqual(code, 0, out)
        self.assertIn("OK: 1 snapshot(s)", out)

    def test_missing_metric_fails(self):
        snap = self.snapshot()
        del snap["sessions"]["1"]["data_sent"]
        self.assert_invalid(snap, "missing metric 'data_sent'")

    def test_extra_metric_fails(self):
        snap = self.snapshot()
        snap["server"]["sessions_invented"] = 1
        self.assert_invalid(snap, "'sessions_invented' not in schema")

    def test_negative_counter_fails(self):
        snap = self.snapshot()
        snap["server"]["sessions_completed"] = -1
        self.assert_invalid(snap, "counter must be a non-negative integer")

    def test_string_outside_allowed_set_fails(self):
        snap = self.snapshot()
        snap["server"]["server_state"] = "exploded"
        self.assert_invalid(snap, "'exploded' not in allowed set")

    def test_histogram_counts_must_sum_to_count(self):
        snap = self.snapshot()
        snap["server"]["session_tx_per_packet"]["count"] = 3
        self.assert_invalid(snap, "sum(counts) 2 != count 3")

    def test_require_declared_names_pass(self):
        code, out = self.validate(require=["server.sessions_completed",
                                           "session.data_sent,label"])
        self.assertEqual(code, 0, out)
        self.assertIn("3 required metric(s)", out)

    def test_require_undeclared_name_fails(self):
        for name in ("total_bogus", "session.sessions_completed"):
            with self.subTest(name=name):
                code, out = self.validate(require=[name])
                self.assertEqual(code, 1, out)
                self.assertIn("%r not declared" % name, out)


# A session schema with the two strings soak.py's drain_timeout gate reads.
SOAK_SCHEMA = dict(METRICS_SCHEMA, session=METRICS_SCHEMA["session"] + [
    {"name": "state", "kind": "string", "help": ""},
    {"name": "end_reason", "kind": "string", "help": ""}])


class SoakGateTest(ScriptCase):
    """soak.py's restart and end-marker gates, against a stand-in for
    multicast_server that writes one valid snapshot and prints the
    summary line."""

    SESSIONS = 4

    def fake_server(self, drained, resumed, last_session):
        """Run 1 completes all but `drained` sessions; the --resume run
        reports `resumed` and completes the drained ones.  Run 1 fails
        unless it was given --drain-grace=0.  It ignores the SIGTERM,
        which may land before or after it printed.  Both runs' snapshot
        holds a session that ended cleanly and `last_session`, a
        (state, end_reason) pair."""
        summary = ("multicast_server: backend=epoll submitted=%d "
                   "resumed=%d refused=0 completed=%d failed=0 drained=%d "
                   "redelivered_prior=0 payload_mismatches=0 would_block=1 "
                   "suppressed=0 quarantined=0 faults=0 peer_rejected=0 "
                   "peer_banned=0")
        snap = metrics_snapshot()
        snap["sessions"]["0"].update(state="completed",
                                     end_reason="end_of_session")
        snap["sessions"]["1"].update(state=last_session[0],
                                     end_reason=last_session[1])
        run1 = summary % (self.SESSIONS, 0, self.SESSIONS - drained, drained)
        run2 = summary % (0, resumed, drained, 0)
        path = os.path.join(self.dir.name, "fake_server")
        with open(path, "w", encoding="utf-8") as f:
            f.write("#!%s\nimport json, os, signal, sys\n" % sys.executable)
            f.write("signal.signal(signal.SIGTERM, signal.SIG_IGN)\n")
            f.write("resume = '--resume' in sys.argv\n")
            f.write("assert resume or '--drain-grace=0' in sys.argv, "
                    "sys.argv\n")
            f.write("d = [a.split('=', 1)[1] for a in sys.argv\n"
                    "     if a.startswith('--snapshot-dir=')][0]\n")
            f.write("with open(os.path.join(d, 's.json'), 'w') as f:\n"
                    "    json.dump(%r, f)\n" % snap)
            f.write("print(%r if resume else %r)\n" % (run2, run1))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def soak(self, drained, resumed, extra=(),
             last_session=("completed", "end_of_session")):
        return self.run_main(soak, [
            "--binary", self.fake_server(drained, resumed, last_session),
            "--schema", self.write("schema.json", SOAK_SCHEMA),
            "--workdir", os.path.join(self.dir.name, "work"),
            "--sessions", str(self.SESSIONS), "--kill-after", "0.5",
            *extra])

    def test_resumed_drained_sessions_pass(self):
        code, out = self.soak(drained=2, resumed=2)
        self.assertEqual(code, 0, out)

    def test_kill_that_drained_nothing_fails(self):
        code, out = self.soak(drained=0, resumed=0)
        self.assertEqual(code, 1, out)
        self.assertIn("run 1 drained no session", out)

    def test_resumed_must_equal_drained(self):
        code, out = self.soak(drained=2, resumed=1)
        self.assertEqual(code, 1, out)
        self.assertIn("run 2 resumed 1 session(s), run 1 drained 2", out)

    CLEAN_OVERLOAD = ("--scenario", "overload", "--control-loss", "0",
                      "--wire-drop", "0")

    def test_clean_control_overload_exempts_drained_sessions(self):
        code, out = self.soak(drained=2, resumed=2,
                              extra=self.CLEAN_OVERLOAD,
                              last_session=("drained", "drain_timeout"))
        self.assertEqual(code, 0, out)

    def test_clean_control_overload_fails_on_a_drain_timeout(self):
        code, out = self.soak(drained=2, resumed=2,
                              extra=self.CLEAN_OVERLOAD,
                              last_session=("completed", "drain_timeout"))
        self.assertEqual(code, 1, out)
        self.assertIn("run 1: 1 session(s) ended by drain_timeout", out)
        self.assertIn("run 2: 1 session(s) ended by drain_timeout", out)

    def test_drain_timeout_gate_needs_clean_control(self):
        code, out = self.soak(drained=2, resumed=2,
                              extra=("--scenario", "overload"),
                              last_session=("completed", "drain_timeout"))
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    unittest.main()
