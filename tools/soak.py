#!/usr/bin/env python3
"""Soak/chaos harness for examples/multicast_server.

Drives the full crash-tolerance story end to end:

1. **Run 1** starts the server on N concurrent impaired sessions with
   write-ahead journaling and interval snapshots, then (with
   ``--kill-after T``) delivers SIGTERM mid-run.  Run 1 gets
   ``--drain-grace=0``, so the drain stops every in-flight session at
   once: each is checkpointed to its journal + receiver state files and
   reported as ``drained``.
2. **Run 2** restarts with ``--resume`` and the same flags: every
   journaled session must come back and finish.

The harness then gates on the invariants the server promises:

* every snapshot from both runs validates against metrics-schema.json
  (closed-world key sets, kinds, histogram consistency);
* with a kill, run 1 drained at least one session and run 2 resumed
  exactly the sessions run 1 drained — a kill that lands after the last
  session finished checks nothing;
* ``run1.completed + run2.completed == sessions`` — every session
  completes exactly once across the two lives;
* ``redelivered_prior == 0`` in both runs — no journal-confirmed TG was
  ever re-multicast;
* ``payload_mismatches == 0`` in both runs — every decoded TG matched
  the sender's bytes end to end;
* no journal files survive run 2 (all sessions resolved);
* ``--scenario overload`` with ``--control-loss 0 --wire-drop 0``: no
  session that ended in its run (completed or failed, not drained)
  reads ``end_reason`` ``drain_timeout`` in that run's final snapshot —
  pushback defers the end marker, it never loses it.

With ``--kill-after 0`` the kill phase is skipped and a single run must
complete everything (plain soak, no chaos).

Usage (from the repo root, after building):
    python3 tools/soak.py --binary build/examples/multicast_server \
        --schema metrics-schema.json --sessions 200 --kill-after 0.8
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import validate_metrics  # noqa: E402

SUMMARY_RE = re.compile(
    r"multicast_server: backend=(?P<backend>\w+) submitted=(?P<submitted>\d+) "
    r"resumed=(?P<resumed>\d+) refused=(?P<refused>\d+) "
    r"completed=(?P<completed>\d+) failed=(?P<failed>\d+) "
    r"drained=(?P<drained>\d+) redelivered_prior=(?P<redelivered>\d+) "
    r"payload_mismatches=(?P<mismatches>\d+) "
    r"would_block=(?P<would_block>\d+) "
    r"suppressed=(?P<suppressed>\d+) quarantined=(?P<quarantined>\d+) "
    r"faults=(?P<faults>\d+) peer_rejected=(?P<peer_rejected>\d+) "
    r"peer_banned=(?P<peer_banned>\d+)")

# multicast_server's flags default to the library's settings.  The soak
# and its CI entries were tuned on these, so it passes them explicitly:
# reliable control, since the soak loses control frames; grace_rounds 8,
# which at the 0.05 s poll window gives a complete receiver a drain_wait
# of 7.1 s for a lost end marker; and the rest as they were tuned.
SETTINGS_FLAGS = [
    "--h=24",
    "--packet-len=256",
    "--reliable=true",
    "--grace-rounds=8",
    "--max-retries=10",
    "--idle-timeout=30",
]

# The overload scenario rides the same exactly-once/byte-identity gates
# as the plain soak, but with every delivery squeezed through bounded
# resources: a one-frame packet arena, paced bursts, injected EAGAIN
# storms and journal write failures, and runtime NAK suppression.  The
# sender never drops a frame under pushback, so completions still must
# equal submissions — overload slows delivery, it never corrupts it.
# With --control-loss 0 and --wire-drop 0 nothing else can lose an end
# marker either, so no session that ended in its run may have ended by
# drain_timeout.
OVERLOAD_FLAGS = [
    "--arena-frames=1",
    "--pace-rate=30000",
    "--pace-burst=8",
    "--fault-send-every=25",
    "--fault-send-burst=3",
    "--fault-journal-every=5",
    "--nak-suppression=true",
    "--feedback-budget=2",
]

# The hostile scenario admits one Byzantine member per session (a NAK
# storm at 5x the policing rate) with the full guard on: authenticated
# feedback, per-peer token buckets, greylist->ban escalation.  The gates
# require that every HONEST receiver still completes exactly-once AND
# that the defenses demonstrably engaged (peers rejected and banned) —
# a run where the adversary was never heard proves nothing.
HOSTILE_FLAGS = [
    "--guard=true",
    "--guard-auth=true",
    "--guard-rate=60",
    "--guard-burst=2",
    "--greylist-after=2",
    "--ban-after=6",
    "--hostile=storm",
    "--hostile-rate=300",
]


def run_server(binary, flags, kill_after):
    """Run the server, optionally SIGTERM it after kill_after seconds.

    Returns (exit_code, summary dict).  The drain path exits 0, so a
    killed run is still expected to succeed.
    """
    cmd = [binary] + flags
    print(f"+ {' '.join(cmd)}" + (f"  [SIGTERM after {kill_after}s]"
                                  if kill_after > 0 else ""))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    if kill_after > 0:
        time.sleep(kill_after)
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass  # finished before the kill: the drained gate fails
    out, _ = proc.communicate(timeout=600)
    sys.stdout.write(out)
    m = SUMMARY_RE.search(out)
    if not m:
        raise SystemExit("server produced no summary line — it crashed "
                         "before reporting")
    return proc.returncode, {k: int(v) if v.isdigit() else v
                             for k, v in m.groupdict().items()}


def validate_dir(schema, snapdir, errors):
    files = sorted(os.path.join(snapdir, f) for f in os.listdir(snapdir)
                   if f.endswith(".json"))
    if not files:
        errors.append(f"{snapdir}: no snapshots were written")
        return 0
    problems = []
    for path in files:
        validate_metrics.validate_snapshot(
            schema, validate_metrics.load_json(path), path, problems)
    for p in problems:
        errors.append(f"schema violation: {p}")
    return len(files)


def drain_timeouts(snapdir):
    """Ids of the sessions that ended in this run (not drained) whose
    end_reason in the run's final snapshot is drain_timeout."""
    files = sorted(f for f in os.listdir(snapdir) if f.endswith(".json"))
    if not files:
        return []
    final = validate_metrics.load_json(os.path.join(snapdir, files[-1]))
    return sorted((sid for sid, s in final.get("sessions", {}).items()
                   if s.get("state") != "drained"
                   and s.get("end_reason") == "drain_timeout"), key=int)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", required=True,
                    help="path to the built multicast_server example")
    ap.add_argument("--schema", required=True,
                    help="path to the committed metrics-schema.json")
    ap.add_argument("--workdir", default="soak-out",
                    help="scratch dir for journals/snapshots (wiped)")
    ap.add_argument("--sessions", type=int, default=100)
    ap.add_argument("--receivers", type=int, default=2)
    ap.add_argument("--tgs", type=int, default=8)
    ap.add_argument("--data-loss", type=float, default=0.2)
    ap.add_argument("--control-loss", type=float, default=0.05)
    ap.add_argument("--wire-drop", type=float, default=0.0)
    ap.add_argument("--poll-window", type=float, default=0.05)
    ap.add_argument("--snapshot-interval", type=float, default=0.25)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--kill-after", type=float, default=0.0,
                    help="seconds before SIGTERM (0 = no chaos phase)")
    ap.add_argument("--scenario", choices=["plain", "overload", "hostile"],
                    default="plain",
                    help="'overload' adds bounded-resource stress "
                         "(tiny arena, pacing, EAGAIN/journal fault "
                         "injection, NAK suppression) and gates that the "
                         "stress actually engaged; 'hostile' joins one "
                         "Byzantine NAK-storming member per session under "
                         "the full peer guard and gates that peers were "
                         "rejected AND banned while honest sessions still "
                         "completed exactly-once")
    args = ap.parse_args()

    schema = validate_metrics.load_schema(args.schema)
    shutil.rmtree(args.workdir, ignore_errors=True)
    jdir = os.path.join(args.workdir, "journals")
    sdir1 = os.path.join(args.workdir, "snapshots-run1")
    sdir2 = os.path.join(args.workdir, "snapshots-run2")
    for d in (jdir, sdir1, sdir2):
        os.makedirs(d)

    common = [
        f"--sessions={args.sessions}", f"--receivers={args.receivers}",
        f"--tgs={args.tgs}", f"--data-loss={args.data_loss}",
        f"--control-loss={args.control_loss}",
        f"--wire-drop={args.wire_drop}",
        f"--poll-window={args.poll_window}",
        f"--snapshot-interval={args.snapshot_interval}",
        f"--seed={args.seed}", f"--journal-dir={jdir}",
    ] + SETTINGS_FLAGS
    if args.scenario == "overload":
        common += OVERLOAD_FLAGS
    elif args.scenario == "hostile":
        common += HOSTILE_FLAGS

    errors = []
    run1_flags = common + [f"--snapshot-dir={sdir1}"]
    if args.kill_after > 0:
        run1_flags.append("--drain-grace=0")
    code1, run1 = run_server(args.binary, run1_flags, args.kill_after)
    if code1 != 0:
        errors.append(f"run 1 exited {code1}")
    journals = [f for f in os.listdir(jdir) if f.endswith(".journal")]
    print(f"run 1: {run1['completed']} completed, {run1['drained']} drained, "
          f"{len(journals)} journals on disk")

    run2 = {"completed": 0, "failed": 0, "redelivered": 0, "mismatches": 0,
            "would_block": 0, "suppressed": 0, "quarantined": 0,
            "faults": 0, "peer_rejected": 0, "peer_banned": 0}
    if args.kill_after > 0:
        code2, run2 = run_server(
            args.binary,
            common + [f"--snapshot-dir={sdir2}", "--resume"], 0.0)
        if code2 != 0:
            errors.append(f"run 2 exited {code2}")
        if run1["drained"] == 0:
            errors.append("run 1 drained no session: the kill landed after "
                          "every session finished, so the restart checked "
                          "nothing (lower --kill-after or raise --tgs)")
        if run2["resumed"] != run1["drained"]:
            errors.append(f"run 2 resumed {run2['resumed']} session(s), run "
                          f"1 drained {run1['drained']}")
        leftovers = os.listdir(jdir)
        if leftovers:
            errors.append(f"run 2 left {len(leftovers)} journal/state "
                          f"file(s) unresolved: {sorted(leftovers)[:5]}")

    n1 = validate_dir(schema, sdir1, errors)
    n2 = validate_dir(schema, sdir2, errors) if args.kill_after > 0 else 0
    print(f"validated {n1 + n2} snapshot(s) against "
          f"{schema['schema']} v{schema['version']}")

    total = run1["completed"] + run2["completed"]
    if total != args.sessions:
        errors.append(f"exactly-once: run1.completed {run1['completed']} + "
                      f"run2.completed {run2['completed']} = {total} != "
                      f"sessions {args.sessions}")
    for label, run in (("run 1", run1), ("run 2", run2)):
        if run["failed"]:
            errors.append(f"{label}: {run['failed']} session(s) failed")
        if run["redelivered"]:
            errors.append(f"{label}: {run['redelivered']} redelivered "
                          f"packet(s) for journal-confirmed TGs")
        if run["mismatches"]:
            errors.append(f"{label}: {run['mismatches']} payload "
                          f"mismatch(es)")

    if args.scenario == "overload":
        stress = sum(run[k] for run in (run1, run2)
                     for k in ("would_block", "suppressed", "faults"))
        print(f"overload stress engaged: would_block="
              f"{run1['would_block'] + run2['would_block']} suppressed="
              f"{run1['suppressed'] + run2['suppressed']} faults="
              f"{run1['faults'] + run2['faults']}")
        if stress == 0:
            errors.append("overload scenario: no stress counter moved — "
                          "the injection knobs are not reaching the server")
        if args.control_loss == 0 and args.wire_drop == 0:
            runs = [("run 1", sdir1)]
            if args.kill_after > 0:
                runs.append(("run 2", sdir2))
            for label, snapdir in runs:
                stuck = drain_timeouts(snapdir)
                if stuck:
                    errors.append(
                        f"{label}: {len(stuck)} session(s) ended by "
                        f"drain_timeout with no control loss, so the "
                        f"sender lost their end marker: {stuck[:5]}")

    if args.scenario == "hostile":
        rejected = run1["peer_rejected"] + run2["peer_rejected"]
        banned = run1["peer_banned"] + run2["peer_banned"]
        print(f"hostile defenses engaged: peer_rejected={rejected} "
              f"peer_banned={banned}")
        if rejected == 0:
            errors.append("hostile scenario: peer_rejected == 0 — the "
                          "adversary's frames never reached the guard")
        if banned == 0:
            errors.append("hostile scenario: peer_banned == 0 — the "
                          "Byzantine member was never escalated to a ban")

    for e in errors:
        print(f"  SOAK-FAIL {e}")
    if errors:
        print(f"\nFAIL: {len(errors)} soak invariant(s) violated")
        return 1
    print(f"\nOK: {args.sessions} sessions exactly-once across "
          f"{'2 lives' if args.kill_after > 0 else '1 life'}, "
          f"{n1 + n2} snapshots schema-clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
