#!/usr/bin/env python3
"""Structural validator for traces produced by --trace=<file>.

Catches exporter regressions that a human squinting at Perfetto would miss:
missing payload fields, non-monotonic timestamps inside a run, unbalanced
slice begin/end pairs, dangling async spans, and malformed flow chains.

Two formats, selected by file suffix exactly like obs::WriteTraceFile:

  *.jsonl   One JSON object per line:
              {"run":N,"label":...,"time":T,"kind":K,"disk":D,"request":R,
               ...kind-specific payload}
            Checks: every line parses; required keys with correct types;
            `kind` is a known token; kind-specific payload keys present;
            `time` non-decreasing within each run (one run = one
            single-threaded simulator = one clock).

  * (else)  Chrome trace-event JSON ({"traceEvents": [...]}):
            Checks: known phases only; metadata names every pid (process)
            and tid (thread) that carries events; per-pid `ts` is
            non-decreasing over non-metadata events; B/E slice nesting per
            (pid, tid) never goes negative and ends balanced; async b/e
            per id open before close and all close; flow chains per id are
            s (t)* f with the terminal f carrying bp="e"; X span events
            (--spans) carry a non-negative `dur`, a known span name, cat
            "span", and sit on the stream track derived from args.request
            (tid = 2000 + request).

A file whose basename starts with "postmortem" and ends in ".json" is
validated as a postmortem black-box dump instead (schema
"vodb-postmortem-v1"): required top-level keys with correct types, ring
tail entries shaped like trace events, and embedded config/metrics
objects. A dump a run captured (reason "invariant" or "hiccup") must carry
that run's counters: `metrics.counters` is a non-empty object of
non-negative integers that includes `sim.arrivals`.

Usage: validate_trace.py <file> [<file> ...]
Exit status: 0 when all files are valid, 1 with findings on stderr
otherwise.
"""

from __future__ import annotations

import json
import sys

KNOWN_KINDS = {
    "arrival", "admit", "defer", "reject_capacity", "reject_memory",
    "reject_invalid", "allocation", "service_start", "service_end",
    "starvation", "departure", "cancel", "read_fault", "hiccup",
    "degraded", "recovered",
}

# kind -> payload keys that must ride along in JSONL.
KIND_PAYLOAD = {
    "admit": ["n"],
    "allocation": ["n", "k", "buffer_bits", "usage_period"],
    "service_start": ["bits", "seek", "rotation", "transfer"],
    "service_end": ["bits", "seek", "rotation", "transfer"],
    "read_fault": ["seek", "rotation"],
}

# Per-stream lifecycle spans emitted by --spans (obs/span_tracker.h).
SPAN_NAMES = {"admission_wait", "service", "degraded", "retry_burst"}

# X span events live on per-stream tracks at tid = base + request
# (obs::kSpanTrackTidBase).
SPAN_TID_BASE = 2000

POSTMORTEM_SCHEMA = "vodb-postmortem-v1"
POSTMORTEM_REASONS = {"invariant", "hiccup", "explicit"}
# Reasons whose dumps a simulator captured, so they hold its counters.
POSTMORTEM_RUN_REASONS = {"invariant", "hiccup"}


class Findings:
    def __init__(self) -> None:
        self.count = 0

    def report(self, where: str, msg: str) -> None:
        self.count += 1
        if self.count <= 50:
            print(f"{where}: {msg}", file=sys.stderr)
        elif self.count == 51:
            print("... further findings suppressed", file=sys.stderr)


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------


def validate_jsonl(path: str, findings: Findings) -> int:
    required = {
        "run": int, "label": str, "time": (int, float), "kind": str,
        "disk": int, "request": int,
    }
    last_time: dict[int, float] = {}
    events = 0
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                findings.report(where, f"unparseable line: {e}")
                continue
            if not isinstance(ev, dict):
                findings.report(where, "line is not a JSON object")
                continue
            events += 1
            ok = True
            for key, ty in required.items():
                if key not in ev:
                    findings.report(where, f"missing key `{key}`")
                    ok = False
                elif not isinstance(ev[key], ty) or isinstance(ev[key], bool):
                    findings.report(where, f"key `{key}` has wrong type "
                                           f"({type(ev[key]).__name__})")
                    ok = False
            if not ok:
                continue
            kind = ev["kind"]
            if kind not in KNOWN_KINDS:
                findings.report(where, f"unknown kind `{kind}`")
                continue
            for key in KIND_PAYLOAD.get(kind, []):
                if key not in ev:
                    findings.report(where,
                                    f"kind `{kind}` missing payload `{key}`")
            run = ev["run"]
            t = float(ev["time"])
            if t < 0:
                findings.report(where, f"negative time {t}")
            if run in last_time and t < last_time[run]:
                findings.report(
                    where, f"time went backwards within run {run}: "
                           f"{t} after {last_time[run]}")
            last_time[run] = max(t, last_time.get(run, t))
    return events


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def validate_chrome(path: str, findings: Findings) -> int:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            findings.report(path, f"unparseable JSON: {e}")
            return 0
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        findings.report(path, "missing top-level `traceEvents`")
        return 0
    events = doc["traceEvents"]
    if not isinstance(events, list):
        findings.report(path, "`traceEvents` is not a list")
        return 0

    known_phases = {"M", "B", "E", "X", "i", "b", "e", "s", "t", "f"}
    named_pids: set[int] = set()
    named_tids: set[tuple[int, int]] = set()
    used_pids: set[int] = set()
    used_tids: set[tuple[int, int]] = set()
    last_ts: dict[int, float] = {}
    slice_depth: dict[tuple[int, int], int] = {}
    async_open: set[str] = set()
    async_closed: set[str] = set()
    # flow id -> state: "s" seen, possibly "t"s, then terminal "f".
    flow_state: dict[str, str] = {}

    for i, ev in enumerate(events):
        where = f"{path}: traceEvents[{i}]"
        if not isinstance(ev, dict):
            findings.report(where, "event is not an object")
            continue
        ph = ev.get("ph")
        pid = ev.get("pid")
        if ph not in known_phases:
            findings.report(where, f"unknown phase `{ph}`")
            continue
        if not isinstance(pid, int):
            findings.report(where, "missing/non-integer `pid`")
            continue

        if ph == "M":
            name = ev.get("name")
            if name == "process_name":
                named_pids.add(pid)
            elif name == "thread_name":
                tid = ev.get("tid")
                if not isinstance(tid, int):
                    findings.report(where, "thread_name without integer tid")
                else:
                    named_tids.add((pid, tid))
            else:
                findings.report(where, f"unknown metadata `{name}`")
            if not isinstance(ev.get("args", {}).get("name"), str):
                findings.report(where, "metadata without args.name string")
            continue

        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool):
            findings.report(where, "missing/non-numeric `ts`")
            continue
        used_pids.add(pid)
        if pid in last_ts and ts < last_ts[pid]:
            findings.report(where, f"ts went backwards within pid {pid}: "
                                   f"{ts} after {last_ts[pid]}")
        last_ts[pid] = max(ts, last_ts.get(pid, ts))

        tid = ev.get("tid")
        if not isinstance(tid, int):
            findings.report(where, "missing/non-integer `tid`")
            continue
        used_tids.add((pid, tid))

        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or isinstance(dur, bool):
                findings.report(where, "X event missing/non-numeric `dur`")
            elif dur < 0:
                findings.report(where, f"X event with negative dur {dur}")
            name = ev.get("name")
            if name not in SPAN_NAMES:
                findings.report(where, f"unknown span name `{name}`")
            if ev.get("cat") != "span":
                findings.report(where, "X event without cat=\"span\"")
            request = ev.get("args", {}).get("request")
            if not isinstance(request, int):
                findings.report(where, "X event missing integer args.request")
            elif tid != SPAN_TID_BASE + request:
                findings.report(
                    where, f"span for request {request} on tid {tid}, "
                           f"expected {SPAN_TID_BASE + request}")
        elif ph == "B":
            slice_depth[(pid, tid)] = slice_depth.get((pid, tid), 0) + 1
        elif ph == "E":
            depth = slice_depth.get((pid, tid), 0) - 1
            slice_depth[(pid, tid)] = depth
            if depth < 0:
                findings.report(where, f"E without matching B on "
                                       f"(pid {pid}, tid {tid})")
        elif ph in ("b", "e", "s", "t", "f"):
            ev_id = ev.get("id")
            if not isinstance(ev_id, str) or not ev_id:
                findings.report(where, f"phase `{ph}` without string `id`")
                continue
            if ph == "b":
                if ev_id in async_open or ev_id in async_closed:
                    findings.report(where, f"async span `{ev_id}` reopened")
                async_open.add(ev_id)
            elif ph == "e":
                if ev_id not in async_open:
                    findings.report(where,
                                    f"async end `{ev_id}` without begin")
                else:
                    async_open.discard(ev_id)
                    async_closed.add(ev_id)
            else:  # Flow s / t / f.
                state = flow_state.get(ev_id)
                if ph == "s":
                    if state is not None:
                        findings.report(where, f"flow `{ev_id}` restarted")
                    flow_state[ev_id] = "s"
                elif ph == "t":
                    if state != "s":
                        findings.report(where,
                                        f"flow step `{ev_id}` without start")
                else:  # "f"
                    if state != "s":
                        findings.report(where,
                                        f"flow finish `{ev_id}` without start")
                    if ev.get("bp") != "e":
                        findings.report(where,
                                        f"flow finish `{ev_id}` missing "
                                        "bp=\"e\"")
                    flow_state[ev_id] = "f"

    # A run may end with one service in flight per disk (B with no E yet)
    # and with requests still being viewed (open async spans); Perfetto
    # renders both as extending to the end of the trace. Anything beyond
    # that is a real imbalance — a disk serves one request at a time.
    for key, depth in sorted(slice_depth.items()):
        if depth > 1:
            findings.report(path, f"{depth} unclosed B slices on "
                                  f"(pid {key[0]}, tid {key[1]}) — disks "
                                  "serve one request at a time")
    for ev_id, state in sorted(flow_state.items()):
        if state != "f":
            findings.report(path, f"flow `{ev_id}` never finished")
    for pid in sorted(used_pids - named_pids):
        findings.report(path, f"pid {pid} has events but no process_name")
    for pid, tid in sorted(used_tids - named_tids):
        findings.report(path, f"(pid {pid}, tid {tid}) has events but no "
                              "thread_name")
    return sum(1 for ev in events
               if isinstance(ev, dict) and ev.get("ph") != "M")


# ---------------------------------------------------------------------------
# Postmortem dumps
# ---------------------------------------------------------------------------


def validate_counters(path: str, metrics: object,
                      findings: Findings) -> None:
    counters = metrics.get("counters") if isinstance(metrics, dict) else None
    if not isinstance(counters, dict) or not counters:
        findings.report(path, "metrics.counters missing or empty")
        return
    for name, value in counters.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            findings.report(path, f"metrics.counters.{name} is not a "
                                  f"non-negative integer ({value!r})")
    if "sim.arrivals" not in counters:
        findings.report(path, "metrics.counters has no `sim.arrivals`")


def validate_postmortem(path: str, findings: Findings) -> int:
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            findings.report(path, f"unparseable JSON: {e}")
            return 0
    if not isinstance(doc, dict):
        findings.report(path, "dump is not a JSON object")
        return 0

    required = {
        "schema": str, "reason": str, "detail": str,
        "sim_time_s": (int, float), "run_label": str, "config": dict,
        "ring": dict,
    }
    for key, ty in required.items():
        if key not in doc:
            findings.report(path, f"missing key `{key}`")
        elif not isinstance(doc[key], ty) or isinstance(doc[key], bool):
            findings.report(path, f"key `{key}` has wrong type "
                                  f"({type(doc[key]).__name__})")
    if doc.get("schema") not in (None, POSTMORTEM_SCHEMA):
        findings.report(path, f"unknown schema `{doc['schema']}`")
    if isinstance(doc.get("reason"), str) and \
            doc["reason"] not in POSTMORTEM_REASONS:
        findings.report(path, f"unknown reason `{doc['reason']}`")
    if isinstance(doc.get("sim_time_s"), (int, float)) and \
            doc["sim_time_s"] < 0:
        findings.report(path, f"negative sim_time_s {doc['sim_time_s']}")
    if "metrics" not in doc:
        findings.report(path, "missing key `metrics`")
    if doc.get("reason") in POSTMORTEM_RUN_REASONS:
        validate_counters(path, doc.get("metrics"), findings)

    tail_events = 0
    ring = doc.get("ring")
    if isinstance(ring, dict):
        for key in ("total", "dropped"):
            v = ring.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) or v < 0:
                findings.report(path, f"ring.{key} missing or negative")
        tail = ring.get("tail")
        if not isinstance(tail, list):
            findings.report(path, "ring.tail is not a list")
        else:
            last_t = None
            for i, ev in enumerate(tail):
                where = f"{path}: ring.tail[{i}]"
                if not isinstance(ev, dict):
                    findings.report(where, "entry is not an object")
                    continue
                tail_events += 1
                kind = ev.get("kind")
                if kind not in KNOWN_KINDS:
                    findings.report(where, f"unknown kind `{kind}`")
                t = ev.get("time_s")
                if not isinstance(t, (int, float)) or isinstance(t, bool):
                    findings.report(where, "missing/non-numeric `time_s`")
                    continue
                if last_t is not None and t < last_t:
                    findings.report(where, f"time went backwards: {t} "
                                           f"after {last_t}")
                last_t = t
            total = ring.get("total")
            if isinstance(total, (int, float)) and tail_events > total:
                findings.report(path, f"ring.tail has {tail_events} events "
                                      f"but ring.total is {total}")
    # A dump counts as "having events" even with an empty ring — tracer-less
    # sinks still capture config + metrics, which is the point of the file.
    return 1 + tail_events


def validate_one(path: str, findings: Findings) -> None:
    base = path.rsplit("/", 1)[-1]
    if base.startswith("postmortem") and base.endswith(".json"):
        events = validate_postmortem(path, findings)
        label = "entries"
    elif path.endswith(".jsonl"):
        events = validate_jsonl(path, findings)
        label = "events"
    else:
        events = validate_chrome(path, findings)
        label = "events"
    if events == 0 and not findings.count:
        print(f"validate_trace: {path} contains no events", file=sys.stderr)
        findings.count += 1
        return
    if not findings.count:
        print(f"validate_trace: {path} OK ({events} {label})")


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = 0
    for path in sys.argv[1:]:
        findings = Findings()
        validate_one(path, findings)
        if findings.count:
            print(f"validate_trace: {findings.count} finding(s) in {path}",
                  file=sys.stderr)
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
