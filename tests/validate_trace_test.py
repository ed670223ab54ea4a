#!/usr/bin/env python3
"""End-to-end tests for scripts/validate_trace.py (ctest-invoked, stdlib
unittest).

Covers:
  * the vocabulary parse of src/obs/trace_event.h finds one row per kind,
  * fixtures holding every kind in JSONL, Chrome and postmortem form pass,
  * a missing payload key, an extra payload key, a count that is not an
    integer and an unknown kind each fail in all three forms,
  * a dump of the retired vodb-postmortem-v1 schema fails,
  * a header without one row per kind exits 2.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO_ROOT, "scripts", "validate_trace.py")
HEADER = os.path.join(REPO_ROOT, "src", "obs", "trace_event.h")

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(SCRIPT))
import validate_trace  # noqa: E402

KINDS, FIELDS = validate_trace.load_vocabulary()


def payload(kind: str) -> dict:
    """Every payload field of `kind`, with a value of the field's unit."""
    return {key: 2 if unit == "kCount" else 0.5
            for key, unit in KINDS[kind].items()}


def jsonl_events() -> list[dict]:
    return [dict({"run": 0, "label": "fixture", "time": float(i),
                  "kind": kind, "disk": 0, "request": 7}, **payload(kind))
            for i, kind in enumerate(KINDS)]


def chrome_doc() -> dict:
    events = [
        {"ph": "M", "pid": 0, "name": "process_name",
         "args": {"name": "fixture", "dropped_events": 0}},
        {"ph": "M", "pid": 0, "tid": 0, "name": "thread_name",
         "args": {"name": "disk 0"}},
        {"ph": "M", "pid": 0, "tid": 1000, "name": "thread_name",
         "args": {"name": "requests"}},
    ]
    for i, kind in enumerate(KINDS):
        args = dict({"request": 7}, **payload(kind))
        ts = i * 1e6
        if kind == "service_start":
            events.append({"ph": "B", "pid": 0, "tid": 0, "ts": ts,
                           "name": "service", "cat": "disk", "args": args})
        elif kind == "service_end":
            events.append({"ph": "E", "pid": 0, "tid": 0, "ts": ts})
        else:
            events.append({"ph": "i", "pid": 0, "tid": 1000, "ts": ts,
                           "s": "t", "name": kind, "cat": "lifecycle",
                           "args": args})
    return {"displayTimeUnit": "ms", "traceEvents": events}


def dump_doc() -> dict:
    tail = [{key: ev[key] for key in ev if key not in ("run", "label")}
            for ev in jsonl_events()]
    return {
        "schema": "vodb-postmortem-v2", "reason": "explicit",
        "detail": "fixture", "sim_time_s": 16, "run_label": "fixture",
        "config": {}, "metrics": {"counters": {}},
        "ring": {"total": len(tail), "dropped": 0, "tail": tail},
    }


class ValidateTraceTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="validate_trace_test_")

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def run_script(self, *paths: str, script: str = SCRIPT):
        return subprocess.run([sys.executable, script, *paths],
                              capture_output=True, text=True, check=False)

    def write_jsonl(self, events: list[dict]) -> str:
        path = os.path.join(self.tmp, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            for ev in events:
                f.write(json.dumps(ev) + "\n")
        return path

    def write_json(self, name: str, doc: dict) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return path

    def forms(self, mutate) -> list[str]:
        """The three fixtures after `mutate(obj, kind)` edited the payload
        object of the event of each kind it accepts."""
        events = jsonl_events()
        for ev in events:
            mutate(ev, ev["kind"])
        chrome = chrome_doc()
        for ev in chrome["traceEvents"]:
            if ev["ph"] in ("i", "B"):
                kind = "service_start" if ev["ph"] == "B" else ev["name"]
                mutate(ev["args"], kind)
        dump = dump_doc()
        for ev in dump["ring"]["tail"]:
            mutate(ev, ev["kind"])
        return [self.write_jsonl(events),
                self.write_json("trace.json", chrome),
                self.write_json("postmortem_fixture.json", dump)]

    def assert_each_fails(self, mutate, message: str):
        for path in self.forms(mutate):
            proc = self.run_script(path)
            self.assertEqual(proc.returncode, 1, path + "\n" + proc.stderr)
            self.assertIn(message, proc.stderr, path)

    def test_header_parse_finds_one_row_per_kind(self):
        self.assertEqual(len(KINDS), 16)
        self.assertEqual(set(KINDS["defer"]), {"n"})
        self.assertEqual(set(KINDS["reject_memory"]), {"n"})
        self.assertEqual(set(KINDS["allocation"]),
                         {"n", "k", "bits", "usage_period"})
        self.assertEqual(KINDS["arrival"], {})
        self.assertEqual(FIELDS["bits"], "kBits")
        self.assertEqual(FIELDS["seek"], "kSeconds")

    def test_every_kind_passes_in_every_form(self):
        paths = self.forms(lambda obj, kind: None)
        proc = self.run_script(*paths)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_missing_payload_key_fails(self):
        def drop_k(obj, kind):
            if kind == "allocation":
                del obj["k"]
        self.assert_each_fails(drop_k, "missing payload `k`")

    def test_extra_payload_key_fails(self):
        def add_n(obj, kind):
            if kind == "arrival":
                obj["n"] = 1
        self.assert_each_fails(add_n, "unexpected key `n`")

    def test_fractional_count_fails(self):
        def half_n(obj, kind):
            if kind == "admit":
                obj["n"] = 2.5
        self.assert_each_fails(half_n, "is not a kCount value")

    def test_unknown_kind_fails(self):
        events = jsonl_events()
        events[0]["kind"] = "teleport"
        proc = self.run_script(self.write_jsonl(events))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown kind `teleport`", proc.stderr)

        chrome = chrome_doc()
        chrome["traceEvents"][3]["name"] = "teleport"
        proc = self.run_script(self.write_json("trace.json", chrome))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown kind `teleport`", proc.stderr)

        dump = dump_doc()
        dump["ring"]["tail"][0]["kind"] = "teleport"
        proc = self.run_script(self.write_json("postmortem_x.json", dump))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown kind `teleport`", proc.stderr)

    def test_v1_dump_fails(self):
        dump = dump_doc()
        dump["schema"] = "vodb-postmortem-v1"
        proc = self.run_script(self.write_json("postmortem_v1.json", dump))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("unknown schema `vodb-postmortem-v1`", proc.stderr)

    def test_header_without_a_row_per_kind_exits_2(self):
        """A copy of the script next to a header whose kTraceKinds lost its
        `hiccup` row, then next to no header at all."""
        os.makedirs(os.path.join(self.tmp, "scripts"))
        os.makedirs(os.path.join(self.tmp, "src", "obs"))
        script = os.path.join(self.tmp, "scripts", "validate_trace.py")
        shutil.copy(SCRIPT, script)
        fixture = self.write_jsonl(jsonl_events())
        with open(HEADER, encoding="utf-8") as f:
            lines = f.read().splitlines(keepends=True)
        broken = [line for line in lines
                  if "TraceEventKind::kHiccup," not in line]
        self.assertEqual(len(broken), len(lines) - 1)
        header = os.path.join(self.tmp, "src", "obs", "trace_event.h")
        with open(header, "w", encoding="utf-8") as f:
            f.writelines(broken)
        proc = self.run_script(fixture, script=script)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertIn("15 rows", proc.stderr)

        os.remove(header)
        proc = self.run_script(fixture, script=script)
        self.assertEqual(proc.returncode, 2, proc.stderr)


if __name__ == "__main__":
    unittest.main()
