"""Independent checks of stage outputs against the generator's expectations.

Nothing here calls cruxkit: outputs are read as plain JSONL and compared with
values the generator derived from how it built the inputs (outcome classes,
match fractions, pass@k from ``math.comb``, the published reward weights,
categories and reclassifications).
"""

from __future__ import annotations

import json
import os
import re

TOL = 1e-12
MAX_MESSAGES = 20


class Tally:
    """Operations checked and how many disagreed with the expectation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < MAX_MESSAGES:
                self.messages.append(message)

    def stage(self, stage: str, returncode: int, stderr: str) -> None:
        self.expect(returncode == 0, f"{stage} exited {returncode}: {stderr.strip()[-300:]}")


def read_rows(path: str) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if set(row) != {"meta"}:
                    rows.append(row)
    return rows


def _close(got, want) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= TOL


def outcome_class(row: dict) -> str:
    if row["timed_out"]:
        return "timeout"
    if not row["compile_ok"]:
        return "compile_fail"
    if not row["ran_ok"]:
        return "crash"
    return "pass" if row["match_fraction"] == 1.0 else "mismatch"


def check_eval(batch: str, expected: dict, tally: Tally) -> int:
    out = os.path.join(batch, "out")
    if not os.path.exists(os.path.join(out, "per_task.jsonl")):
        tally.expect(False, "evaluate wrote no report")
        return 0
    rows = {(r["task_id"], r["index"]): r for r in read_rows(os.path.join(out, "outcomes.jsonl"))}
    for s in expected["samples"]:
        row = rows.get((s["task_id"], s["index"]))
        where = f"{s['task_id']}[{s['index']}]"
        if row is None:
            tally.expect(False, f"{where}: no outcome row")
            continue
        got = outcome_class(row)
        ok = got == s["kind"]
        if ok and s["match_fraction"] is not None:
            ok = _close(row["match_fraction"], s["match_fraction"])
        tally.expect(ok, f"{where}: got {got} {row.get('match_fraction')}, "
                         f"want {s['kind']} {s['match_fraction']}")
    per_task = {r["task_id"]: r for r in read_rows(os.path.join(out, "per_task.jsonl"))}
    for t in expected["tasks"]:
        row = per_task.get(t["task_id"], {})
        tally.expect((row.get("n"), row.get("c")) == (t["n"], t["c"]),
                     f"{t['task_id']}: n,c = {row.get('n')},{row.get('c')}, want {t['n']},{t['c']}")
        for k, want in t["pass_at_k"].items():
            got = row.get(f"pass@{k}")
            tally.expect(got == want if want is None else _close(got, want),
                         f"{t['task_id']}: pass@{k} = {got}, want {want}")
    return len(expected["samples"])


def check_rl(batch: str, expected: dict, tally: Tally) -> int:
    path = os.path.join(batch, "rewards.jsonl")
    got = {}
    if os.path.exists(path):
        for row in read_rows(path):
            for i, r in enumerate(row["rewards"]):
                got[(row["task_id"], i)] = r
    for want in expected["rollouts"]:
        where = f"{want['task_id']}[{want['index']}]"
        row = got.get((want["task_id"], want["index"]))
        if row is None:
            tally.expect(False, f"{where}: no reward row")
            continue
        for key in ("format_r", "compile_r", "crux_r", "code_r", "mixed"):
            tally.expect(_close(row[key], want[key]), f"{where}: {key} = {row[key]}, want {want[key]}")
    return len(expected["rollouts"])


def check_no_sim(batch: str, expected: dict, tally: Tally) -> int:
    def rows(name: str) -> list[dict]:
        path = os.path.join(batch, name)
        return read_rows(path) if os.path.exists(path) else []

    categories = {r["id"]: r["category"] for r in rows("categorized.jsonl")}
    for pid, want in expected["categories"].items():
        tally.expect(categories.get(pid) == want, f"{pid}: category {categories.get(pid)}, want {want}")
    stages: dict[str, list[str]] = {}
    for r in rows("derived.jsonl"):
        stages.setdefault(r["id"], []).append(r["stage"])
    tally.expect(set(stages) == set(expected["derive_stages"]),
                 f"derive-crux covered {len(stages)} pairs, want {len(expected['derive_stages'])}")
    for pid, want in expected["derive_stages"].items():
        tally.expect(stages.get(pid) == want, f"{pid}: derived stages {stages.get(pid)}, want {want}")
    records = {r["id"] for r in rows("records.jsonl")}
    reclassified = {r["id"] for r in rows("reclassified.jsonl")}
    for pid in expected["records"]:
        tally.expect(pid in records and pid not in reclassified, f"{pid}: want a record")
    for pid in expected["reclassified"]:
        tally.expect(pid in reclassified and pid not in records, f"{pid}: want reclassified")
    tally.expect(len(records) + len(reclassified) == expected["ops"],
                 f"{len(records)} records + {len(reclassified)} reclassified != {expected['ops']} pairs")
    return expected["ops"]


_GRPO_LINE = re.compile(r"instances: (\d+)\s+checked positions: (\d+)\s+skipped near kinks: (\d+)")


def check_grpo(stdout: str, expected: dict, tally: Tally) -> int:
    m = _GRPO_LINE.search(stdout)
    ok = m is not None and int(m.group(1)) == expected["instances"] and int(m.group(2)) > 0
    tally.expect(ok, f"grpo-check summary unexpected: {stdout.strip()[:200]!r}")
    tally.expect("gradient check passed" in stdout, "grpo-check did not report a pass")
    return int(m.group(2)) if m else 0
