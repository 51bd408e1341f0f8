"""Seeded input generator for the cruxkit pipeline benchmark.

Every batch is a pure function of (workload, seed, batch index, size): the
same arguments write byte-identical files. Each batch directory holds the
stage inputs plus ``expected.json``, the result every operation must have,
known from how the inputs were built rather than from running cruxkit.

The mix of work in a batch (transcript lengths, outcome classes, payload
sizes, category shares) is fixed per size; the seed only changes content
(names, widths, directions, values, order). That keeps the work per batch
the same across seeds, so run-to-run spread measures the host, not the
inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shlex
import sys

WORKLOADS = ("eval-sweep", "rl-groups", "no-sim")

# Published reward schedule over (format, compile, crux, code): early weights
# for the first tenth of an epoch, late weights after.
EARLY_WEIGHTS = (1.0, 3.0, 4.0, 6.0)
LATE_WEIGHTS = (0.5, 1.5, 4.0, 8.0)
STEPS_PER_EPOCH = 520
EARLY_STEP, LATE_STEP = 10, 400  # switch step is floor(0.1 * 520) = 52

EVAL_TIMEOUT_MS = 1500
EVAL_K = (1, 5, 10)
GRPO_BETA = 0.04

# Phrases whose presence sends a failed probe to SpecialNonText.
DIAGRAM_PHRASES = ("state machine", "Karnaugh map", "waveform", "truth table")
DIAGRAM_KEYWORDS = (
    "k-map", "kmap", "karnaugh", "fsm", "state machine", "waveform",
    "sequential", "truth table",
)

SIZES = {
    "full": {
        # per task: (transcript lines, pass, mismatch, short, compile_fail, crash, timeout)
        "eval_tasks": ((2500, 10, 2, 1, 1, 1, 1), (300, 5, 4, 1, 4, 2, 0), (6, 1, 6, 2, 4, 3, 0)),
        "rl_groups": 4,
        "no_sim_pairs": 2000,
        "grpo_instances": 4,
    },
    "tiny": {
        "eval_tasks": ((6, 1, 1, 1, 1, 1, 1),),
        "rl_groups": 2,
        "no_sim_pairs": 60,
        "grpo_instances": 1,
    },
}

MODULE_STEMS = (
    "alu", "accum", "shifter", "mux", "decoder", "encoder", "counter", "pipe",
    "arbiter", "crc", "parity", "gray", "edge", "sync", "lfsr", "comparator",
    "adder", "multiplier", "buffer", "latch",
)
PORT_STEMS = (
    "clk", "rst", "en", "sel", "din", "dout", "valid", "ready", "data", "addr",
    "we", "load", "carry", "flag", "busy", "done", "start", "mode", "bus", "sum",
)
NOUNS = (
    "register", "output", "input bus", "accumulator", "result", "control word",
    "status bit", "counter value", "data path", "carry chain",
)
VERBS = ("captures", "updates", "clears", "holds", "forwards", "compares", "latches", "selects")
CONDITIONS = (
    "on every rising clock edge", "when enable is high", "after reset is released",
    "while the select line is low", "once the start pulse arrives", "at the end of a transfer",
)


def rng_for(*parts) -> random.Random:
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_jsonl(path: str, rows: list[dict]) -> None:
    _write(path, "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def _write_json(path: str, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


# --- module headers -----------------------------------------------------------


def make_ports(rng: random.Random) -> list[dict]:
    """A random ANSI port list: clock first, then 2-6 data ports."""
    stems = rng.sample(PORT_STEMS[1:], rng.randint(2, 6))
    ports = [{"name": f"clk{rng.randrange(10)}", "dir": "input", "width": 1, "reg": False, "range": ""}]
    for stem in stems:
        direction = rng.choice(("input", "input", "output", "output", "inout"))
        width = rng.choice((1, 1, 2, 4, 8, 16, 32))
        rng_text = ""
        if width > 1:
            rng_text = f"[{width - 1}:0]" if rng.random() < 0.8 else f"[0:{width - 1}]"
        ports.append({
            "name": f"{stem}{rng.randrange(100)}",
            "dir": direction,
            "width": width,
            "reg": direction == "output" and rng.random() < 0.5,
            "range": rng_text,
        })
        # sometimes a second port sharing the declaration: `input [3:0] a, b`
        if rng.random() < 0.25:
            twin = dict(ports[-1], name=f"{stem}{rng.randrange(100, 200)}")
            twin["continued"] = True
            ports.append(twin)
    return ports


def make_params(rng: random.Random) -> list[tuple[str, str]]:
    names = rng.sample(("WIDTH", "DEPTH", "INIT", "STAGES"), rng.choice((0, 0, 1, 2)))
    return [(n, str(rng.choice((1, 4, 8, 16, 255)))) for n in names]


def _port_decl(p: dict, with_wire: bool) -> str:
    words = [p["dir"]]
    if p["reg"]:
        words.append("reg")
    elif with_wire and p["dir"] == "input":
        words.append("wire")
    if p["range"]:
        words.append(p["range"])
    words.append(p["name"])
    return " ".join(words)


def ansi_header(name: str, params: list, ports: list[dict], rng: random.Random) -> str:
    """Render an ANSI header in one of several layouts; it parses back to
    exactly ``ports`` (continued ports repeat their predecessor's declaration)."""
    chunks = []
    for p in ports:
        if p.get("continued"):
            chunks[-1] += f", {p['name']}"
        else:
            chunks.append(_port_decl(p, rng.random() < 0.3))
    one_line = rng.random() < 0.3
    text = f"module {name}"
    if params:
        plist = ", ".join(f"parameter {n} = {v}" for n, v in params)
        text += f" #({plist})" if one_line else f" #(\n    {plist}\n)"
    if one_line:
        return text + " (" + ", ".join(chunks) + ");"
    return text + " (\n    " + ",\n    ".join(chunks) + "\n);"


def canonical_header(name: str, params: list, ports: list[dict]) -> str:
    """One declaration per port, as a model would restate it in a CRUX note."""
    lines = [f"module {name} ("]
    if params:
        lines = [f"module {name} #("]
        lines += [f"    parameter {n} = {v}" + ("," if i < len(params) - 1 else "")
                  for i, (n, v) in enumerate(params)]
        lines.append(")(")
    lines += [f"    {_port_decl(p, False)}" + ("," if i < len(ports) - 1 else "")
              for i, p in enumerate(ports)]
    lines.append(");")
    return "\n".join(lines)


def bad_header(name: str, ports: list[dict], rng: random.Random) -> str:
    """A header outside the supported subset: non-ANSI or a parameterized range."""
    if rng.random() < 0.5:
        names = ", ".join(p["name"] for p in ports)
        decls = "\n".join(f"    {p['dir']} {p['name']};" for p in ports)
        return f"module {name} ({names});\n{decls}"
    decls = ",\n    ".join(
        f"{p['dir']} [WIDTH-1:0] {p['name']}" if i == 1 else _port_decl(p, False)
        for i, p in enumerate(ports)
    )
    return f"module {name} #(parameter WIDTH = 8) (\n    {decls}\n);"


def module_name(rng: random.Random, tag: str) -> str:
    return f"{rng.choice(MODULE_STEMS)}_{tag}"


def sentence(rng: random.Random) -> str:
    return (f"The {rng.choice(NOUNS)} {rng.choice(VERBS)} the {rng.choice(NOUNS)} "
            f"{rng.choice(CONDITIONS)}.")


def paragraph(rng: random.Random, n: int) -> str:
    return " ".join(sentence(rng) for _ in range(n))


# --- CRUX notes ---------------------------------------------------------------


def crux_text(kind: str, header: str, rng: random.Random, diagram: bool = False) -> str:
    """A CRUX note of the given shape. ``kind`` is one of good, missing_key,
    empty_key, bad_width, unparsable, empty_core, no_headings."""
    core = [f"- {sentence(rng)[:-1]}" for _ in range(rng.randint(2, 6))]
    if diagram:
        rows = [f"S{i} → x={rng.randrange(2)} → S{rng.randrange(4)}" for i in range(rng.randint(3, 8))]
        core = core[:1] + ["", "State transitions (State → Condition → Next State):"] + rows + [""] + core[1:]
    key = [f"- {sentence(rng)[:-1]}" for _ in range(rng.randint(1, 4))]
    if kind == "no_headings":
        return "\n".join(line.lstrip("- ") for line in core if line) + "\n"
    if kind == "unparsable":
        header = "TODO: interface pending review"
    if kind == "empty_core":
        core = []
    if kind == "empty_key":
        key = []
    parts = ["## Module Interface", "", "```verilog", header, "```", "", "## Core Functions", ""]
    parts += core + [""]
    if kind != "missing_key":
        parts += ["## Key Considerations", ""] + key
    return "\n".join(parts).rstrip("\n") + "\n"


def widen_first_port(header_ports: list[dict]) -> list[dict]:
    ports = [dict(p) for p in header_ports]
    w = ports[0]["width"] + 1
    ports[0].update(width=w, range=f"[{w - 1}:0]")
    return ports


# --- simulated designs (echo toolchain) --------------------------------------


def emit_lines(prefix: str, tag: str, n: int, rng: random.Random) -> list[str]:
    return [f"{prefix}{i} {tag} {rng.getrandbits(32):08x}" for i in range(n)]


def design_source(header: str, design_emits: list[str], rng: random.Random,
                  note: str, extra: tuple[str, ...] = ()) -> str:
    body = [header, f"    // {note}"]
    body += [f"    // EMIT: {line}" for line in design_emits]
    body += list(extra)
    body += [f"    assign {rng.choice(PORT_STEMS)}_w = {rng.getrandbits(16)};", "endmodule"]
    return "\n".join(body)


def testbench_source(name: str, tb_emits: list[str]) -> str:
    lines = ["`timescale 1ns/1ps", f"module {name}_tb;", "    initial begin"]
    lines += [f"        // EMIT: {line}" for line in tb_emits]
    lines += ["        $finish;", "    end", "endmodule", ""]
    return "\n".join(lines)


def _alter(line: str) -> str:
    head, value = line.rsplit(" ", 1)
    return f"{head} {int(value, 16) ^ 1:08x}"


def candidate(kind: str, header: str, emits: list[str], rng: random.Random, note: str,
              count: int = 1) -> str:
    """Design source for an outcome kind. ``mismatch`` alters ``count`` of the
    design's transcript lines; ``short`` drops its last ``count`` lines."""
    if kind == "mismatch":
        picks = set(rng.sample(range(len(emits)), count))
        changed = [_alter(line) if i in picks else line for i, line in enumerate(emits)]
        return design_source(header, changed, rng, note)
    if kind == "short":
        return design_source(header, emits[: len(emits) - count], rng, note)
    extra = {
        "pass": (),
        "compile_fail": ("    assign y = SYNTAX_ERROR;",),
        "crash": ("    // EXITCODE: 3",),
        "timeout": ("    // SLEEP: 5",),
    }[kind]
    return design_source(header, emits, rng, note, extra)


def match_fraction(kind: str, count: int, lines: int, n_design: int) -> float | None:
    """Share of the reference transcript a run of ``candidate(kind, ...)``
    reproduces position by position; None when the run does not complete.
    Design lines and testbench lines carry distinct prefixes and indices, so
    a shifted line never matches by accident."""
    if kind == "pass":
        return 1.0
    if kind == "mismatch":
        return (lines - count) / lines
    if kind == "short":
        return (n_design - count) / lines
    return None


# --- eval-sweep -------------------------------------------------------------


def eval_batch(out: str, seed: int, batch: int, size: str) -> dict:
    tasks, cand_rows, expected_samples, expected_tasks = [], [], [], []
    sim_keys = []
    tb_dir = os.path.join(out, "testbenches")
    os.makedirs(tb_dir)
    for t, (lines, *mix) in enumerate(SIZES[size]["eval_tasks"]):
        rng = rng_for("eval", seed, batch, t)
        tag = f"b{batch}t{t}"
        name = module_name(rng, tag)
        task_id = f"{name}_{rng.getrandbits(24):06x}"
        ports = make_ports(rng)
        header = ansi_header(name, make_params(rng), ports, rng)
        n_design = max(1, lines // 4)
        d_emits = emit_lines("d", name, n_design, rng)
        t_emits = emit_lines("t", name, lines - n_design, rng)
        reference = design_source(header, d_emits, rng, f"reference {task_id}")
        tb = testbench_source(name, t_emits)
        _write(os.path.join(tb_dir, f"{task_id}_tb.v"), tb)
        tasks.append({"id": task_id, "description": paragraph(rng, 2), "reference_code": reference})
        kinds = []
        for kind, n in zip(("pass", "mismatch", "short", "compile_fail", "crash", "timeout"), mix):
            # mismatches alternate between one altered line and half the design's lines
            kinds += [(kind, max(1, n_design // 2) if kind == "mismatch" and j % 2 else 1)
                      for j in range(n)]
        rng.shuffle(kinds)
        codes, correct = [], 0
        sim_keys.append((reference, tb))
        for i, (kind, count) in enumerate(kinds):
            code = candidate(kind, header, d_emits, rng, f"candidate {task_id} {i} {rng.getrandbits(32):08x}", count)
            codes.append(code)
            sim_keys.append((code, tb))
            sample = {"task_id": task_id, "index": i,
                      "kind": "mismatch" if kind == "short" else kind,
                      "match_fraction": match_fraction(kind, count, lines, n_design)}
            correct += kind == "pass"
            expected_samples.append(sample)
        cand_rows.append({"task_id": task_id, "candidates": codes})
        n = len(kinds)
        expected_tasks.append({
            "task_id": task_id, "n": n, "c": correct,
            "pass_at_k": {str(k): (1.0 - math.comb(n - correct, k) / math.comb(n, k)) if k <= n else None
                          for k in EVAL_K},
        })
    _write_jsonl(os.path.join(out, "tasks.jsonl"), tasks)
    _write_jsonl(os.path.join(out, "candidates.jsonl"), cand_rows)
    return {
        "ops": len(expected_samples),
        "samples": expected_samples,
        "tasks": expected_tasks,
        "sim_calls": len(sim_keys),
        "sim_distinct": len(set(sim_keys)),
    }


# --- rl-groups ----------------------------------------------------------------

# per group: (code kind, copies of that code text); "ref" is the reference
# design byte for byte, so its sims repeat the reference sim
RL_PATTERNS = (
    (("ref", 4), ("mismatch", 3), ("compile_fail", 1)),
    (("pass", 3), ("crash", 3), ("mismatch", 2)),
    (("ref", 5), ("compile_fail", 3)),
    (("ref", 3), ("mismatch", 2), ("short", 2), ("crash", 1)),
)
RL_CRUX_KINDS = ("good", "good", "missing_key", "bad_width", "unparsable", "good", "empty_core", "no_headings")
RL_FORMAT = {"good": 1.0, "missing_key": 0.75, "bad_width": 0.75, "unparsable": 0.5,
             "empty_core": 0.75, "no_headings": 0.0}
RL_PAYLOAD_TOKENS = (150, 400, 800, 1200, 1600, 2000, 300, 1000)
RL_SCORE_TOKENS = (40, 120, 300, 80)
RL_DEFAULT_LOGPROB = math.log(0.8)
RL_LOGPROB_TABLE = {
    "module": -0.01, "endmodule": -0.02, "input": -0.05, "output": -0.07,
    "//": -0.3, "EMIT:": -0.25, "assign": -0.4, "reg": -0.15,
}
RL_FAIL_FIRST, RL_MAX_RETRIES = 4, 3  # the first scoring call exhausts its retries


def _payload(rng: random.Random, n: int, base: list[float] | None = None) -> tuple[list[int], list[float]]:
    tokens = [rng.randrange(50_000) for _ in range(n)]
    if base is None:
        return tokens, [round(-rng.uniform(0.001, 4.0), 6) for _ in range(n)]
    return tokens, [min(round(b + rng.gauss(0.0, 0.1), 6), 0.0) for b in base]


def rl_batch(out: str, seed: int, batch: int, size: str) -> dict:
    tb_dir = os.path.join(out, "testbenches")
    os.makedirs(tb_dir)
    tasks, groups, expected_rollouts = [], [], []
    sim_keys = []
    mock_calls = 0
    for g in range(SIZES[size]["rl_groups"]):
        rng = rng_for("rl", seed, batch, g)
        name = module_name(rng, f"b{batch}g{g}")
        task_id = f"{name}_{rng.getrandbits(24):06x}"
        ports = make_ports(rng)
        params = make_params(rng)
        header = ansi_header(name, params, ports, rng)
        lines = rng.randint(20, 60)
        n_design = max(2, lines // 3)
        d_emits = emit_lines("d", name, n_design, rng)
        tb = testbench_source(name, emit_lines("t", name, lines - n_design, rng))
        _write(os.path.join(tb_dir, f"{task_id}_tb.v"), tb)
        reference = design_source(header, d_emits, rng, f"reference {task_id}")
        tasks.append({"id": task_id, "description": paragraph(rng, 2), "reference_code": reference})
        sim_keys.append((reference, tb))
        variants = []
        for kind, copies in RL_PATTERNS[g % len(RL_PATTERNS)]:
            if kind == "ref":
                code, fraction, compiled = reference, 1.0, True
            else:
                code = candidate(kind, header, d_emits, rng, f"rollout {task_id} {kind}")
                compiled = kind != "compile_fail"
                fraction = match_fraction(kind, 1, lines, n_design) or 0.0
            variants += [(code, fraction, compiled)] * copies
        rng.shuffle(variants)
        step = EARLY_STEP if g % 2 == 0 else LATE_STEP
        weights = EARLY_WEIGHTS if step < math.floor(0.1 * STEPS_PER_EPOCH) else LATE_WEIGHTS
        canonical = canonical_header(name, params, ports)
        ref_words = reference.split()
        rollouts = []
        for i, (code, fraction, compiled) in enumerate(variants):
            crng = rng_for("rl-crux", seed, batch, g, i)
            ckind = RL_CRUX_KINDS[i % len(RL_CRUX_KINDS)]
            crux_header = canonical_header(name, params, widen_first_port(ports)) if ckind == "bad_width" else canonical
            text = crux_text(ckind, crux_header, crng)
            sim_keys.append((code, tb))
            code_text = f"```verilog\n{code}\n```" if i % 3 == 2 else code
            n_tok = RL_PAYLOAD_TOKENS[i % len(RL_PAYLOAD_TOKENS)]
            tokens, new = _payload(crng, n_tok)
            _, old = _payload(crng, n_tok, new)
            _, ref = _payload(crng, n_tok, new)
            row = {
                "crux_text": text,
                "code_text": code_text,
                "logprobs_new": {"tokens": tokens, "logprobs": new},
                "logprobs_old": {"tokens": tokens, "logprobs": old},
                "logprobs_ref": {"tokens": tokens, "logprobs": ref},
            }
            if i % 2 == 0:
                s_tokens, s_lps = _payload(crng, RL_SCORE_TOKENS[(i // 2) % len(RL_SCORE_TOKENS)])
                row["crux_score"] = {"tokens": s_tokens, "logprobs": s_lps}
                crux_r = math.exp(math.fsum(s_lps) / len(s_lps))
            else:
                mock_calls += 1
                if mock_calls == 1:
                    crux_r = 0.0  # scripted failures outlast the retries
                else:
                    lps = [RL_LOGPROB_TABLE.get(w, RL_DEFAULT_LOGPROB) for w in ref_words]
                    crux_r = math.exp(math.fsum(lps) / len(lps))
            parts = (RL_FORMAT[ckind], 1.0 if compiled else 0.0, crux_r, fraction)
            expected_rollouts.append({
                "task_id": task_id, "index": i,
                "format_r": parts[0], "compile_r": parts[1], "crux_r": parts[2], "code_r": parts[3],
                "mixed": math.fsum(w * p for w, p in zip(weights, parts)),
            })
            rollouts.append(row)
        groups.append({"task_id": task_id, "step": step, "rollouts": rollouts})
    _write_jsonl(os.path.join(out, "tasks.jsonl"), tasks)
    _write_jsonl(os.path.join(out, "groups.jsonl"), groups)
    return {
        "ops": len(expected_rollouts),
        "rollouts": expected_rollouts,
        "sim_calls": len(sim_keys),
        "sim_distinct": len(set(sim_keys)),
    }


# --- no-sim -------------------------------------------------------------------

# (kind, share of pairs); normal_ok takes the rounding remainder
NO_SIM_MIX = (
    ("easy_ok", 0.27), ("easy_badheader", 0.03),
    ("normal_ok", 0.36), ("normal_malformed", 0.05), ("normal_nokey", 0.04),
    ("normal_missing", 0.03), ("normal_badheader", 0.02),
    ("special_ok", 0.14), ("special_invalid", 0.02), ("special_malformed", 0.02),
    ("special_badheader", 0.02),
)
NO_SIM_RECORD_KINDS = ("easy_ok", "normal_ok", "special_ok")
CATEGORY = {"easy": "EasyQuestion", "normal": "NormalData", "special": "SpecialNonText"}

# Fixed-size rule table: a mock scanning per-task rules would measure itself.
NO_SIM_MOCK = {
    "completions": [
        {"match": "careful hardware reviewer", "texts": ["valid"]},
        {"match": "Next State", "texts": [
            "## Module Interface\n\n```verilog\nmodule derived (\n    input clk,\n    output reg q\n);\n```\n\n"
            "## Core Functions\n\nState transitions (State → Condition → Next State):\nS0 → x=1 → S1\nS1 → x=0 → S0\n\n"
            "## Key Considerations\n\n- Reset returns the machine to S0\n"]},
        {"match": "three markdown sections", "texts": [
            "## Module Interface\n\n```verilog\nmodule derived (\n    input clk,\n    output reg q\n);\n```\n\n"
            "## Core Functions\n\n- Registers the input on each clock edge\n\n"
            "## Key Considerations\n\n- The output holds between edges\n"]},
    ],
    "default_completions": ["valid"],
}


def _description(rng: random.Random, special: bool) -> str:
    paras = [paragraph(rng, rng.randint(1, 4)) for _ in range(rng.randint(1, 3))]
    if special:
        phrase = rng.choice(DIAGRAM_PHRASES)
        paras.insert(rng.randrange(len(paras) + 1), f"The behaviour is given as a {phrase} in the figure.")
    text = "\n\n".join(paras)
    if not special and any(k in text.lower() for k in DIAGRAM_KEYWORDS):
        raise AssertionError("generator produced a diagram keyword in a plain description")
    return text


def no_sim_batch(out: str, seed: int, batch: int, size: str) -> dict:
    total = SIZES[size]["no_sim_pairs"]
    kinds: list[str] = []
    for kind, share in NO_SIM_MIX:
        if kind != "normal_ok":
            kinds += [kind] * round(share * total)
    kinds += ["normal_ok"] * (total - len(kinds))
    rng_for("no-sim-order", seed, batch).shuffle(kinds)
    pairs, verdicts, transcripts = [], [], []
    categories, records, reclassified, derive_stages = {}, [], [], {}
    for i, kind in enumerate(kinds):
        rng = rng_for("no-sim", seed, batch, i)
        group = kind.split("_")[0]
        name = module_name(rng, f"b{batch}n{i}")
        pid = f"{name}_{i:05d}"
        ports = make_ports(rng)
        params = make_params(rng)
        if kind.endswith("badheader"):
            header = bad_header(name, ports, rng)
        else:
            header = ansi_header(name, params, ports, rng)
        body = [header] + [f"    // {sentence(rng)}" for _ in range(rng.randint(1, 4))] + ["endmodule", ""]
        pairs.append({"id": pid, "description": _description(rng, group == "special"),
                      "reference_code": "\n".join(body)})
        verdicts.append({"id": pid, "passed": group == "easy"})
        categories[pid] = CATEGORY[group]
        canonical = canonical_header(name, params, ports)
        if group == "normal":
            derive_stages[pid] = ["extract"]
            if kind != "normal_missing":
                ckind = {"normal_malformed": "missing_key", "normal_nokey": "empty_key"}.get(kind, "good")
                transcripts.append({"id": pid, "stage": "extract", "text": crux_text(ckind, canonical, rng)})
        elif group == "special":
            derive_stages[pid] = ["circuit_parse", "validate"]
            ckind = "unparsable" if kind == "special_malformed" else "good"
            ckind = "no_headings" if ckind == "unparsable" and rng.random() < 0.5 else ckind
            transcripts.append({"id": pid, "stage": "circuit_parse",
                                "text": crux_text(ckind, canonical, rng, diagram=True)})
            transcripts.append({"id": pid, "stage": "validate",
                                "text": "invalid" if kind == "special_invalid" else "valid"})
        (records if kind in NO_SIM_RECORD_KINDS else reclassified).append(pid)
    _write_jsonl(os.path.join(out, "pairs.jsonl"), pairs)
    _write_jsonl(os.path.join(out, "verdicts.jsonl"), verdicts)
    _write_jsonl(os.path.join(out, "transcripts.jsonl"), transcripts)
    instances = SIZES[size]["grpo_instances"]
    return {
        "ops": total,
        # grpo-check runs after build-dataset on toy instances seeded from here
        "instances": instances,
        "grpo_seed": seed * 1_000_003 + batch * instances,
        "categories": categories,
        "records": records,
        "reclassified": reclassified,
        "derive_stages": derive_stages,
        "sim_calls": 0,
        "sim_distinct": 0,
    }


BATCH_MAKERS = {
    "eval-sweep": eval_batch,
    "rl-groups": rl_batch,
    "no-sim": no_sim_batch,
}


def make_batch(workload: str, seed: int, batch: int, out: str, size: str = "full") -> dict:
    """Write batch ``batch`` of ``workload`` under ``out`` and return its
    expectations (also written to ``out/expected.json``)."""
    os.makedirs(out, exist_ok=True)
    expected = BATCH_MAKERS[workload](out, seed, batch, size)
    _write_json(os.path.join(out, "expected.json"), expected)
    return expected


def write_run_files(workload: str, seed: int, out: str, src: str, workers: int) -> dict:
    """Config, toolchain and provider files shared by every batch of a run.

    Returns the paths (None where the workload needs no such file)."""
    os.makedirs(out, exist_ok=True)
    config = {"seed": seed}
    toolchain = provider = None
    if workload == "eval-sweep":
        config.update(timeout_ms=EVAL_TIMEOUT_MS, k_values=list(EVAL_K))
    if workload == "rl-groups":
        config.update(grpo={"beta": GRPO_BETA}, schedule={"steps_per_epoch": STEPS_PER_EPOCH})
        provider = {
            "kind": "mock", "max_retries": RL_MAX_RETRIES, "backoff_s": 0.002,
            "mock": {"fail_first": RL_FAIL_FIRST, "default_logprob": RL_DEFAULT_LOGPROB,
                     "logprob_table": RL_LOGPROB_TABLE},
        }
    if workload == "no-sim":
        config.update(grpo={"beta": GRPO_BETA})
        provider = {"kind": "mock", "mock": NO_SIM_MOCK}
    if workload in ("eval-sweep", "rl-groups"):
        py = shlex.quote(sys.executable)
        toolchain = {
            "compile_cmd": f"{py} -m cruxkit.echosim compile {{out}} {{design}} {{tb}}",
            "run_cmd": f"{py} -m cruxkit.echosim run {{out}}",
            # echo sims run in a scratch cwd; an absolute path lets them import cruxkit
            "env": {"PYTHONPATH": src},
            "workers": workers,
        }
    paths = {}
    for label, obj in (("config", config), ("toolchain", toolchain), ("provider", provider)):
        paths[label] = None
        if obj is not None:
            paths[label] = os.path.join(out, f"{label}.json")
            _write_json(paths[label], obj)
    return paths
