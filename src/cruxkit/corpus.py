"""Corpus construction: categorize raw pairs, build RealSpecs, assemble records.

A raw (description, reference code) pair is categorized by a probe: tasks a
small model already solves are Easy Questions; failures whose description
mentions diagram-ish vocabulary (K-maps, FSMs, waveforms, ...) are Special
Non-Text; the rest are Normal Data. Each category has its own CRUX
derivation route and its own RealSpec (degraded task text) construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from random import Random

from .cruxdoc import CruxDoc, CruxParseReport, render_crux
from .interface import DegradedInterface, ModuleInterface, render_degraded_interface
from .jsonl import check


class Category(str, Enum):
    EASY_QUESTION = "EasyQuestion"
    SPECIAL_NON_TEXT = "SpecialNonText"
    NORMAL_DATA = "NormalData"


class MissingDiagram(ValueError):
    """SpecialNonText RealSpec requested without diagram text."""


class UnsupportedCategory(ValueError):
    """Operation not defined for this category."""


DEFAULT_KEYWORDS = frozenset(
    {
        "k-map",
        "kmap",
        "karnaugh",
        "fsm",
        "state machine",
        "waveform",
        "sequential",
        "truth table",
    }
)


@dataclass(frozen=True)
class RawPair:
    """A source corpus row: task id, prose description, reference Verilog."""

    id: str
    description: str
    reference_code: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("id must be nonempty")
        if not self.description.strip():
            raise ValueError("description must be nonempty")
        if not self.reference_code.strip():
            raise ValueError("reference_code must be nonempty")


def categorize(
    pair: RawPair,
    probe_passed: bool,
    keyword_set: frozenset[str] | None = None,
) -> Category:
    """Assign a category from a probe verdict and the description text.

    Keyword matching is case-insensitive substring search.
    """
    if probe_passed:
        return Category.EASY_QUESTION
    keywords = DEFAULT_KEYWORDS if keyword_set is None else keyword_set
    lowered = pair.description.lower()
    if any(kw.lower() in lowered for kw in keywords):
        return Category.SPECIAL_NON_TEXT
    return Category.NORMAL_DATA


DEFAULT_PREFIXES = (
    "Please act as a professional Verilog designer.",
    "I need a Verilog module for the following task.",
    "Can you write synthesizable Verilog for this design?",
)

DEFAULT_SUFFIXES = (
    "Give me the complete code.",
    "Provide the full module implementation.",
    "Write the complete Verilog module.",
)

# 24k of 165k corpus rows place the interface mid-description.
P_MIDDLE_INSERT_DEFAULT = 24.0 / 165.0


@dataclass(frozen=True)
class AugmentationPolicy:
    """Knobs for turning a description plus degraded interface into a RealSpec."""

    p_middle_insert: float = P_MIDDLE_INSERT_DEFAULT
    prefix_pool: tuple[str, ...] = DEFAULT_PREFIXES
    suffix_pool: tuple[str, ...] = DEFAULT_SUFFIXES
    p_prefix: float = 0.5
    p_suffix: float = 0.5

    def __post_init__(self) -> None:
        check("augmentation", None, vars(self))


def _split_paragraphs(text: str) -> list[str]:
    return [p for p in re.split(r"\n\s*\n", text.strip()) if p.strip()]


def _insert_mid(paragraphs: list[str], block: str) -> str:
    """Insert ``block`` at the paragraph boundary nearest the text midpoint.

    With fewer than two paragraphs there is no interior boundary; the block
    is appended instead.
    """
    if len(paragraphs) < 2:
        return "\n\n".join(paragraphs + [block])
    total = sum(len(p) for p in paragraphs)
    midpoint = total / 2.0
    best_idx, best_dist = 1, float("inf")
    offset = 0
    for i, para in enumerate(paragraphs[:-1]):
        offset += len(para)
        dist = abs(offset - midpoint)
        if dist < best_dist:
            best_idx, best_dist = i + 1, dist
    return "\n\n".join(paragraphs[:best_idx] + [block] + paragraphs[best_idx:])


def build_realspec(
    pair: RawPair,
    category: Category,
    degraded: DegradedInterface,
    aug: AugmentationPolicy = AugmentationPolicy(),
    rng_seed: int = 0,
    diagram_blocks: tuple[str, ...] | None = None,
) -> str:
    """Compose the degraded task text a policy model will be trained on.

    Draw order under ``rng_seed``: middle-insert coin, prefix coin, prefix
    choice, suffix coin, suffix choice. SpecialNonText replaces the prose
    description with ``diagram_blocks`` and always appends the interface at
    the end (no middle-insert coin is drawn for it).
    """
    rng = Random(rng_seed)
    iface_block = render_degraded_interface(degraded)
    if category is Category.SPECIAL_NON_TEXT:
        if not diagram_blocks:
            raise MissingDiagram(f"task {pair.id}: SpecialNonText needs diagram text")
        body = "\n\n".join(list(diagram_blocks) + [iface_block])
    else:
        paragraphs = _split_paragraphs(pair.description)
        if rng.random() < aug.p_middle_insert:
            body = _insert_mid(paragraphs, iface_block)
        else:
            body = "\n\n".join(paragraphs + [iface_block])
    if aug.prefix_pool and rng.random() < aug.p_prefix:
        body = rng.choice(aug.prefix_pool) + "\n\n" + body
    if aug.suffix_pool and rng.random() < aug.p_suffix:
        body = body + "\n\n" + rng.choice(aug.suffix_pool)
    return body


_EXTRACT_TEMPLATE = """\
You are given a hardware task description and its reference Verilog
implementation. Summarize the design as a structured document with exactly
these three markdown sections:

## Module Interface
A fenced Verilog block containing only the module header (name, parameters,
ANSI port list), matching the reference code exactly.

## Core Functions
Bullet points stating what the circuit does: the computation, the triggering
edges, reset values, and output behavior.

## Key Considerations
Bullet points for constraints and edge cases: timing, bit widths, overflow,
initial values, and anything easy to get wrong.

Task description:
{description}

Reference implementation:
```verilog
{reference_code}
```
"""

_CIRCUIT_PARSE_TEMPLATE = """\
You are given a hardware task description and its reference Verilog
implementation. The task involves non-textual structure (state machines,
Karnaugh maps, waveforms, or truth tables). Convert that structure into
text and summarize the design with exactly these three markdown sections:

## Module Interface
A fenced Verilog block containing only the module header (name, parameters,
ANSI port list), matching the reference code exactly.

## Core Functions
For state machines, list every transition as diagram rows in the form
State → Condition → Next State, one row per line, then describe outputs.
For K-maps, give the equivalent logical expressions. For waveforms or truth
tables, describe the cycle-by-cycle or row-by-row behavior.

## Key Considerations
Bullet points for reset behavior, encoding choices, timing, and edge cases.

Task description:
{description}

Reference implementation:
```verilog
{reference_code}
```
"""

_VALIDATE_TEMPLATE = """\
You are a careful hardware reviewer. Below is a structured summary derived
from a Verilog design, followed by the reference implementation. Check that
every transition, expression, and behavior in the summary is consistent
with the code. Answer with the single word "valid" or "invalid".

Summary:
{derived}

Reference implementation:
```verilog
{reference_code}
```
"""


def make_crux_derivation_prompt(pair: RawPair, category: Category) -> dict:
    """The prompt bundle row that derives a CRUX document for a pair, as
    ``derive-crux`` writes it and ``derive-crux --live`` runs it:
    ``{"task_id", "prompts": [{"stage", "text"}, ...]}``.

    NormalData gets one ``extract`` prompt; SpecialNonText gets a
    ``circuit_parse`` prompt plus a ``validate`` prompt (its ``{derived}``
    slot is filled with the circuit parser's transcript at run time). Easy
    Questions never need a model, so asking for their prompts is an error.
    """
    if category is Category.EASY_QUESTION:
        raise UnsupportedCategory("EasyQuestion derives its CRUX without a model")
    if category is Category.NORMAL_DATA:
        templates = {"extract": _EXTRACT_TEMPLATE}
    else:
        templates = {"circuit_parse": _CIRCUIT_PARSE_TEMPLATE, "validate": _VALIDATE_TEMPLATE}
    # each template fills the slots it has; validate's {derived} stays a slot
    slots = {"description": pair.description, "reference_code": pair.reference_code,
             "derived": "{derived}"}
    return {"task_id": pair.id, "prompts": [{"stage": stage, "text": template.format(**slots)}
                                            for stage, template in templates.items()]}


@dataclass(frozen=True)
class Reclassification:
    """A task bounced back to NormalData for re-derivation."""

    task_id: str
    reason: str


def _easy_crux(pair: RawPair, iface: ModuleInterface) -> CruxDoc:
    blocks = []
    for para in _split_paragraphs(pair.description):
        lines = [ln.strip() for ln in para.split("\n") if ln.strip()]
        blocks.append("\n".join(lines))
    return CruxDoc(iface, tuple(blocks), ())


def assemble_record(
    pair: RawPair,
    category: Category,
    realspec: str,
    reference_iface: ModuleInterface,
    crux: CruxParseReport | None = None,
    validation_verdict: str | None = None,
    provenance: dict | None = None,
) -> dict | Reclassification:
    """The record row ``build-dataset`` writes for a pair, or a bounce for
    re-derivation.

    Easy Questions adopt ``reference_iface`` and the description as their
    CRUX and leave Key Considerations empty. Other categories take the parsed
    transcript ``crux``; a missing one, failed SpecialNonText validation,
    parse errors and empty Key Considerations all reclassify to NormalData
    instead of emitting a record.
    """
    if category is Category.EASY_QUESTION:
        doc = _easy_crux(pair, reference_iface)
    elif crux is None:
        return Reclassification(pair.id, "no CRUX transcript")
    elif category is Category.SPECIAL_NON_TEXT and (validation_verdict or "").strip().lower() != "valid":
        return Reclassification(pair.id, f"validation verdict: {validation_verdict!r}")
    elif crux.doc is None:
        return Reclassification(pair.id, crux.errors[0] if crux.errors else "unparsable CRUX text")
    elif not crux.doc.key_considerations:
        return Reclassification(pair.id, "Key Considerations empty for non-easy task")
    else:
        doc = crux.doc
    return {"id": pair.id, "category": category.value, "realspec": realspec,
            "crux": render_crux(doc), "reference_code": pair.reference_code,
            "provenance": {"source_id": pair.id, **(provenance or {})}}


_FENCED_CODE_RE = re.compile(r"```(?:[Vv]erilog|systemverilog|sv)?\s*\n(.*?)```", re.S)


def extract_verilog(text: str) -> str | None:
    """Pull Verilog source out of a model completion.

    Prefers the first fenced code block containing a module; falls back to
    the first ``module``..``endmodule`` span in raw text.
    """
    for m in _FENCED_CODE_RE.finditer(text):
        block = m.group(1)
        if re.search(r"\bmodule\b", block):
            return block.strip()
    m = re.search(r"\bmodule\b.*?\bendmodule\b", text, re.S)
    if m:
        return m.group(0)
    return None


def probe_verdict_from_outcomes(match_fractions: list[float], threshold: float = 1.0) -> bool:
    """A probe passes when any attempt meets the correctness threshold."""
    return any(f >= threshold for f in match_fractions)


def diagram_blocks_for_realspec(doc: CruxDoc) -> tuple[str, ...]:
    """Blocks that replace a SpecialNonText description: the derived Core
    Functions (which carry the textualized diagrams)."""
    return doc.core_functions
