"""The CRUX intermediate representation: a three-section structured summary.

A CRUX document has a Module Interface (a Verilog header block), Core
Functions (what the circuit does), and Key Considerations (constraints and
edge cases). ``render_crux`` emits the canonical markdown form;
``parse_crux`` is total and tolerant of the formatting drift seen in model
output (heading case, missing fences, singular section names).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import takewhile

from .interface import (
    HeaderError,
    ModuleInterface,
    parse_module_header,
    render_interface,
)

SECTION_INTERFACE = "module_interface"
SECTION_CORE = "core_functions"
SECTION_KEY = "key_considerations"
ALL_SECTIONS = frozenset({SECTION_INTERFACE, SECTION_CORE, SECTION_KEY})

_HEADING_RE = re.compile(r"^ {0,3}(#{1,6})\s+(.*?)\s*#*\s*$")
_FENCE_RE = re.compile(r"^ {0,3}```")

_SECTION_NAMES = {
    "module interface": SECTION_INTERFACE,
    "module interfaces": SECTION_INTERFACE,
    "interface": SECTION_INTERFACE,
    "core function": SECTION_CORE,
    "core functions": SECTION_CORE,
    "key consideration": SECTION_KEY,
    "key considerations": SECTION_KEY,
}


# whitespace beside a line break: a blank line, or a line left unstripped
_UNSTRIPPED_LINE_RE = re.compile(r"\s\n|\n\s")


def _validate_block(block: str, label: str) -> None:
    # each check reads the block whole; a line's start is the block's start
    # or a line break
    multi = "\n" in block
    if not block or block != block.strip() or (multi and _UNSTRIPPED_LINE_RE.search(block)):
        raise ValueError(
            f"{label} block lines must be individually stripped and nonempty: {block!r}"
        )
    if block.startswith("#") or (multi and "\n#" in block):
        raise ValueError(f"{label} block lines must not look like headings: {block!r}")
    # the lines are stripped, so a fence opens at a line's first character
    if block.startswith("```") or (multi and "\n```" in block):
        raise ValueError(f"{label} block lines must not open code fences: {block!r}")
    if multi and all(ln.startswith("- ") for ln in block.split("\n")):
        raise ValueError(
            f"{label} multi-line block reads as a bullet list; pass items separately"
        )


@dataclass(frozen=True)
class CruxDoc:
    """A validated CRUX document.

    Blocks are stripped text with no blank interior lines; a block renders as
    one bullet when single-line, verbatim paragraph otherwise. Core Functions
    is never empty. Key Considerations may be empty (task records couple that
    to how the source task was categorized).
    """

    interface: ModuleInterface
    core_functions: tuple[str, ...]
    key_considerations: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.core_functions:
            raise ValueError("core_functions must be nonempty")
        for block in self.core_functions:
            _validate_block(block, "core_functions")
        for block in self.key_considerations:
            _validate_block(block, "key_considerations")


def _render_blocks(blocks: tuple[str, ...]) -> list[str]:
    """Single-line blocks become consecutive bullets; multi-line blocks are
    verbatim paragraphs set off by blank lines."""
    lines: list[str] = []
    prev_bullet = False
    for block in blocks:
        multi = "\n" in block
        if lines and (multi or not prev_bullet):
            lines.append("")
        lines.append(block if multi else f"- {block}")
        prev_bullet = not multi
    return lines


def render_crux(doc: CruxDoc) -> str:
    """Canonical markdown rendering; byte-identical for equal documents."""
    lines = [
        "## Module Interface",
        "",
        "```verilog",
        render_interface(doc.interface),
        "```",
        "",
        "## Core Functions",
        "",
    ]
    body = _render_blocks(doc.core_functions)
    lines.extend(body)
    if body:
        lines.append("")
    lines.append("## Key Considerations")
    body = _render_blocks(doc.key_considerations)
    if body:
        lines.append("")
        lines.extend(body)
    return "\n".join(lines) + "\n"


@dataclass
class CruxParseReport:
    """Outcome of parsing candidate text as a CRUX document.

    ``doc`` is present only when all three sections were found, the interface
    parsed, and Core Functions is nonempty. ``interface`` is the parsed
    header whenever one could be extracted, even if ``doc`` is absent.
    ``errors`` says why ``doc`` is absent: missing sections, the interface's
    header error, an empty Core Functions, an invalid document, in that order.
    """

    doc: CruxDoc | None
    sections_found: frozenset[str]
    errors: list[str] = field(default_factory=list)
    interface: ModuleInterface | None = None
    core_functions_nonempty: bool = False


def _blocks_from_body(lines: list[str]) -> list[str]:
    """Split section body lines into blocks on blank lines.

    A chunk whose every line starts with "- " is a bullet list: one block per
    item. Any other chunk is a single verbatim block.
    """
    blocks: list[str] = []
    chunk: list[str] = []

    def flush() -> None:
        if not chunk:
            return
        if all(ln.startswith("- ") for ln in chunk):
            blocks.extend(ln[2:].strip() for ln in chunk)
        else:
            blocks.append("\n".join(chunk))
        chunk.clear()

    for raw in lines:
        line = raw.strip()
        if not line:
            flush()
        else:
            chunk.append(line)
    flush()
    return [b for b in blocks if b]


def _extract_interface_text(lines: list[str]) -> str:
    """The interface section's text to parse: its first fenced block, or the
    whole section when it has no fence."""
    for idx, raw in enumerate(lines):
        if _FENCE_RE.match(raw):
            return "\n".join(takewhile(lambda line: not _FENCE_RE.match(line), lines[idx + 1 :]))
    return "\n".join(lines)


def parse_crux(text: str) -> CruxParseReport:
    """Parse ``text`` as a CRUX document. Total: never raises.

    Content before the first heading and under an unknown heading is ignored;
    a repeated section heading reads on into the same section."""
    sections: dict[str, list[str]] = {}
    # the lines of the section being read; None before the first heading,
    # and under an unknown heading
    body: list[str] | None = None
    in_fence = False
    for raw in text.split("\n"):
        # only a line starting with '#' or '`' after its indent can be either
        if raw.lstrip(" ")[:1] in ("#", "`"):
            if _FENCE_RE.match(raw):
                in_fence = not in_fence
            heading = None if in_fence else _HEADING_RE.match(raw)
            if heading is not None:
                section = _SECTION_NAMES.get(heading.group(2).strip().lower())
                body = None if section is None else sections.setdefault(section, [])
                continue
        if body is not None:
            body.append(raw)

    found = frozenset(sections)
    errors = [f"missing section: {missing}" for missing in sorted(ALL_SECTIONS - found)]

    interface: ModuleInterface | None = None
    if SECTION_INTERFACE in sections:
        try:
            interface = parse_module_header(_extract_interface_text(sections[SECTION_INTERFACE]))
        except HeaderError as exc:
            errors.append(f"interface: {exc}")

    core = _blocks_from_body(sections.get(SECTION_CORE, []))
    key = _blocks_from_body(sections.get(SECTION_KEY, []))
    if SECTION_CORE in sections and not core:
        errors.append("Core Functions section is empty")

    doc: CruxDoc | None = None
    if found == ALL_SECTIONS and interface is not None and core:
        try:
            doc = CruxDoc(interface, tuple(core), tuple(key))
        except ValueError as exc:
            errors.append(f"invalid document: {exc}")
    return CruxParseReport(
        doc=doc,
        sections_found=found,
        errors=errors,
        interface=interface,
        core_functions_nonempty=bool(core),
    )


@dataclass(frozen=True)
class Mismatch:
    kind: str  # module_name | missing_port | extra_port | direction | width
    name: str
    expected: str
    got: str


def interface_mismatches(got: ModuleInterface, want: ModuleInterface) -> list[Mismatch]:
    """Differences between a candidate interface and the reference, port order
    ignored. Empty list means exact agreement."""
    out: list[Mismatch] = []
    if got.module_name != want.module_name:
        out.append(Mismatch("module_name", want.module_name, want.module_name, got.module_name))
    got_ports = {p.name: p for p in got.ports}
    want_ports = {p.name: p for p in want.ports}
    for name in sorted(want_ports.keys() - got_ports.keys()):
        out.append(Mismatch("missing_port", name, name, ""))
    for name in sorted(got_ports.keys() - want_ports.keys()):
        out.append(Mismatch("extra_port", name, "", name))
    for name in sorted(got_ports.keys() & want_ports.keys()):
        g, w = got_ports[name], want_ports[name]
        if g.direction != w.direction:
            out.append(Mismatch("direction", name, w.direction.value, g.direction.value))
        if g.width_bits != w.width_bits:
            out.append(Mismatch("width", name, str(w.width_bits), str(g.width_bits)))
    return out

