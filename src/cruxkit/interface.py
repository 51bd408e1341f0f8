"""Verilog module-header parsing, rendering, and interface degradation.

Only ANSI-style headers (``module name #(params) (ports);``) are handled.
Bodies, expressions, generate blocks and the rest of the language are out
of scope; anything beyond the supported header subset raises a typed error
instead of guessing.

Comments are read left to right, as a lexer would: whichever of ``//`` and
``/*`` opens first wins, so a ``/*`` inside a line comment opens nothing.
The scanners step from delimiter to delimiter with compiled patterns and
string methods, never one character at a time.

A port list is read once, by one reader, from its first entry to its last.
While the entries have the common shape (a direction, net words, a constant
range and one name, or a bare name that continues the previous declaration),
one compiled pattern reads each with the comma after it, and ``PortSpec``
checks its facts. At the first entry the pattern cannot read, or whose facts
fail a check, the reader hands over: it splits the rest of the list at its
top-level commas and classifies each remaining entry token by token, still
continuing the previous declaration. Every error about an entry comes from
that second part. The entries read before the hand-over hold no bracket but a
constant range, so the rest starts outside any nesting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from random import Random

from .jsonl import check


class HeaderError(ValueError):
    """Base class for module-header parsing failures."""


class NoModuleFound(HeaderError):
    """No module declaration (or no module with the requested name)."""


class MalformedHeader(HeaderError):
    """A header was found but is structurally broken."""


class UnsupportedSyntax(HeaderError):
    """Legal-looking Verilog outside the supported ANSI header subset."""


class Direction(str, Enum):
    INPUT = "input"
    OUTPUT = "output"
    INOUT = "inout"


_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")
_RANGE_RE = re.compile(r"^\[\s*([+-]?\d+)\s*:\s*([+-]?\d+)\s*\]$")

# Words that may appear in a header but can never be a port/module name.
VERILOG_KEYWORDS = frozenset(
    {
        "module", "endmodule", "input", "output", "inout", "parameter",
        "localparam", "wire", "reg", "logic", "tri", "wand", "wor",
        "signed", "unsigned", "integer", "real", "time", "realtime",
        "supply0", "supply1", "genvar", "begin", "end",
    }
)

_NET_WORDS = frozenset({"wire", "logic", "tri", "wand", "wor", "signed", "unsigned"})


def _valid_identifier(name: str) -> bool:
    return bool(_IDENTIFIER_RE.match(name)) and name not in VERILOG_KEYWORDS


@lru_cache(maxsize=1024)
def range_width(range_text: str) -> int:
    """Width in bits of a numeric ``[H:L]`` range. Raises on anything else."""
    m = _RANGE_RE.match(range_text.strip())
    if not m:
        raise UnsupportedSyntax(f"non-constant range not supported: {range_text!r}")
    high, low = int(m.group(1)), int(m.group(2))
    return abs(high - low) + 1


@dataclass(frozen=True)
class PortSpec:
    """One port of a module header.

    ``width_bits`` is not given: it is read off ``range_text``, and is 1
    without a range. ``range_text`` keeps the range as written, whitespace
    removed, for faithful re-rendering; it is left out of equality, so ports
    of one width compare equal however their ranges are spelled.
    """

    name: str
    direction: Direction
    is_reg: bool = False
    range_text: str = field(default="", compare=False)
    width_bits: int = field(init=False)

    def __post_init__(self) -> None:
        if not _valid_identifier(self.name):
            raise ValueError(f"illegal port name: {self.name!r}")
        object.__setattr__(
            self, "width_bits", range_width(self.range_text) if self.range_text else 1
        )
        if self.is_reg and self.direction is Direction.INPUT:
            raise ValueError("input ports cannot be reg")


@dataclass(frozen=True)
class ModuleInterface:
    """Parsed ANSI module header: name, raw-text parameters, ports."""

    module_name: str
    parameters: tuple[tuple[str, str], ...] = ()
    ports: tuple[PortSpec, ...] = ()

    def __post_init__(self) -> None:
        if not _valid_identifier(self.module_name):
            raise ValueError(f"illegal module name: {self.module_name!r}")
        port_names = {p.name for p in self.ports}
        if len(port_names) != len(self.ports):
            raise ValueError("duplicate port names")
        param_names = {n for n, _ in self.parameters}
        if len(param_names) != len(self.parameters):
            raise ValueError("duplicate parameter names")
        if not param_names.isdisjoint(port_names):
            raise ValueError("parameter name collides with port name")

    def port(self, name: str) -> PortSpec:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(name)


# One left-to-right pass over both comment kinds, like a lexer: whichever
# opens first wins, so a `/*` inside a `//` comment opens nothing.
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)
# [^)] keeps this from swallowing `@(*)` sensitivity lists in bodies
_ATTRIBUTE_RE = re.compile(r"\(\*[^)]*\*\)")
_NOT_NEWLINE_RE = re.compile(r"[^\n]")


def _blank(m: re.Match[str]) -> str:
    found = m.group()
    if "\n" in found:
        return _NOT_NEWLINE_RE.sub(" ", found)
    return " " * len(found)


def strip_comments_and_attributes(text: str) -> str:
    """Blank out //, /* */ comments and (* ... *) attributes.

    Replacement preserves newlines so later diagnostics could map offsets.
    """
    return _ATTRIBUTE_RE.sub(_blank, _COMMENT_RE.sub(_blank, text))


def _balanced_parens(text: str, start: int) -> tuple[str, int]:
    """Return (inner text, index just past the closing paren); text[start] == '('."""
    # the parens close at the first ')' that leaves as many '(' as ')' behind it
    opens = closes = 0
    pos = start
    while (close := text.find(")", pos)) >= 0:
        opens += text.count("(", pos, close)
        closes += 1
        if opens == closes:
            return text[start + 1 : close], close + 1
        pos = close + 1
    raise MalformedHeader("unbalanced parentheses in module header")


_NESTING_RE = re.compile(r"[()\[\]{},]")
_DEPTH_STEP = {"(": 1, "[": 1, "{": 1, ")": -1, "]": -1, "}": -1}


def _split_top_level(text: str) -> list[str]:
    """Split on commas not nested in (), [] or {}."""
    chunks, depth, last = [], 0, 0
    for m in _NESTING_RE.finditer(text):
        ch = m.group()
        if ch != ",":
            depth += _DEPTH_STEP[ch]
        elif depth == 0:
            chunks.append(text[last : m.start()])
            last = m.end()
    chunks.append(text[last:])
    return chunks


def _parse_parameters(text: str) -> tuple[tuple[str, str], ...]:
    params: list[tuple[str, str]] = []
    for chunk in _split_top_level(text):
        chunk = chunk.strip()
        if not chunk:
            raise MalformedHeader("empty parameter entry")
        if "=" not in chunk:
            raise MalformedHeader(f"parameter without default: {chunk!r}")
        left, default = chunk.split("=", 1)
        words = left.split()
        if not words:
            raise MalformedHeader(f"cannot parse parameter: {chunk!r}")
        name = words[-1]
        if not _valid_identifier(name):
            raise MalformedHeader(f"illegal parameter name: {name!r}")
        params.append((name, default.strip()))
    return tuple(params)


_PORT_TOKEN_RE = re.compile(r"\[[^\[\]]*\]|[A-Za-z_$][A-Za-z0-9_$]*|\S")
_DIRECTIONS = {d.value: d for d in Direction}
# One declaration of the common shape and the comma or end after it: a
# direction, net words, a constant range and a name, or a bare name. A word
# must not run on into an identifier character, and the name must end at
# the separator, so each word is the token a hand-over would read.
_PORT_DECL_RE = re.compile(
    r"\s*(?:(input|output|inout)(?![\w$])"
    r"((?:\s+(?:wire|reg|logic|tri|wand|wor|signed|unsigned)(?![\w$]))*)"
    r"\s*(\[\s*[+-]?\d+\s*:\s*[+-]?\d+\s*\])?\s*)?"
    r"([A-Za-z_][A-Za-z0-9_$]*)\s*(,|\Z)"
)


def _parse_ports(text: str) -> tuple[PortSpec, ...]:
    """The ports of a port list, or the error that names its first bad entry.

    Entries of the common shape are read one declaration at a time; from the
    first other entry on, the rest of the list is split at its top-level
    commas and each entry is classified token by token."""
    ports: list[PortSpec] = []
    prev: PortSpec | None = None
    pos = 0
    while m := _PORT_DECL_RE.match(text, pos):
        direction, words, range_text, name, comma = m.groups()
        try:
            if direction is not None:
                # no net word contains "reg", so this finds the word itself
                port = PortSpec(name, _DIRECTIONS[direction], "reg" in words,
                                "".join(range_text.split()) if range_text else "")
            elif prev is not None:
                port = PortSpec(name, prev.direction, prev.is_reg, prev.range_text)
            else:
                break
        except ValueError:
            # a keyword for a name, or an input reg: the tokens below say which
            break
        ports.append(port)
        if not comma:
            return tuple(ports)
        prev = port
        pos = m.end()
    for chunk in _split_top_level(text[pos:]):
        chunk = chunk.strip()
        if not chunk:
            raise MalformedHeader("empty port entry")
        tokens = _PORT_TOKEN_RE.findall(chunk)
        direction: Direction | None = None
        is_reg = False
        range_text = ""
        name: str | None = None
        for tok in tokens:
            if tok in _DIRECTIONS:
                if direction is not None or name is not None:
                    raise MalformedHeader(f"cannot parse port: {chunk!r}")
                direction = _DIRECTIONS[tok]
            elif tok == "reg":
                is_reg = True
            elif tok in _NET_WORDS:
                continue
            elif tok.startswith("["):
                if name is not None:
                    raise UnsupportedSyntax(f"unpacked array port not supported: {chunk!r}")
                if range_text:
                    raise UnsupportedSyntax(f"multi-dimensional port not supported: {chunk!r}")
                range_text = "".join(tok.split())
            elif _valid_identifier(tok):
                if name is not None:
                    raise MalformedHeader(f"cannot parse port: {chunk!r}")
                name = tok
            else:
                raise MalformedHeader(f"unexpected token {tok!r} in port: {chunk!r}")
        if name is None:
            raise MalformedHeader(f"port entry has no name: {chunk!r}")
        if direction is None:
            if prev is None:
                raise UnsupportedSyntax(
                    "port list without directions (non-ANSI header not supported)"
                )
            # bare identifier continues the previous declaration
            direction = prev.direction
            if not range_text and not is_reg and len(tokens) == 1:
                is_reg = prev.is_reg
                range_text = prev.range_text
        if direction is Direction.INPUT and is_reg:
            raise MalformedHeader(f"input ports cannot be reg: {chunk!r}")
        # no other PortSpec check can fail here; it reads the width off the range
        port = PortSpec(name, direction, is_reg, range_text)
        ports.append(port)
        prev = port
    return tuple(ports)


_WS_RE = re.compile(r"\s*")


def _skip_ws(text: str, pos: int) -> int:
    # regex \s and str.isspace agree on every code point
    return _WS_RE.match(text, pos).end()


_MODULE_RE = re.compile(r"\bmodule\b")
_NAME_AT_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_$]*)")


def parse_module_header(source_text: str, module_name: str | None = None) -> ModuleInterface:
    """Parse the first ANSI module header in ``source_text``.

    With ``module_name`` given, parse that module instead of the first one.
    Raises NoModuleFound / MalformedHeader / UnsupportedSyntax.
    """
    text = strip_comments_and_attributes(source_text)
    found_any = False
    for m in _MODULE_RE.finditer(text):
        name_m = _NAME_AT_RE.match(text, m.end())
        if not name_m:
            raise MalformedHeader("module keyword without a name")
        name = name_m.group(1)
        found_any = True
        if module_name is not None and name != module_name:
            continue
        cursor = _skip_ws(text, name_m.end())
        params: tuple[tuple[str, str], ...] = ()
        if text.startswith("#", cursor):
            cursor = _skip_ws(text, cursor + 1)
            if not text.startswith("(", cursor):
                raise MalformedHeader("expected '(' after '#'")
            param_text, cursor = _balanced_parens(text, cursor)
            params = _parse_parameters(param_text)
            cursor = _skip_ws(text, cursor)
        if text.startswith(";", cursor):
            raise UnsupportedSyntax(
                f"module {name!r} has no header port list (non-ANSI style not supported)"
            )
        if not text.startswith("(", cursor):
            raise MalformedHeader(f"expected port list after module {name!r}")
        port_text, cursor = _balanced_parens(text, cursor)
        cursor = _skip_ws(text, cursor)
        if not text.startswith(";", cursor):
            raise MalformedHeader(f"missing ';' after module {name!r} header")
        ports = _parse_ports(port_text) if port_text.strip() else ()
        try:
            return ModuleInterface(name, params, ports)
        except ValueError as exc:
            raise MalformedHeader(str(exc)) from exc
    if module_name is not None and found_any:
        raise NoModuleFound(f"no module named {module_name!r}")
    raise NoModuleFound("no module declaration found")


def _port_decl(port: PortSpec) -> str:
    parts = [port.direction.value]
    if port.is_reg:
        parts.append("reg")
    if port.range_text:
        parts.append(port.range_text)
    parts.append(port.name)
    return " ".join(parts)


def render_interface(iface: ModuleInterface) -> str:
    """Render an interface as a Verilog header block; it re-parses to an
    equal interface (round-trip)."""
    lines = []
    if iface.parameters:
        lines.append(f"module {iface.module_name} #(")
        for i, (pname, default) in enumerate(iface.parameters):
            comma = "," if i < len(iface.parameters) - 1 else ""
            lines.append(f"    parameter {pname} = {default}{comma}")
        lines.append(")(")
    else:
        lines.append(f"module {iface.module_name} (")
    for i, port in enumerate(iface.ports):
        comma = "," if i < len(iface.ports) - 1 else ""
        lines.append(f"    {_port_decl(port)}{comma}")
    lines.append(");")
    return "\n".join(lines)


@dataclass(frozen=True)
class DegradationPolicy:
    """Probabilities controlling how much interface detail a task keeps."""

    p_full_retain: float = 0.2
    p_keep_element: float = 0.5

    def __post_init__(self) -> None:
        check("degradation", None, vars(self))


@dataclass(frozen=True)
class DegradedInterface:
    """A lossy view of an interface: some ports dropped, some facts elided.

    Each retained port is ``(port, shows_direction, shows_width)``, in
    declaration order. A retained port always shows its name, and an inout
    port always shows its direction. ``fully_retained`` marks interfaces
    kept wholesale: every port, with every fact shown.
    """

    source: ModuleInterface
    retained_ports: tuple[tuple[PortSpec, bool, bool], ...]
    fully_retained: bool

    def __post_init__(self) -> None:
        source_names = {p.name for p in self.source.ports}
        for port, shows_direction, _ in self.retained_ports:
            if port.name not in source_names:
                raise ValueError(f"retained port {port.name!r} not in source interface")
            if port.direction is Direction.INOUT and not shows_direction:
                raise ValueError("inout ports never lose their direction")
        if self.fully_retained:
            if len(self.retained_ports) != len(self.source.ports):
                raise ValueError("fully_retained requires every port present")
            if not all(d and w for _, d, w in self.retained_ports):
                raise ValueError("fully_retained requires every field kept")


def degrade_interface(
    iface: ModuleInterface,
    policy: DegradationPolicy = DegradationPolicy(),
    rng_seed: int = 0,
) -> DegradedInterface:
    """Deterministically degrade an interface under ``rng_seed``.

    Draw order: one full-retention draw; then per port, in declaration order,
    an inclusion draw followed (for included ports) by direction and width
    draws. Inout ports skip the direction draw.
    """
    rng = Random(rng_seed)
    if rng.random() < policy.p_full_retain:
        retained = tuple((p, True, True) for p in iface.ports)
        return DegradedInterface(iface, retained, fully_retained=True)
    p_keep = policy.p_keep_element
    retained_list: list[tuple[PortSpec, bool, bool]] = []
    for port in iface.ports:
        if rng.random() >= p_keep:
            continue
        shows_direction = port.direction is Direction.INOUT or rng.random() < p_keep
        retained_list.append((port, shows_direction, rng.random() < p_keep))
    return DegradedInterface(iface, tuple(retained_list), fully_retained=False)


def render_degraded_interface(degraded: DegradedInterface) -> str:
    """Render a degraded interface as the prose block spliced into task text."""
    lines = [f"Module name: {degraded.source.module_name}"]
    for pname, default in degraded.source.parameters:
        lines.append(f"Parameter: {pname} = {default}")
    if degraded.retained_ports:
        lines.append("Ports (one bit unless stated otherwise):")
    for port, shows_direction, shows_width in degraded.retained_ports:
        line = f"- {port.direction.value} {port.name}" if shows_direction else f"- {port.name}"
        if shows_width and port.width_bits > 1:
            line += f" ({port.width_bits} bits)"
        lines.append(line)
    return "\n".join(lines)
