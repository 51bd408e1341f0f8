"""Module header parsing, rendering, and seeded degradation."""

import re
import sys
import textwrap

import pytest
from hypothesis import example, given, strategies as st

from cruxkit.interface import (
    DegradationPolicy,
    Direction,
    MalformedHeader,
    ModuleInterface,
    NoModuleFound,
    PortSpec,
    UnsupportedSyntax,
    VERILOG_KEYWORDS,
    DegradedInterface,
    _balanced_parens,
    _parse_ports,
    _skip_ws,
    _split_top_level,
    degrade_interface,
    parse_module_header,
    range_width,
    render_degraded_interface,
    render_interface,
    strip_comments_and_attributes,
)


def exactly(message):
    """A ``pytest.raises(match=...)`` pattern for the whole message."""
    return "^" + re.escape(message) + r"\Z"


def ports_of(iface):
    return [(p.name, p.direction.value, p.width_bits, p.is_reg) for p in iface.ports]


class TestParse:
    def test_flat_header(self):
        src = textwrap.dedent(
            """
            module TopModule (
                input clk,
                input reset,
                input [7:0] d,
                output reg [7:0] q
            );
            endmodule
            """
        )
        iface = parse_module_header(src)
        assert iface.module_name == "TopModule"
        assert ports_of(iface) == [
            ("clk", "input", 1, False),
            ("reset", "input", 1, False),
            ("d", "input", 8, False),
            ("q", "output", 8, True),
        ]
        assert iface.port("q").range_text == "[7:0]"

    def test_parameters_with_defaults(self):
        src = "module clkgenerator #(parameter PERIOD = 10) (output reg clk);\nendmodule"
        iface = parse_module_header(src)
        assert iface.parameters == (("PERIOD", "10"),)
        assert ports_of(iface) == [("clk", "output", 1, True)]

    def test_parameter_list_shares_keyword(self):
        iface = parse_module_header(
            "module m #(parameter W = 8, D = 4) (input x);\nendmodule"
        )
        assert iface.parameters == (("W", "8"), ("D", "4"))

    def test_direction_inheritance_across_names(self):
        # a bare name after `input [7:0] a` inherits direction, reg-ness and range
        iface = parse_module_header("module m(input [7:0] a, b);\nendmodule")
        assert ports_of(iface) == [("a", "input", 8, False), ("b", "input", 8, False)]
        assert iface.port("b").range_text == "[7:0]"

    def test_range_resets_but_direction_inherits(self):
        iface = parse_module_header("module m(input a, [3:0] b);\nendmodule")
        assert ports_of(iface) == [("a", "input", 1, False), ("b", "input", 4, False)]

    def test_reg_inheritance(self):
        iface = parse_module_header("module m(output reg [1:0] a, b, input c);\nendmodule")
        assert ports_of(iface) == [
            ("a", "output", 2, True),
            ("b", "output", 2, True),
            ("c", "input", 1, False),
        ]

    def test_comments_and_attributes_ignored(self):
        src = textwrap.dedent(
            """
            // leading comment with module decoy(input x);
            (* keep = "true" *)
            module m ( /* block module fake(output y); */
                input clk, // trailing
                output reg [3:0] q
            );
            always @(*) begin end
            endmodule
            """
        )
        iface = parse_module_header(src)
        assert iface.module_name == "m"
        assert ports_of(iface) == [("clk", "input", 1, False), ("q", "output", 4, True)]

    def test_block_opener_inside_line_comment_opens_nothing(self):
        # comments are read left to right: `/*` after `//` is comment text
        head = "module m (\n input a, // see /* note\n input b,\n "
        for tail in ("output c // end */\n);\nendmodule", "output c\n);\n/* later */\nendmodule"):
            iface = parse_module_header(head + tail)
            assert [p.name for p in iface.ports] == ["a", "b", "c"]

    def test_line_opener_inside_block_comment_ends_with_it(self):
        iface = parse_module_header("module m (/* x // y */ input a, input b);\nendmodule")
        assert [p.name for p in iface.ports] == ["a", "b"]

    def test_first_module_wins_unless_named(self):
        src = "module a(input x);\nendmodule\nmodule b(output y);\nendmodule"
        assert parse_module_header(src).module_name == "a"
        assert parse_module_header(src, module_name="b").module_name == "b"
        with pytest.raises(NoModuleFound, match=exactly("no module named 'c'")):
            parse_module_header(src, module_name="c")

    def test_no_module_at_all(self):
        with pytest.raises(NoModuleFound, match=exactly("no module declaration found")):
            parse_module_header("// nothing here\nwire x;\n")

    def test_ascending_and_degenerate_ranges(self):
        iface = parse_module_header("module m(input [0:7] a, input [3:3] b);\nendmodule")
        assert iface.port("a").width_bits == 8
        assert iface.port("b").width_bits == 1

    def test_inout_and_extra_nettypes(self):
        iface = parse_module_header(
            "module m(inout [1:0] pad, output wor y, input wire logic z);\nendmodule"
        )
        assert ports_of(iface) == [
            ("pad", "inout", 2, False),
            ("y", "output", 1, False),
            ("z", "input", 1, False),
        ]

    def test_signed_qualifier(self):
        iface = parse_module_header("module m(input signed [3:0] s);\nendmodule")
        assert ports_of(iface) == [("s", "input", 4, False)]


class TestParseErrors:
    def test_input_reg_rejected(self):
        message = "input ports cannot be reg: 'input reg x'"
        with pytest.raises(MalformedHeader, match=exactly(message)):
            parse_module_header("module m(input reg x);\nendmodule")

    def test_non_ansi_name_list(self):
        with pytest.raises(UnsupportedSyntax, match=exactly(
            "port list without directions (non-ANSI header not supported)"
        )):
            parse_module_header("module m(a, b);\ninput a;\nendmodule")

    def test_non_ansi_no_port_list(self):
        with pytest.raises(UnsupportedSyntax, match=exactly(
            "module 'm' has no header port list (non-ANSI style not supported)"
        )):
            parse_module_header("module m;\nendmodule")

    def test_symbolic_range(self):
        with pytest.raises(UnsupportedSyntax, match=exactly(
            "non-constant range not supported: '[WIDTH-1:0]'"
        )):
            parse_module_header("module m(input [WIDTH - 1 : 0] x);\nendmodule")

    def test_unpacked_array_port(self):
        with pytest.raises(UnsupportedSyntax, match=exactly(
            "unpacked array port not supported: 'input [1:0] a [0:3]'"
        )):
            parse_module_header("module m(input [1:0] a [0:3]);\nendmodule")

    def test_unbalanced_parens(self):
        message = "unbalanced parentheses in module header"
        with pytest.raises(MalformedHeader, match=exactly(message)):
            parse_module_header("module m(input x;\nendmodule")

    def test_duplicate_port_name(self):
        with pytest.raises(MalformedHeader, match=exactly("duplicate port names")):
            parse_module_header("module m(input x, input x);\nendmodule")

    def test_empty_port_chunk(self):
        with pytest.raises(MalformedHeader, match=exactly("empty port entry")):
            parse_module_header("module m(input x,, input y);\nendmodule")


# Every other header error, with its whole message: these messages become
# build-dataset reclassification reasons and CRUX diagnostics. The
# MalformedHeader that _parse_ports makes of a PortSpec ValueError is not
# here: the port checks before it leave PortSpec nothing to reject.
HEADER_ERRORS = [
    ("module m #(parameter W = 1,) (input x);", MalformedHeader, "empty parameter entry"),
    ("module m #(parameter W) (input x);", MalformedHeader,
     "parameter without default: 'parameter W'"),
    ("module m #( = 4) (input x);", MalformedHeader, "cannot parse parameter: '= 4'"),
    ("module m #(parameter 8W = 1) (input x);", MalformedHeader, "illegal parameter name: '8W'"),
    ("module m #(parameter P = 1, P = 2) (input x);", MalformedHeader,
     "duplicate parameter names"),
    ("module m #(parameter x = 1) (input x);", MalformedHeader,
     "parameter name collides with port name"),
    ("module m #(parameter W = (1) (input x);", MalformedHeader,
     "unbalanced parentheses in module header"),
    ("module m(input output x);", MalformedHeader, "cannot parse port: 'input output x'"),
    ("module m(input x input y);", MalformedHeader, "cannot parse port: 'input x input y'"),
    ("module m(input x y);", MalformedHeader, "cannot parse port: 'input x y'"),
    ("module m(input [1:0] [3:0] a);", UnsupportedSyntax,
     "multi-dimensional port not supported: 'input [1:0] [3:0] a'"),
    ("module m(input a + b);", MalformedHeader, "unexpected token '+' in port: 'input a + b'"),
    ("module m(input $a);", MalformedHeader, "unexpected token '$a' in port: 'input $a'"),
    ("module m(input [3:0]);", MalformedHeader, "port entry has no name: 'input [3:0]'"),
    ("module m(output reg q, input reg d);", MalformedHeader,
     "input ports cannot be reg: 'input reg d'"),
    ("module m(input a, reg b);", MalformedHeader, "input ports cannot be reg: 'reg b'"),
    ("module (input x);", MalformedHeader, "module keyword without a name"),
    ("module m # x (input a);", MalformedHeader, "expected '(' after '#'"),
    ("module m #", MalformedHeader, "expected '(' after '#'"),
    ("module m #(parameter W = 1);", UnsupportedSyntax,
     "module 'm' has no header port list (non-ANSI style not supported)"),
    ("module m input x;", MalformedHeader, "expected port list after module 'm'"),
    ("module m", MalformedHeader, "expected port list after module 'm'"),
    ("module m(input x)\nendmodule", MalformedHeader, "missing ';' after module 'm' header"),
    ("module m(input x)", MalformedHeader, "missing ';' after module 'm' header"),
    ("module input (output y);", MalformedHeader, "illegal module name: 'input'"),
    ("module m(input [N:0] x);", UnsupportedSyntax, "non-constant range not supported: '[N:0]'"),
    ("", NoModuleFound, "no module declaration found"),
]


@pytest.mark.parametrize("src, exc_type, message", HEADER_ERRORS)
def test_header_error_message(src, exc_type, message):
    with pytest.raises(exc_type, match=exactly(message)) as info:
        parse_module_header(src)
    assert type(info.value) is exc_type


class TestDataModel:
    def test_range_width(self):
        assert range_width("[7:0]") == 8
        assert range_width("[0:7]") == 8
        assert range_width("[3:3]") == 1
        message = "non-constant range not supported: ' [a:0] '"
        with pytest.raises(UnsupportedSyntax, match=exactly(message)):
            range_width(" [a:0] ")

    def test_portspec_validation(self):
        with pytest.raises(ValueError, match=exactly("illegal port name: '2bad'")):
            PortSpec("2bad", Direction.INPUT)
        with pytest.raises(ValueError, match=exactly("input ports cannot be reg")):
            PortSpec("x", Direction.INPUT, is_reg=True)  # input reg is not legal

    def test_range_width_runs_once_per_ranged_port(self, monkeypatch):
        import cruxkit.interface as interface

        seen = []
        real_range_width = interface.range_width
        monkeypatch.setattr(
            interface, "range_width", lambda text: seen.append(text) or real_range_width(text)
        )
        iface = parse_module_header(
            "module m (input [7:0] a, b, input clk, output reg [0:3] q); endmodule"
        )
        assert [p.width_bits for p in iface.ports] == [8, 8, 1, 4]
        assert seen == ["[7:0]", "[7:0]", "[0:3]"]

    def test_width_is_read_off_the_range(self):
        assert PortSpec("x", Direction.INPUT, range_text="[0:3]").width_bits == 4
        assert PortSpec("x", Direction.INPUT).width_bits == 1

    def test_range_text_is_metadata_only(self):
        a = PortSpec("x", Direction.INPUT, False, "[7:0]")
        b = PortSpec("x", Direction.INPUT, False, "[ 7 : 0 ]")
        assert a == b

    def test_interface_collisions(self):
        p = PortSpec("x", Direction.INPUT)
        with pytest.raises(ValueError, match=exactly("duplicate port names")):
            ModuleInterface("m", (), (p, p))
        with pytest.raises(ValueError, match=exactly("parameter name collides with port name")):
            ModuleInterface("m", (("x", "1"),), (p,))
        with pytest.raises(ValueError, match=exactly("duplicate parameter names")):
            ModuleInterface("m", (("P", "1"), ("P", "2")), ())
        with pytest.raises(ValueError, match=exactly("illegal module name: 'endmodule'")):
            ModuleInterface("endmodule")

    def test_port_lookup(self):
        iface = ModuleInterface("m", (), (PortSpec("x", Direction.INPUT),))
        assert iface.port("x").name == "x"
        with pytest.raises(KeyError, match=exactly("'y'")):
            iface.port("y")


class TestRender:
    def test_header_block_golden(self):
        iface = ModuleInterface(
            "counter",
            (("WIDTH", "4"),),
            (
                PortSpec("clk", Direction.INPUT),
                PortSpec("q", Direction.OUTPUT, True, "[3:0]"),
            ),
        )
        assert render_interface(iface) == textwrap.dedent(
            """\
            module counter #(
                parameter WIDTH = 4
            )(
                input clk,
                output reg [3:0] q
            );"""
        )


IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True).filter(
    lambda s: s not in VERILOG_KEYWORDS
)


@st.composite
def interfaces(draw):
    names = draw(st.lists(IDENT, min_size=1, max_size=6, unique=True))
    module_name = draw(IDENT.filter(lambda s: s not in names))
    ports = []
    for name in names:
        direction = draw(st.sampled_from(list(Direction)))
        width = draw(st.integers(min_value=1, max_value=64))
        is_reg = draw(st.booleans()) if direction is Direction.OUTPUT else False
        ports.append(PortSpec(name, direction, is_reg, f"[{width - 1}:0]" if width > 1 else ""))
    n_params = draw(st.integers(min_value=0, max_value=2))
    params = []
    for i in range(n_params):
        pname = f"P{i}_{draw(st.integers(min_value=0, max_value=99))}"
        params.append((pname, str(draw(st.integers(min_value=0, max_value=1000)))))
    return ModuleInterface(module_name, tuple(params), tuple(ports))


@given(interfaces())
def test_render_parse_round_trip(iface):
    reparsed = parse_module_header(render_interface(iface) + "\nendmodule\n")
    assert reparsed.module_name == iface.module_name
    assert reparsed.parameters == iface.parameters
    assert reparsed.ports == iface.ports  # range_text excluded from equality


class TestDegradation:
    IFACE = parse_module_header(
        "module m(input clk, input [7:0] d, output reg [7:0] q, inout [1:0] pad);\nendmodule"
    )

    def test_deterministic_per_seed(self):
        a = degrade_interface(self.IFACE, DegradationPolicy(), 1234)
        b = degrade_interface(self.IFACE, DegradationPolicy(), 1234)
        assert a == b

    def test_full_retention_branch(self):
        deg = degrade_interface(self.IFACE, DegradationPolicy(p_full_retain=1.0), 7)
        assert deg.fully_retained
        assert [p.name for p, _, _ in deg.retained_ports] == ["clk", "d", "q", "pad"]
        assert all(d and w for _, d, w in deg.retained_ports)

    def test_keep_everything_without_full_branch(self):
        policy = DegradationPolicy(p_full_retain=0.0, p_keep_element=1.0)
        deg = degrade_interface(self.IFACE, policy, 7)
        assert not deg.fully_retained
        assert [p.name for p, _, _ in deg.retained_ports] == ["clk", "d", "q", "pad"]
        assert all(d and w for _, d, w in deg.retained_ports)

    def test_drop_everything(self):
        policy = DegradationPolicy(p_full_retain=0.0, p_keep_element=0.0)
        deg = degrade_interface(self.IFACE, policy, 7)
        assert deg.retained_ports == ()

    def test_inout_never_loses_direction(self):
        policy = DegradationPolicy(p_full_retain=0.0, p_keep_element=0.0)
        # pad must still carry direction whenever it survives inclusion at all
        for seed in range(200):
            deg = degrade_interface(
                self.IFACE, DegradationPolicy(p_full_retain=0.0, p_keep_element=0.5), seed
            )
            for port, shows_direction, _ in deg.retained_ports:
                if port.direction is Direction.INOUT:
                    assert shows_direction
        deg = degrade_interface(self.IFACE, policy, 3)
        assert deg.retained_ports == ()

    def test_order_preserved(self):
        order = [p.name for p in self.IFACE.ports]
        for seed in range(40):
            deg = degrade_interface(self.IFACE, DegradationPolicy(), seed)
            names = [p.name for p, _, _ in deg.retained_ports]
            assert names == [n for n in order if n in names]

    def test_render_degraded_golden(self):
        iface = parse_module_header(
            "module top #(parameter P = 10)(input [7:0] d, output q);\nendmodule"
        )
        deg = degrade_interface(iface, DegradationPolicy(p_full_retain=1.0), 0)
        text = render_degraded_interface(deg)
        assert text == textwrap.dedent(
            """\
            Module name: top
            Parameter: P = 10
            Ports (one bit unless stated otherwise):
            - input d (8 bits)
            - output q"""
        )

    def test_render_partial_fields(self):
        iface = parse_module_header("module m(input [7:0] d);\nendmodule")
        policy = DegradationPolicy(p_full_retain=0.0, p_keep_element=0.5)
        seen = set()
        for seed in range(300):
            deg = degrade_interface(iface, policy, seed)
            for port, shows_direction, shows_width in deg.retained_ports:
                line = render_degraded_interface(deg).splitlines()[-1]
                seen.add((shows_direction, shows_width))
                assert port.name in line
        # all four direction/width keep combinations occur
        assert seen == {(False, False), (False, True), (True, False), (True, True)}

    def test_degraded_interface_validation(self):
        clk, d, q, pad = self.IFACE.ports
        ghost = PortSpec("ghost", Direction.INPUT)
        cases = [
            (((ghost, True, True),), False, "retained port 'ghost' not in source interface"),
            (((pad, False, True),), False, "inout ports never lose their direction"),
            (((clk, True, True),), True, "fully_retained requires every port present"),
            (((clk, True, True), (d, True, True), (q, True, False), (pad, True, True)), True,
             "fully_retained requires every field kept"),
        ]
        for retained, fully, message in cases:
            with pytest.raises(ValueError, match=exactly(message)):
                DegradedInterface(self.IFACE, retained, fully)

    def test_policy_validation(self):
        message = "bad degradation settings: {!r} must be a number in [0, 1]"
        with pytest.raises(ValueError, match=exactly(message.format("p_full_retain"))):
            DegradationPolicy(p_full_retain=1.5)
        with pytest.raises(ValueError, match=exactly(message.format("p_keep_element"))):
            DegradationPolicy(p_keep_element=-0.1)


@given(st.integers(min_value=0, max_value=10_000))
def test_degradation_invariants_any_seed(seed):
    iface = TestDegradation.IFACE
    deg = degrade_interface(iface, DegradationPolicy(), seed)
    assert deg.source == iface
    for port, _, _ in deg.retained_ports:
        assert port in iface.ports


# --- scanner properties ---------------------------------------------------------
# Per-character reference scanners: the fast ones must agree with them on
# every value and every exception.


def oracle_balanced_parens(text, start):
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return text[start + 1 : i], i + 1
    raise MalformedHeader("unbalanced parentheses in module header")


def oracle_split_top_level(text):
    chunks, depth, cur = [], 0, ""
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append(cur)
            cur = ""
        else:
            cur += ch
    return chunks + [cur]


def oracle_skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def oracle_strip_comments(text):
    """Blank comments read left to right, one character at a time."""
    out, i = [], 0
    while i < len(text):
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = len(text) if end < 0 else end
        elif text.startswith("/*", i) and text.find("*/", i + 2) >= 0:
            end = text.find("*/", i + 2) + 2
        else:
            out.append(text[i])
            i += 1
            continue
        out.extend("\n" if ch == "\n" else " " for ch in text[i:end])
        i = end
    return "".join(out)


_ORACLE_PORT_TOKEN_RE = re.compile(r"\[[^\[\]]*\]|[A-Za-z_$][A-Za-z0-9_$]*|\S")
_ORACLE_DIRECTIONS = {d.value: d for d in Direction}


def oracle_parse_ports(text):
    """The port-list tokenizer: split at top-level commas, then read each
    entry token by token."""
    ports, prev = [], None
    for chunk in oracle_split_top_level(text):
        chunk = chunk.strip()
        if not chunk:
            raise MalformedHeader("empty port entry")
        tokens = _ORACLE_PORT_TOKEN_RE.findall(chunk)
        direction, is_reg, range_text, name = None, False, "", None
        for tok in tokens:
            if tok in _ORACLE_DIRECTIONS:
                if direction is not None or name is not None:
                    raise MalformedHeader(f"cannot parse port: {chunk!r}")
                direction = _ORACLE_DIRECTIONS[tok]
            elif tok == "reg":
                is_reg = True
            elif tok in {"wire", "logic", "tri", "wand", "wor", "signed", "unsigned"}:
                continue
            elif tok.startswith("["):
                if name is not None:
                    raise UnsupportedSyntax(f"unpacked array port not supported: {chunk!r}")
                if range_text:
                    raise UnsupportedSyntax(f"multi-dimensional port not supported: {chunk!r}")
                range_text = "".join(tok.split())
            elif re.match(r"^[A-Za-z_][A-Za-z0-9_$]*$", tok) and tok not in VERILOG_KEYWORDS:
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
            direction = prev.direction
            if not range_text and not is_reg and len(tokens) == 1:
                is_reg, range_text = prev.is_reg, prev.range_text
        if direction is Direction.INPUT and is_reg:
            raise MalformedHeader(f"input ports cannot be reg: {chunk!r}")
        prev = PortSpec(name, direction, is_reg, range_text)
        ports.append(prev)
    return tuple(ports)


def outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(exc), str(exc)


SCAN_TEXT = st.text(alphabet="()[]{},;a \n", max_size=80)


@given(SCAN_TEXT)
def test_split_top_level_matches_oracle(text):
    assert outcome(_split_top_level, text) == outcome(oracle_split_top_level, text)


@given(SCAN_TEXT, st.data())
def test_balanced_parens_matches_oracle(text, data):
    text = "(" + text
    start = data.draw(st.sampled_from([i for i, ch in enumerate(text) if ch == "("]))
    assert outcome(_balanced_parens, text, start) == outcome(oracle_balanced_parens, text, start)


@given(st.text(alphabet=" \t\n\r\x0b\x0c\x1c\x85\xa0\u2028\u3000a(", max_size=20), st.data())
def test_skip_ws_matches_oracle(text, data):
    pos = data.draw(st.integers(min_value=0, max_value=len(text)))
    assert _skip_ws(text, pos) == oracle_skip_ws(text, pos)


def test_regex_whitespace_is_str_isspace():
    # the scanners may use either test for whitespace; they agree everywhere
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", every) == [ch for ch in every if ch.isspace()]


@given(st.text(alphabet="/*()\n a;\r", max_size=80))
def test_strip_keeps_length_and_newline_offsets(text):
    out = strip_comments_and_attributes(text)
    assert len(out) == len(text)
    assert [i for i, ch in enumerate(out) if ch == "\n"] == [
        i for i, ch in enumerate(text) if ch == "\n"
    ]


@given(st.text(alphabet="/*\n a", max_size=80))
@example("// /*\n*/ a")
def test_strip_matches_left_to_right_lexer(text):
    assert strip_comments_and_attributes(text) == oracle_strip_comments(text)


@st.composite
def port_ranges(draw):
    pad = st.sampled_from(["", " ", "\t "])
    high = draw(st.sampled_from(["7", "0", "-1", "+3", "15"] * 3
                                + ["١", "W-1", "3,2", "(1)", "3 2"]))
    low = draw(st.sampled_from(["0", "7", "-2", "+0", "3"]))
    return f"[{draw(pad)}{high}{draw(pad)}:{draw(pad)}{low}{draw(pad)}]"


DIRECTION_WORDS = st.sampled_from(["input", "output", "inout"])
NET_WORDS = st.sampled_from(["wire", "logic", "tri", "signed", "unsigned", "reg"])
PORT_NAMES = st.sampled_from(["a", "b_1", "x$y", "clk", "q", "_n"] * 3
                             + ["$z", "module", "input", "1a", "é"])
STRAY = st.sampled_from(["[", "]", "(", ")", "{", "}", ";", "#", ","])


@st.composite
def port_entries(draw):
    """One entry of a port list: mostly a declaration's words in their usual
    order, sometimes with a word missing or a stray token put in, or empty."""
    tokens = []
    if draw(st.integers(0, 3)):
        tokens.append(draw(DIRECTION_WORDS))
    tokens += draw(st.lists(NET_WORDS, max_size=2))
    if draw(st.booleans()):
        tokens.append(draw(port_ranges()))
    if draw(st.integers(0, 7)):
        tokens.append(draw(PORT_NAMES))
    if not draw(st.integers(0, 7)):
        extra = draw(st.one_of(STRAY, DIRECTION_WORDS, NET_WORDS, port_ranges(), PORT_NAMES))
        tokens.insert(draw(st.integers(0, len(tokens))), extra)
    # an empty gap can run two words into one identifier
    gaps = draw(st.lists(st.sampled_from(["", " ", "  ", "\n    ", "\t"]),
                         min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    return gaps[0] + "".join(tok + gap for tok, gap in zip(tokens, gaps[1:]))


PORT_LISTS = st.lists(port_entries(), min_size=1, max_size=4).map(",".join)


def port_facts(result):
    # range_text is left out of PortSpec equality, so compare it too
    if result[0] != "returned":
        return result
    return [(p.name, p.direction, p.width_bits, p.is_reg, p.range_text) for p in result[1]]


@given(PORT_LISTS, PORT_LISTS)
@example("input [7:0] a, b", "c, output q")
@example("output reg [0:3] q, r", "inputa, b")
@example("input wire[3 : 0]x,\n  y", "input reg x")
# hand-overs mid-list: the entries after it continue the declaration before it
@example("output [3:0] a, b, reg c", "input [7:0] a, b, [W-1:0] c")
@example("output reg [1:0] a, b, [3:0] c, d", "inout p, q r, s")
@example("input a, output b, c,, d", "input clk, output reg [7:0] q, input reg d")
def test_parse_ports_matches_tokenizer(first, second):
    # one list after another: nothing read from the first may reach the second
    for text in (first, second):
        assert port_facts(outcome(_parse_ports, text)) == port_facts(
            outcome(oracle_parse_ports, text)
        )


@pytest.mark.parametrize("text", ["output [3:0] a, b, reg c", "input [7:0] a, b, [W-1:0] c"])
def test_hand_over_reads_no_entry_twice(text, monkeypatch):
    """Two entries are read by the pattern, the third by the tokens after the
    hand-over: three ports made, and the same ports or error as before."""
    import cruxkit.interface as interface

    made = []

    class CountingPortSpec(PortSpec):
        def __post_init__(self):
            made.append(self.name)
            super().__post_init__()

    want = port_facts(outcome(_parse_ports, text))
    monkeypatch.setattr(interface, "PortSpec", CountingPortSpec)
    assert port_facts(outcome(_parse_ports, text)) == want
    assert made == ["a", "b", "c"]
