"""Structured design-summary documents: render, parse, validate."""

import textwrap

import pytest
from hypothesis import given, strategies as st

from cruxkit.cruxdoc import (
    ALL_SECTIONS,
    CruxDoc,
    CruxParseReport,
    SECTION_CORE,
    SECTION_INTERFACE,
    SECTION_KEY,
    interface_mismatches,
    parse_crux,
    render_crux,
)
from cruxkit.interface import parse_module_header

HEADER = textwrap.dedent(
    """\
    module TopModule (
        input clk,
        input [7:0] d,
        output reg [7:0] q
    );"""
)
IFACE = parse_module_header(HEADER + "\nendmodule")

DOC = CruxDoc(
    interface=IFACE,
    core_functions=("Stores d on each rising clock edge", "q follows d one cycle later"),
    key_considerations=("No reset; power-up value is undefined",),
)


class TestRender:
    def test_canonical_layout(self):
        text = render_crux(DOC)
        assert text.startswith("## Module Interface\n")
        assert "\n## Core Functions\n" in text
        assert "\n## Key Considerations\n" in text
        assert "```verilog\nmodule TopModule" in text
        assert text.endswith("\n")
        assert not text.endswith("\n\n")

    def test_single_line_blocks_become_tight_bullets(self):
        text = render_crux(DOC)
        assert "- Stores d on each rising clock edge\n- q follows d one cycle later" in text

    def test_multi_line_block_rendered_verbatim(self):
        diagram = "S0 -> d=1 -> S1\nS1 -> d=0 -> S0"
        doc = CruxDoc(IFACE, (diagram, "Single bullet"), ("Note",))
        text = render_crux(doc)
        assert f"\n\n{diagram}\n\n- Single bullet" in text

    def test_section_order_fixed(self):
        text = render_crux(DOC)
        names = ["## Module Interface", "## Core Functions", "## Key Considerations"]
        positions = [text.index(n) for n in names]
        assert positions == sorted(positions)

    def test_empty_key_considerations_section_still_present(self):
        text = render_crux(CruxDoc(IFACE, ("One fact",)))
        assert text.rstrip().endswith("## Key Considerations")


class TestDocValidation:
    def test_core_functions_required(self):
        with pytest.raises(ValueError):
            CruxDoc(IFACE, (), ())

    def test_key_considerations_optional(self):
        doc = CruxDoc(IFACE, ("Does a thing",))
        assert doc.key_considerations == ()

    def test_rejects_heading_like_block(self):
        with pytest.raises(ValueError):
            CruxDoc(IFACE, ("# looks like a heading",))

    def test_rejects_fence_in_block(self):
        with pytest.raises(ValueError):
            CruxDoc(IFACE, ("```verilog",))

    def test_rejects_unstripped_or_blank_lines(self):
        with pytest.raises(ValueError):
            CruxDoc(IFACE, ("first\n\nsecond",))
        with pytest.raises(ValueError):
            CruxDoc(IFACE, ("  padded  ",))

    def test_rejects_all_bullet_paragraph(self):
        # bullet lists must be passed as individual blocks
        with pytest.raises(ValueError):
            CruxDoc(IFACE, ("- one\n- two",))

    def test_multi_line_with_bullet_subset_ok(self):
        doc = CruxDoc(IFACE, ("State table:\n- S0: idle\n- S1: busy",))
        assert len(doc.core_functions) == 1


class TestParse:
    def test_round_trip(self):
        report = parse_crux(render_crux(DOC))
        assert report.doc == DOC
        assert report.sections_found == ALL_SECTIONS
        assert report.interface is not None
        assert report.core_functions_nonempty
        assert not any(d.severity == "error" for d in report.diagnostics)

    def test_total_on_empty_input(self):
        report = parse_crux("")
        assert report.doc is None
        assert report.sections_found == frozenset()
        assert sum(d.severity == "error" for d in report.diagnostics) == 3

    def test_missing_core_section(self):
        text = f"## Module Interface\n\n```verilog\n{HEADER}\n```\n"
        report = parse_crux(text)
        assert report.doc is None
        assert SECTION_CORE not in report.sections_found
        assert SECTION_INTERFACE in report.sections_found
        assert report.interface is not None

    def test_tolerant_heading_variants(self):
        text = render_crux(DOC)
        variants = [
            text.replace("## Module Interface", "## module interface"),
            text.replace("## Key Considerations", "##   Key Consideration"),
            text.replace("## Module Interface", "## Interface"),
            text.replace("## Core Functions", "ама### Core Functions".replace("ама", "")),
        ]
        for variant in variants:
            report = parse_crux(variant)
            assert report.doc is not None, variant[:40]

    def test_unknown_heading_is_not_a_section(self):
        text = render_crux(DOC) + "\n## Bonus Thoughts\n\n- extra\n"
        report = parse_crux(text)
        assert report.doc is not None
        # the stray section's content must not leak into key considerations
        assert "extra" not in report.doc.key_considerations
        assert any("unrecognized heading" in d.message for d in report.diagnostics)

    def test_heading_inside_fence_is_content(self):
        fenced = "## Module Interface\n\n```verilog\n" + HEADER + "\n# 10 delay note\n```\n"
        text = fenced + "\n## Core Functions\n\n- Fact\n\n## Key Considerations\n"
        report = parse_crux(text)
        assert report.doc is not None
        assert report.interface is not None

    def test_indented_headings_and_fences(self):
        # up to three spaces of indent still open a heading or a fence; four
        # spaces or a tab make the line section content
        text = render_crux(DOC)
        indented = text.replace("## Core", "   ## Core").replace("```verilog", "   ```verilog")
        assert parse_crux(indented).doc == DOC
        for indent in ("    ", "\t"):
            report = parse_crux(text.replace("## Key", indent + "## Key"))
            assert SECTION_KEY not in report.sections_found

    def test_duplicate_section_merges_with_warning(self):
        text = render_crux(DOC) + f"\n## Core Functions\n\n- Another fact\n"
        report = parse_crux(text)
        assert report.doc is not None
        assert "Another fact" in report.doc.core_functions
        assert any(d.severity == "warning" for d in report.diagnostics)

    def test_preamble_noted(self):
        text = "Sure, here is the summary you asked for.\n\n" + render_crux(DOC)
        report = parse_crux(text)
        assert report.doc == DOC
        assert any(d.severity == "info" for d in report.diagnostics)

    def test_interface_without_fence_still_captured(self):
        text = render_crux(DOC).replace("```verilog\n", "").replace("```\n", "")
        report = parse_crux(text)
        assert report.doc is not None
        assert report.interface is not None
        assert report.interface.module_name == "TopModule"
        assert any("fence" in d.message for d in report.diagnostics)

    def test_unparsable_interface_means_no_doc(self):
        text = render_crux(DOC).replace("module TopModule (", "module (")
        report = parse_crux(text)
        assert report.doc is None
        assert report.interface is None
        assert report.core_functions_nonempty
        assert any(d.severity == "error" for d in report.diagnostics)

    def test_bullet_markers_split_into_blocks(self):
        text = textwrap.dedent(
            """\
            ## Module Interface

            ```verilog
            {header}
            ```

            ## Core Functions

            - Dash bullet one
            - Dash bullet two

            ## Key Considerations

            - Only note
            """
        ).format(header=HEADER)
        report = parse_crux(text)
        assert report.doc.core_functions == ("Dash bullet one", "Dash bullet two")
        assert report.doc.key_considerations == ("Only note",)

    def test_mixed_paragraph_and_bullets(self):
        text = textwrap.dedent(
            """\
            ## Module Interface

            ```verilog
            {header}
            ```

            ## Core Functions

            State transitions:
            S0 -> S1 on go

            - Output is registered

            ## Key Considerations
            """
        ).format(header=HEADER)
        report = parse_crux(text)
        assert report.doc is not None
        assert report.doc.core_functions == (
            "State transitions:\nS0 -> S1 on go",
            "Output is registered",
        )
        assert report.doc.key_considerations == ()


BLOCK_LINE = st.from_regex(r"[A-Za-z][A-Za-z0-9 ,.]{0,30}[a-z0-9]", fullmatch=True)


@st.composite
def docs(draw):
    core = tuple(draw(st.lists(BLOCK_LINE, min_size=1, max_size=4)))
    key = tuple(draw(st.lists(BLOCK_LINE, min_size=0, max_size=3)))
    if draw(st.booleans()):
        lines = draw(st.lists(BLOCK_LINE, min_size=2, max_size=3))
        core = core + ("\n".join(lines),)
    return CruxDoc(IFACE, core, key)


@given(docs())
def test_round_trip_property(doc):
    report = parse_crux(render_crux(doc))
    assert report.doc == doc


@given(st.text(max_size=400))
def test_parse_is_total(text):
    report = parse_crux(text)
    assert isinstance(report, CruxParseReport)
    if report.doc is not None:
        assert report.interface is not None and report.core_functions_nonempty


class TestMismatches:
    def test_no_mismatches_on_identity(self):
        assert interface_mismatches(IFACE, IFACE) == []

    def test_each_kind_detected(self):
        renamed = parse_module_header(
            "module Other(input clk, input [7:0] d, output reg [7:0] q);\nendmodule"
        )
        missing = parse_module_header("module TopModule(input clk);\nendmodule")
        direction = parse_module_header(
            "module TopModule(output clk, input [7:0] d, output reg [7:0] q);\nendmodule"
        )
        width = parse_module_header(
            "module TopModule(input clk, input [3:0] d, output reg [7:0] q);\nendmodule"
        )
        assert [m.kind for m in interface_mismatches(renamed, IFACE)] == ["module_name"]
        assert {m.kind for m in interface_mismatches(missing, IFACE)} == {"missing_port"}
        assert {m.kind for m in interface_mismatches(direction, IFACE)} == {"direction"}
        assert {m.kind for m in interface_mismatches(width, IFACE)} == {"width"}

    def test_extra_port(self):
        extra = parse_module_header(
            "module TopModule(input clk, input [7:0] d, output reg [7:0] q, input spare);"
            "\nendmodule"
        )
        assert {m.kind for m in interface_mismatches(extra, IFACE)} == {"extra_port"}

    def test_port_order_ignored(self):
        shuffled = parse_module_header(
            "module TopModule(output reg [7:0] q, input [7:0] d, input clk);\nendmodule"
        )
        assert interface_mismatches(shuffled, IFACE) == []

    def test_reg_marker_not_a_mismatch(self):
        # reg-ness is an implementation detail of the reference, not interface shape
        plain = parse_module_header(
            "module TopModule(input clk, input [7:0] d, output [7:0] q);\nendmodule"
        )
        assert interface_mismatches(plain, IFACE) == []

    def test_document_interface_against_reference(self):
        assert interface_mismatches(DOC.interface, IFACE) == []
        wrong = CruxDoc(
            parse_module_header("module Wrong(input clk);\nendmodule"), ("Thing",)
        )
        assert interface_mismatches(wrong.interface, IFACE)
