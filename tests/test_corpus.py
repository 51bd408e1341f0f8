"""Categorization, RealSpec construction, prompt bundles, record assembly."""

import pytest
from hypothesis import given, strategies as st

from cruxkit.corpus import (
    AugmentationPolicy,
    Category,
    DEFAULT_KEYWORDS,
    MissingDiagram,
    P_MIDDLE_INSERT_DEFAULT,
    RawPair,
    Reclassification,
    UnsupportedCategory,
    assemble_record,
    build_realspec,
    categorize,
    diagram_blocks_for_realspec,
    extract_verilog,
    make_crux_derivation_prompt,
    probe_verdict_from_outcomes,
)
from cruxkit.cruxdoc import parse_crux, render_crux
from cruxkit.interface import DegradationPolicy, degrade_interface, parse_module_header

REF_CODE = "module TopModule(input clk, input [7:0] d, output reg [7:0] q);\nendmodule\n"


def make_pair(pair_id="t1", description="First paragraph about a register.\n\nSecond paragraph with details."):
    return RawPair(pair_id, description, REF_CODE)


def full_degraded():
    iface = parse_module_header(REF_CODE)
    return degrade_interface(iface, DegradationPolicy(p_full_retain=1.0), 0)


NO_AUG = AugmentationPolicy(p_middle_insert=0.0, p_prefix=0.0, p_suffix=0.0)


class TestRawPair:
    def test_requires_nonempty_fields(self):
        with pytest.raises(ValueError):
            RawPair("", "desc", REF_CODE)
        with pytest.raises(ValueError):
            RawPair("x", "   ", REF_CODE)
        with pytest.raises(ValueError):
            RawPair("x", "desc", "")


class TestCategorize:
    def test_probe_pass_wins(self):
        pair = make_pair(description="Design the FSM with a waveform diagram.")
        assert categorize(pair, probe_passed=True) is Category.EASY_QUESTION

    def test_keyword_routes_to_special(self):
        for kw in ("K-map", "KMAP", "Karnaugh", "FSM", "state machine",
                   "waveform", "sequential", "truth table"):
            pair = make_pair(description=f"Derive the logic from this {kw} please.")
            assert categorize(pair, probe_passed=False) is Category.SPECIAL_NON_TEXT, kw

    def test_plain_failure_is_normal(self):
        pair = make_pair(description="An 8-bit register with synchronous load.")
        assert categorize(pair, probe_passed=False) is Category.NORMAL_DATA

    def test_keyword_match_is_substring(self):
        pair = make_pair(description="See the waveforms below for exact timing.")
        assert categorize(pair, probe_passed=False) is Category.SPECIAL_NON_TEXT

    def test_custom_keyword_set(self):
        pair = make_pair(description="Uses a timing diagram.")
        assert categorize(pair, probe_passed=False) is Category.NORMAL_DATA
        custom = frozenset({"timing diagram"})
        assert categorize(pair, probe_passed=False, keyword_set=custom) is Category.SPECIAL_NON_TEXT

    def test_default_keywords_frozen(self):
        assert "fsm" in DEFAULT_KEYWORDS
        assert isinstance(DEFAULT_KEYWORDS, frozenset)


class TestProbeVerdict:
    def test_any_full_match_passes(self):
        assert probe_verdict_from_outcomes([0.0, 1.0]) is True
        assert probe_verdict_from_outcomes([0.99, 0.5]) is False
        assert probe_verdict_from_outcomes([]) is False

    def test_threshold(self):
        assert probe_verdict_from_outcomes([0.9], threshold=0.9) is True


class TestBuildRealspec:
    def test_no_augmentation_appends_interface(self):
        pair = make_pair()
        text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), NO_AUG, 0)
        paragraphs = text.split("\n\n")
        assert paragraphs[0] == "First paragraph about a register."
        assert paragraphs[1] == "Second paragraph with details."
        assert paragraphs[2].startswith("Module name: TopModule")

    def test_middle_insert_lands_between_paragraphs(self):
        pair = make_pair()
        aug = AugmentationPolicy(p_middle_insert=1.0, p_prefix=0.0, p_suffix=0.0)
        text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), aug, 0)
        paragraphs = text.split("\n\n")
        assert paragraphs[1].startswith("Module name:")
        assert paragraphs[0] == "First paragraph about a register."
        assert paragraphs[2] == "Second paragraph with details."

    def test_single_paragraph_appends_even_when_coin_fires(self):
        pair = make_pair(description="Only one paragraph here.")
        aug = AugmentationPolicy(p_middle_insert=1.0, p_prefix=0.0, p_suffix=0.0)
        text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), aug, 0)
        assert text.split("\n\n")[-1].startswith("- ") or "Module name:" in text.split("\n\n")[1]

    def test_prefix_and_suffix_drawn_from_pools(self):
        pair = make_pair()
        aug = AugmentationPolicy(
            p_middle_insert=0.0, p_prefix=1.0, p_suffix=1.0,
            prefix_pool=("PREFIX A",), suffix_pool=("SUFFIX B",),
        )
        text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), aug, 3)
        assert text.startswith("PREFIX A\n\n")
        assert text.endswith("\n\nSUFFIX B")

    def test_deterministic_per_seed(self):
        pair = make_pair()
        a = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), AugmentationPolicy(), 99)
        b = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), AugmentationPolicy(), 99)
        assert a == b

    def test_special_replaces_description_with_diagram(self):
        pair = make_pair(description="Implement this state machine.")
        diagram = ("State transitions:\nS0 -> go -> S1", "Output high in S1")
        text = build_realspec(
            pair, Category.SPECIAL_NON_TEXT, full_degraded(), NO_AUG, 0, diagram
        )
        assert "Implement this state machine." not in text
        assert text.startswith("State transitions:")
        assert text.split("\n\n")[-1].startswith("Module name:") or "Module name:" in text

    def test_special_without_diagram_raises(self):
        pair = make_pair()
        with pytest.raises(MissingDiagram):
            build_realspec(pair, Category.SPECIAL_NON_TEXT, full_degraded(), NO_AUG, 0)

    def test_special_skips_middle_coin(self):
        # with p_middle_insert=1.0 a Special realspec still keeps the
        # interface at the end: the coin is not drawn for diagram bodies
        pair = make_pair()
        aug = AugmentationPolicy(p_middle_insert=1.0, p_prefix=0.0, p_suffix=0.0)
        text = build_realspec(
            pair, Category.SPECIAL_NON_TEXT, full_degraded(), aug, 0, ("D1", "D2")
        )
        assert text.split("\n\n")[-1].rstrip().endswith("- output q (8 bits)")

    def test_middle_insert_rate(self):
        pair = make_pair()
        aug = AugmentationPolicy(p_prefix=0.0, p_suffix=0.0)
        hits = 0
        n = 2000
        for seed in range(n):
            text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), aug, seed)
            if text.split("\n\n")[1].startswith("Module name:"):
                hits += 1
        p = P_MIDDLE_INSERT_DEFAULT
        sigma = (p * (1 - p) / n) ** 0.5
        assert abs(hits / n - p) < 4 * sigma


class TestPromptBundles:
    def test_normal_gets_single_extract_prompt(self):
        bundle = make_crux_derivation_prompt(make_pair(), Category.NORMAL_DATA)
        assert bundle["task_id"] == "t1"
        assert [p["stage"] for p in bundle["prompts"]] == ["extract"]
        text = bundle["prompts"][0]["text"]
        assert REF_CODE.strip() in text
        assert "## Module Interface" in text

    def test_special_gets_parse_then_validate(self):
        bundle = make_crux_derivation_prompt(make_pair(), Category.SPECIAL_NON_TEXT)
        assert set(bundle) == {"task_id", "prompts"}
        assert all(set(p) == {"stage", "text"} for p in bundle["prompts"])
        assert [p["stage"] for p in bundle["prompts"]] == ["circuit_parse", "validate"]
        assert "State → Condition → Next State" in bundle["prompts"][0]["text"]
        # validate prompt keeps a literal slot for the derived document
        assert "{derived}" in bundle["prompts"][1]["text"]

    def test_easy_has_no_derivation(self):
        with pytest.raises(UnsupportedCategory):
            make_crux_derivation_prompt(make_pair(), Category.EASY_QUESTION)


class TestExtractVerilog:
    def test_fenced_block_preferred(self):
        text = f"Here you go:\n```verilog\n{REF_CODE}```\nDone."
        assert extract_verilog(text).strip() == REF_CODE.strip()

    def test_bare_module_span(self):
        text = f"Intro prose.\n{REF_CODE}Trailing chatter."
        out = extract_verilog(text)
        assert out.startswith("module TopModule")
        assert out.rstrip().endswith("endmodule")

    def test_fence_without_module_ignored(self):
        text = "```verilog\nwire x;\n```\n" + REF_CODE
        assert "module TopModule" in extract_verilog(text)

    def test_no_verilog_returns_none(self):
        assert extract_verilog("I cannot help with that.") is None


def canned_crux_text():
    pair = make_pair()
    iface = parse_module_header(pair.reference_code)
    from cruxkit.cruxdoc import CruxDoc

    doc = CruxDoc(iface, ("Registers d into q",), ("No reset",))
    return render_crux(doc)


def reference_iface():
    return parse_module_header(make_pair().reference_code)


class TestAssembleRecord:
    def test_easy_derives_crux_locally(self):
        pair = make_pair()
        record = assemble_record(pair, Category.EASY_QUESTION, "spec text", reference_iface())
        assert record["category"] == Category.EASY_QUESTION.value
        doc = parse_crux(record["crux"]).doc
        assert doc.key_considerations == ()
        # description paragraphs become the functional summary
        assert any("First paragraph" in b for b in doc.core_functions)

    def test_normal_with_valid_transcript(self):
        record = assemble_record(
            make_pair(), Category.NORMAL_DATA, "spec", reference_iface(),
            crux=parse_crux(canned_crux_text()),
        )
        assert record["crux"] == canned_crux_text()
        assert parse_crux(record["crux"]).doc.key_considerations != ()

    def test_normal_without_transcript_reclassifies(self):
        out = assemble_record(
            make_pair(), Category.NORMAL_DATA, "spec", reference_iface(), crux=None
        )
        assert isinstance(out, Reclassification)

    def test_unparsable_transcript_reclassifies(self):
        out = assemble_record(
            make_pair(), Category.NORMAL_DATA, "spec", reference_iface(),
            crux=parse_crux("not a document"),
        )
        assert isinstance(out, Reclassification)
        assert out.reason

    def test_empty_key_considerations_reclassifies(self):
        text = canned_crux_text().split("## Key Considerations")[0] + "## Key Considerations\n"
        out = assemble_record(
            make_pair(), Category.NORMAL_DATA, "spec", reference_iface(), crux=parse_crux(text)
        )
        assert isinstance(out, Reclassification)

    def test_special_requires_valid_verdict(self):
        crux = parse_crux(canned_crux_text())
        ok = assemble_record(
            make_pair(), Category.SPECIAL_NON_TEXT, "spec", reference_iface(),
            crux=crux, validation_verdict="valid",
        )
        assert ok["category"] == Category.SPECIAL_NON_TEXT.value
        rejected = assemble_record(
            make_pair(), Category.SPECIAL_NON_TEXT, "spec", reference_iface(),
            crux=crux, validation_verdict="the diagram is inconsistent",
        )
        assert isinstance(rejected, Reclassification)

    def test_provenance_preserved(self):
        record = assemble_record(
            make_pair(), Category.EASY_QUESTION, "spec", reference_iface(),
            provenance={"seed": 5},
        )
        assert record["provenance"] == {"seed": 5, "source_id": "t1"}


class TestDiagramBlocks:
    def test_diagram_comes_from_core_functions(self):
        report = parse_crux(canned_crux_text())
        assert diagram_blocks_for_realspec(report.doc) == report.doc.core_functions


@given(st.integers(min_value=0, max_value=5000))
def test_realspec_always_contains_interface_block(seed):
    pair = make_pair()
    text = build_realspec(pair, Category.NORMAL_DATA, full_degraded(), AugmentationPolicy(), seed)
    assert "Module name: TopModule" in text
    assert "First paragraph about a register." in text
