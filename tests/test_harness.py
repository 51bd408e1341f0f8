"""Simulation orchestration, output matching, and pass@k estimation."""

import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from cruxkit import harness
from cruxkit.harness import (
    DomainError,
    EmptyInput,
    SimJob,
    SimOutcome,
    TaskTally,
    ToolchainConfig,
    ToolchainMissing,
    aggregate_report,
    match_outputs,
    normalize_line,
    pass_at_k,
    report_csv,
    report_rows,
    report_table,
    run_sim,
)

GOOD_DESIGN = """\
// EMIT: alpha 1
// EMIT: beta 2
module m(input clk);
endmodule
"""

GOOD_TB = """\
// EMIT: gamma 3
module tb;
endmodule
"""


def outcome_for(design, tb=GOOD_TB, reference=None, toolchain=None, timeout_ms=10_000):
    toolchain = toolchain or ToolchainConfig.echo()
    return run_sim(SimJob(design, tb, "m", timeout_ms), toolchain, reference)


def _alive(pid):
    """True while ``pid`` runs; a killed orphan left as a zombie for an init
    that does not reap counts as gone."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:  # gone since os.kill, or no /proc to ask
        return not os.path.isdir("/proc")


class TestEchoLane:
    def test_clean_run_self_match(self):
        out = outcome_for(GOOD_DESIGN)
        assert out.compile_ok and out.ran_ok
        assert out.stdout_lines == ("alpha 1", "beta 2", "gamma 3")
        assert out.match_fraction == 1.0
        assert not out.timed_out

    def test_reference_comparison(self):
        reference = ["alpha 1", "beta 2", "gamma 3"]
        mutant = GOOD_DESIGN.replace("beta 2", "beta 9")
        out = outcome_for(mutant, reference=reference)
        assert out.ran_ok
        assert out.match_fraction == pytest.approx(2.0 / 3.0)

    def test_compile_failure(self):
        poisoned = GOOD_DESIGN + "SYNTAX_ERROR\n"
        out = outcome_for(poisoned, reference=["alpha 1"])
        assert not out.compile_ok
        assert not out.ran_ok
        assert out.match_fraction is None
        assert out.returncode != 0
        assert "echosim: syntax error in design" in out.log

    def test_poison_token_in_comment_is_fine(self):
        commented = GOOD_DESIGN + "// SYNTAX_ERROR only mentioned in a comment\n"
        out = outcome_for(commented)
        assert out.compile_ok and out.ran_ok

    def test_runtime_crash(self):
        crasher = GOOD_DESIGN + "// EXITCODE: 3\n"
        out = outcome_for(crasher, reference=["alpha 1"])
        assert out.compile_ok
        assert not out.ran_ok
        assert out.match_fraction is None
        assert out.returncode == 3

    @pytest.mark.parametrize("design_code, want", [("// EXITCODE: 3\n", 3), ("", 4)])
    def test_design_exit_code_wins_over_the_testbench(self, design_code, want):
        out = outcome_for(GOOD_DESIGN + design_code, tb=GOOD_TB + "// EXITCODE: 4\n")
        assert out.returncode == want
        assert out.stdout_lines == ("alpha 1", "beta 2", "gamma 3")

    def test_timeout(self):
        sleeper = "// SLEEP: 30\n" + GOOD_DESIGN
        out = outcome_for(sleeper, reference=["alpha 1"], timeout_ms=300)
        assert out.compile_ok
        assert not out.ran_ok
        assert out.timed_out
        assert out.match_fraction is None

    def test_timeout_kills_background_children(self, tmp_path):
        pidfile = tmp_path / "pidfile"
        tc = ToolchainConfig(
            compile_cmd="true {out}",
            run_cmd=f'sh -c "sleep 7 & echo $! > {shlex.quote(str(pidfile))}; wait" {{out}}',
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc, timeout_ms=300)
        assert out.timed_out and not out.ran_ok
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 1.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(pid), f"background sleep {pid} outlived the timed-out run"

    def test_normal_exit_kills_background_children(self, tmp_path):
        pidfile = tmp_path / "pidfile"
        tc = ToolchainConfig(
            compile_cmd="true {out}",
            run_cmd=(
                f'sh -c "sleep 4 >/dev/null 2>&1 & echo $! > {shlex.quote(str(pidfile))}" {{out}}'
            ),
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.ran_ok, out.log
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 1.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(pid), f"background sleep {pid} outlived the finished run"

    def test_missing_binary_raises(self):
        tc = ToolchainConfig(
            compile_cmd="definitely-not-a-simulator {out} {design} {tb}",
            run_cmd="also-missing {out}",
        )
        with pytest.raises(ToolchainMissing):
            outcome_for(GOOD_DESIGN, toolchain=tc)

    def test_scratch_cleaned_up(self):
        out = outcome_for(GOOD_DESIGN)
        assert not os.path.exists(out.scratch_dir)

    def test_runs_without_cruxkit_importable_from_child_cwd(self, tmp_path, monkeypatch):
        # a relative PYTHONPATH resolves against the child's scratch cwd, not here
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PYTHONPATH", "src")
        tc = ToolchainConfig.echo()
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.ran_ok, out.log
        assert out.stdout_lines == ("alpha 1", "beta 2", "gamma 3")
        # an editable install would hide a `-m cruxkit.echosim` regression above
        for cmd in (tc.compile_cmd, tc.run_cmd):
            argv = shlex.split(cmd)
            assert "-m" not in argv
            [script] = [tok for tok in argv if tok.endswith("echosim.py")]
            assert os.path.isabs(script)
            assert os.path.basename(script) == "echosim.py"
            assert os.path.isfile(script)

    def test_keep_artifacts(self):
        import dataclasses
        import shutil

        tc = dataclasses.replace(ToolchainConfig.echo(), keep_artifacts=True)
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        try:
            assert os.path.exists(os.path.join(out.scratch_dir, "design.v"))
        finally:
            shutil.rmtree(out.scratch_dir, ignore_errors=True)


class TestUntrustedOutput:
    """Toolchain steps that print bytes that are not text or too much of it
    end as outcomes, and leave no scratch directory behind."""

    @pytest.fixture(autouse=True)
    def scratch_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    def leftovers(self, scratch_root):
        return list(scratch_root.glob("cruxsim-*"))

    def test_invalid_byte_in_run_stdout_is_replaced(self, scratch_root):
        tc = ToolchainConfig(compile_cmd="true {out}", run_cmd="""sh -c "printf 'ok\\377\\n'" {out}""")
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.ran_ok, out.log
        assert out.stdout_lines == ("ok\ufffd",)
        assert out.match_fraction == 1.0
        assert self.leftovers(scratch_root) == []

    def test_invalid_byte_in_compile_stderr_is_replaced(self, scratch_root):
        tc = ToolchainConfig(
            compile_cmd="""sh -c "printf 'bad\\377\\n' >&2; exit 1" {out}""", run_cmd="true {out}"
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert not out.compile_ok and not out.ran_ok
        assert out.returncode == 1
        assert "bad\ufffd" in out.log
        assert self.leftovers(scratch_root) == []

    @pytest.mark.parametrize("size, truncated", [(100, False), (101, True)])
    def test_stdout_over_the_limit_fails_truncated(self, scratch_root, monkeypatch, size, truncated):
        monkeypatch.setattr(harness, "OUTPUT_LIMIT", 100)
        tc = ToolchainConfig(
            compile_cmd="true {out}", run_cmd=f'sh -c "yes 0123456789 | head -c {size}" {{out}}'
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.compile_ok
        assert out.truncated is truncated
        assert out.ran_ok is not truncated
        assert out.returncode == 0
        assert self.leftovers(scratch_root) == []

    def test_flood_is_stopped_once_its_capture_file_passes_the_byte_cap(
        self, scratch_root, monkeypatch
    ):
        # a background loop that prints until killed, as a design without $finish does
        monkeypatch.setattr(harness, "OUTPUT_LIMIT", 1000)
        pidfile = scratch_root / "pidfile"
        tc = ToolchainConfig(
            compile_cmd="true {out}",
            run_cmd=(
                f'sh -c "(while :; do echo 0123456789; done) & '
                f'echo $! > {shlex.quote(str(pidfile))}; wait" {{out}}'
            ),
        )
        start = time.monotonic()
        out = outcome_for(GOOD_DESIGN, toolchain=tc, timeout_ms=10_000)
        assert time.monotonic() - start < 5.0
        assert out.truncated and not out.timed_out
        assert out.compile_ok and not out.ran_ok
        pid = int(pidfile.read_text())
        deadline = time.monotonic() + 1.0
        while _alive(pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(pid), f"flooding loop {pid} outlived the stopped run"
        assert self.leftovers(scratch_root) == []

    def test_one_burst_is_cut_at_the_byte_cap(self, scratch_root, monkeypatch):
        # the whole burst is written before any check of the file could see it
        monkeypatch.setattr(harness, "OUTPUT_LIMIT", 1000)
        sizes = []
        read_capped = harness._read_capped

        def spy(f):
            sizes.append(os.fstat(f.fileno()).st_size)
            return read_capped(f)

        monkeypatch.setattr(harness, "_read_capped", spy)
        tc = ToolchainConfig(
            compile_cmd="true {out}", run_cmd='sh -c "yes 0123456789 | head -c 5000000" {out}'
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.truncated and out.compile_ok and not out.ran_ok
        # the file limit is set in 512-byte blocks
        cap = math.ceil(4 * 1001 / 512) * 512
        assert len(sizes) == 4 and max(sizes) <= cap, sizes
        assert self.leftovers(scratch_root) == []

    def test_allocation_over_the_memory_limit_fails_the_run(self, scratch_root, monkeypatch):
        monkeypatch.setattr(harness, "MEMORY_LIMIT_KB", 64 * 1024, raising=False)
        tc = ToolchainConfig(
            compile_cmd="true {out}",
            run_cmd=f'{shlex.quote(sys.executable)} -I -S -c "bytearray(300 << 20)" {{out}}',
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.compile_ok and not out.ran_ok
        assert "MemoryError" in out.log
        assert self.leftovers(scratch_root) == []

    def test_a_limit_that_cannot_be_set_runs_nothing(self, scratch_root, monkeypatch):
        monkeypatch.setattr(harness, "MEMORY_LIMIT_KB", -1, raising=False)
        marker = scratch_root / "ran"
        tc = ToolchainConfig(
            compile_cmd=f"touch {shlex.quote(str(marker))} {{out}}", run_cmd="true {out}"
        )
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert not out.compile_ok and not out.ran_ok
        assert not marker.exists()
        assert self.leftovers(scratch_root) == []

    def test_a_step_reads_nothing_of_the_callers_stdin(self):
        """A step's stdin is empty, not the caller's: a design cannot consume
        a pipeline's piped input or wait on a terminal."""
        probe = (
            "from cruxkit.harness import SimJob, ToolchainConfig, run_sim\n"
            "tc = ToolchainConfig(compile_cmd='true {out}', run_cmd=\"sh -c 'head -c 40; true' {out}\")\n"
            "print(run_sim(SimJob('module m; endmodule', 'module tb; endmodule', 'm', 10000), tc))"
        )
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        result = subprocess.run(
            [sys.executable, "-c", probe], input="the caller's own input\n",
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, result.stderr
        assert "ran_ok=True" in result.stdout and "stdout_lines=()" in result.stdout

    def test_missing_toolchain_leaves_no_scratch(self, scratch_root):
        tc = ToolchainConfig(compile_cmd="definitely-not-a-simulator {out}", run_cmd="true {out}")
        with pytest.raises(ToolchainMissing):
            outcome_for(GOOD_DESIGN, toolchain=tc)
        assert self.leftovers(scratch_root) == []


class TestOutcomeInvariants:
    def test_ran_requires_compile(self):
        with pytest.raises(ValueError):
            SimOutcome(
                compile_ok=False, ran_ok=True, stdout_lines=(), match_fraction=1.0,
                timed_out=False, returncode=0, log="", scratch_dir="",
            )

    def test_match_fraction_only_when_ran(self):
        with pytest.raises(ValueError):
            SimOutcome(
                compile_ok=True, ran_ok=False, stdout_lines=(), match_fraction=0.5,
                timed_out=False, returncode=1, log="", scratch_dir="",
            )
        with pytest.raises(ValueError):
            SimOutcome(
                compile_ok=True, ran_ok=True, stdout_lines=(), match_fraction=None,
                timed_out=False, returncode=0, log="", scratch_dir="",
            )

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            SimOutcome(
                compile_ok=True, ran_ok=True, stdout_lines=(), match_fraction=1.5,
                timed_out=False, returncode=0, log="", scratch_dir="",
            )


class TestMatching:
    def test_normalize_collapses_whitespace(self):
        assert normalize_line("  a\t b   c ") == "a b c"

    def test_positional_fraction(self):
        assert match_outputs(["a", "b", "c"], ["a", "x", "c"]) == pytest.approx(2 / 3)

    def test_whitespace_insensitive(self):
        assert match_outputs(["a   b"], ["a b"]) == 1.0

    def test_short_candidate_counts_misses(self):
        assert match_outputs(["a"], ["a", "b", "c", "d"]) == 0.25

    def test_long_candidate_truncated(self):
        assert match_outputs(["a", "b", "junk"], ["a", "b"]) == 1.0

    def test_both_empty_is_full_match(self):
        assert match_outputs([], []) == 1.0

    def test_empty_candidate_vs_reference(self):
        assert match_outputs([], ["a"]) == 0.0


def pass_at_k_oracle(n: int, c: int, k: int) -> Fraction:
    """1 - C(n-c, k) / C(n, k) computed with exact big-int arithmetic."""
    return 1 - Fraction(math.comb(n - c, k), math.comb(n, k))


class TestPassAtK:
    def test_matches_exact_oracle(self):
        for n in range(1, 21):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    got = pass_at_k(n, c, k)
                    want = float(pass_at_k_oracle(n, c, k))
                    assert abs(got - want) <= 1e-12, (n, c, k)

    def test_exhaustive_enumeration_small(self):
        # enumerate every k-subset and count those containing a passing sample
        for n in range(1, 9):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    hits = sum(
                        1
                        for subset in combinations(range(n), k)
                        if any(i < c for i in subset)
                    )
                    want = hits / math.comb(n, k)
                    assert pass_at_k(n, c, k) == pytest.approx(want, abs=1e-12)

    def test_exact_edges(self):
        assert pass_at_k(10, 0, 5) == 0.0
        assert pass_at_k(10, 10, 1) == 1.0
        assert pass_at_k(5, 3, 4) == 1.0  # n - c < k forces a passing pick

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            pass_at_k(0, 0, 1)
        with pytest.raises(DomainError):
            pass_at_k(5, 6, 1)
        with pytest.raises(DomainError):
            pass_at_k(5, 2, 0)
        with pytest.raises(DomainError):
            pass_at_k(5, 2, 6)
        with pytest.raises(DomainError):
            pass_at_k(5.0, 2, 1)

    @given(
        st.integers(min_value=1, max_value=60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=0, max_value=n),
                st.integers(min_value=1, max_value=n),
            )
        )
    )
    def test_bounds_property(self, ncx):
        n, c, k = ncx
        value = pass_at_k(n, c, k)
        assert 0.0 <= value <= 1.0
        if c > 0:
            assert value > 0.0
        if k > 1:
            assert value >= pass_at_k(n, c, k - 1) - 1e-15  # monotone in k

    @given(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=1, max_value=n),
            )
        )
    )
    def test_monotone_in_c(self, ncx):
        n, c, k = ncx
        assert pass_at_k(n, c + 1, k) >= pass_at_k(n, c, k) - 1e-15


def fake_outcome(match: float | None, compiled=True):
    ran = match is not None
    return SimOutcome(
        compile_ok=compiled or ran, ran_ok=ran, stdout_lines=(),
        match_fraction=match, timed_out=False,
        returncode=0 if ran else 1, log="", scratch_dir="",
    )


class TestAggregate:
    def test_counts_and_estimates(self):
        samples = {
            "t1": [fake_outcome(1.0), fake_outcome(0.5), fake_outcome(None, compiled=False)],
            "t2": [fake_outcome(1.0), fake_outcome(1.0), fake_outcome(1.0)],
        }
        report = aggregate_report(samples, threshold=1.0, k_values=(1, 3))
        t1 = report.per_task["t1"]
        assert (t1.n, t1.c) == (3, 1)
        assert report.estimates[("t1", 1)] == pytest.approx(1 / 3)
        assert report.estimates[("t2", 3)] == 1.0
        assert report.aggregate[1] == pytest.approx((1 / 3 + 1.0) / 2)

    def test_threshold_changes_counts(self):
        samples = {"t": [fake_outcome(0.8), fake_outcome(0.9)]}
        strict = aggregate_report(samples, threshold=1.0, k_values=(1,))
        lax = aggregate_report(samples, threshold=0.75, k_values=(1,))
        assert strict.per_task["t"].c == 0
        assert lax.per_task["t"].c == 2

    def test_zero_samples_scores_zero_with_warning(self):
        report = aggregate_report({"t": []}, k_values=(1,))
        assert report.estimates[("t", 1)] == 0.0
        assert any("no samples" in w for w in report.warnings)

    def test_k_beyond_n_excluded(self):
        report = aggregate_report({"t": [fake_outcome(1.0)]}, k_values=(1, 5))
        assert report.estimates[("t", 5)] is None
        # nothing contributes to the k=5 mean; the warning carries the story
        assert report.aggregate[5] == 0.0
        assert any("skipped" in w for w in report.warnings)

    def test_report_writers_agree(self):
        samples = {"t": [fake_outcome(1.0), fake_outcome(0.0)]}
        report = aggregate_report(samples, k_values=(1, 2))
        rows = report_rows(report)
        assert rows[0]["task_id"] == "t"
        assert rows[0]["pass@2"] == 1.0
        table = report_table(report)
        assert "pass@1" in table.splitlines()[0]
        csv_text = report_csv(report)
        assert csv_text.splitlines()[0].startswith("task_id,")
        # csv floats are repr()s so they parse back exactly
        value = csv_text.splitlines()[1].split(",")[3]
        assert float(value) == report.estimates[("t", 1)]

    def test_tally_validation(self):
        with pytest.raises(ValueError):
            TaskTally(n=2, c=3)


class TestToolchainConfig:
    def test_from_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "tc.json"
        path.write_text(json.dumps({"compile_cmd": "a {out} {design} {tb}", "nope": 1}))
        with pytest.raises(ValueError):
            ToolchainConfig.from_file(str(path))

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "tc.json"
        echo = ToolchainConfig.echo()
        path.write_text(
            json.dumps({"compile_cmd": echo.compile_cmd, "run_cmd": echo.run_cmd})
        )
        tc = ToolchainConfig.from_file(str(path))
        assert tc.compile_cmd == echo.compile_cmd

    def test_binaries_and_availability(self):
        ToolchainConfig.echo().check_available()
        missing = ToolchainConfig(compile_cmd="nope {out} {design} {tb}", run_cmd="x {out}")
        with pytest.raises(ToolchainMissing):
            missing.check_available()

    def test_binary_on_the_env_overlay_path_is_available(self, tmp_path):
        bindir = tmp_path / "bin"
        bindir.mkdir()
        mysim = bindir / "mysim"
        mysim.write_text("#!/bin/sh\necho tick\n")
        mysim.chmod(0o755)
        tc = ToolchainConfig(
            compile_cmd="mysim {out}", run_cmd="mysim {out}",
            env={"PATH": f"{bindir}:/usr/bin:/bin"},
        )
        tc.check_available()
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert out.ran_ok and out.stdout_lines == ("tick",)

    def test_binary_named_with_a_slash_runs_from_the_command_directory(
        self, tmp_path, monkeypatch
    ):
        # the check and every step resolve ./mysim from here, not from the
        # step's scratch directory
        mysim = tmp_path / "mysim"
        mysim.write_text("#!/bin/sh\necho tick\n")
        mysim.chmod(0o755)
        monkeypatch.chdir(tmp_path)
        tc = ToolchainConfig(compile_cmd="./mysim {out}", run_cmd="./mysim {out}")
        tc.check_available()
        out = outcome_for(GOOD_DESIGN, toolchain=tc)
        assert (out.ran_ok, out.stdout_lines, out.match_fraction) == (True, ("tick",), 1.0)

    def test_placeholders_required(self):
        with pytest.raises(ValueError):
            ToolchainConfig(compile_cmd="cc {design} {tb}", run_cmd="run {out}")

    def test_empty_sources_rejected(self):
        with pytest.raises(EmptyInput):
            SimJob("", GOOD_TB)
        with pytest.raises(EmptyInput):
            SimJob(GOOD_DESIGN, "  ")
