"""Simulation harness, pass@k scored straight into the per-task rows that
``evaluate`` writes, and the one report-table renderer.

Candidate Verilog is compiled and run against a task's testbench with an
external toolchain described by command templates. Correctness is judged by
comparing the run's monitored-output transcript against the transcript the
reference design produces under the same testbench: testbenches print one
line per sampled cycle, so the two transcripts align by line index.

Each toolchain step runs under kernel limits on the size of every file it
writes and on its address space (``OUTPUT_LIMIT``, ``MEMORY_LIMIT_KB``). Its
stdout and stderr are read back once, as text with invalid bytes replaced
(U+FFFD) and at most ``OUTPUT_LIMIT`` characters kept; a run whose stdout is
longer than that fails as ``truncated``.
"""

from __future__ import annotations

import math
import os
import select
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor  # cli._Simulator's pool; a tracer patches it
from dataclasses import dataclass, field

from .jsonl import ConfigError, check


# characters kept of each step's stdout and stderr; a run with longer stdout fails
OUTPUT_LIMIT = 4 * 1024 * 1024
# address space each toolchain step may use, in KiB
MEMORY_LIMIT_KB = 4 * 1024 * 1024


class ToolchainMissing(ConfigError):
    """The configured compiler or runner binary cannot be found (a usage error)."""


class DomainError(ValueError):
    """pass@k arguments outside 0 <= c <= n, 1 <= k <= n."""


class EmptyInput(ValueError):
    """An aggregate was requested over no samples."""


@dataclass(frozen=True)
class ToolchainConfig:
    """External simulator invocation templates.

    ``compile_cmd`` and ``run_cmd`` are shell-style token lists after
    substituting {design}, {tb} and {out}. ``env`` entries overlay the
    inherited environment.
    """

    compile_cmd: str = "iverilog -g2005 -o {out} {design} {tb}"
    run_cmd: str = "vvp {out}"
    env: dict[str, str] = field(default_factory=dict)
    compile_timeout_ms: int = 30_000
    keep_artifacts: bool = False
    workers: int = 4

    def __post_init__(self) -> None:
        check("toolchain", None, vars(self))

    @classmethod
    def echo(cls, **overrides) -> "ToolchainConfig":
        """The bundled text-echo pseudo-simulator (see cruxkit.echosim).

        The script is run by absolute path rather than with ``-m``: it needs
        only the standard library, so the child works from any scratch
        directory whether or not ``cruxkit`` is importable there. For the
        same reason it runs under ``-I -S``, which skips ``site`` and the
        environment and roughly halves each spawn.
        """
        py = shlex.quote(sys.executable)
        here = os.path.dirname(os.path.abspath(__file__))
        script = shlex.quote(os.path.join(here, "echosim.py"))
        return cls(
            compile_cmd=f"{py} -I -S {script} compile {{out}} {{design}} {{tb}}",
            run_cmd=f"{py} -I -S {script} run {{out}}",
            **overrides,
        )

    def check_available(self) -> None:
        """Raises ``ToolchainMissing`` unless both binaries are found by the
        lookup each step makes (``_find_binary``): on ``PATH`` after the
        ``env`` overlay, so a toolchain whose ``env`` puts the simulator on
        ``PATH`` passes, and from the command's own directory for a name
        with a slash, such as ``./mysim``."""
        env = {**os.environ, **self.env}
        for template in (self.compile_cmd, self.run_cmd):
            _find_binary(shlex.split(template)[0], env)


def _find_binary(name: str, env: dict[str, str]) -> str:
    """The path a toolchain step execs for ``name``: looked up on ``env``'s
    ``PATH``, or, for a name with a slash, from the command's own directory
    (not the step's scratch directory). Raises ``ToolchainMissing`` when
    there is none."""
    binary = shutil.which(os.path.abspath(name) if os.sep in name else name,
                          path=env.get("PATH"))
    if binary is None:
        raise ToolchainMissing(f"toolchain binary not found: {name!r}")
    return binary


@dataclass(frozen=True)
class SimJob:
    design_source: str
    testbench_source: str
    top_module: str = ""
    timeout_ms: int = 10_000

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be positive")
        if not self.design_source.strip() or not self.testbench_source.strip():
            raise EmptyInput("design and testbench sources must be nonempty")


@dataclass(frozen=True)
class SimOutcome:
    """Result of one compile+run. ``match_fraction`` is set iff the run
    completed; a run scored without reference lines matches itself (1.0).
    ``truncated`` marks a run whose stdout exceeded ``OUTPUT_LIMIT``."""

    compile_ok: bool
    ran_ok: bool
    stdout_lines: tuple[str, ...] = ()
    match_fraction: float | None = None
    timed_out: bool = False
    truncated: bool = False
    returncode: int | None = None
    log: str = ""
    scratch_dir: str = ""

    def __post_init__(self) -> None:
        if self.ran_ok and not self.compile_ok:
            raise ValueError("ran_ok requires compile_ok")
        if (self.match_fraction is not None) != self.ran_ok:
            raise ValueError("match_fraction must be present iff ran_ok")
        if self.match_fraction is not None and not 0.0 <= self.match_fraction <= 1.0:
            raise ValueError("match_fraction must be in [0,1]")


def normalize_line(line: str) -> str:
    return " ".join(line.split())


def match_outputs(candidate_lines: Sequence[str], reference_lines: Sequence[str]) -> float:
    """Fraction of reference lines the candidate reproduces, position by
    position after whitespace normalization. A short candidate counts its
    missing lines as mismatches; extra candidate lines are ignored."""
    if not reference_lines:
        return 1.0 if not candidate_lines else 0.0
    hits = 0
    for i, ref in enumerate(reference_lines):
        if i < len(candidate_lines) and normalize_line(candidate_lines[i]) == normalize_line(ref):
            hits += 1
    return hits / len(reference_lines)


def _render_cmd(template: str, design: str, tb: str, out: str) -> list[str]:
    return [tok.format(design=design, tb=tb, out=out) for tok in shlex.split(template)]


def _read_capped(f) -> str:
    """A step's captured output from the start, at most ``OUTPUT_LIMIT + 1``
    characters of it; the read is sized by the file, so a quiet step
    allocates nothing near the limit."""
    f.seek(0)
    return f.read(min(os.fstat(f.fileno()).st_size, OUTPUT_LIMIT + 1))


def _run_child(
    cmd: list[str], cwd: str, env: dict[str, str], timeout_ms: int
) -> tuple[int | None, str, str]:
    """Run one toolchain step in a session of its own; returns its return
    code (``None`` on timeout, with no output), stdout and stderr.

    The binary is resolved by ``_find_binary`` before the spawn, as
    ``check_available`` resolves it; under ``sh`` a missing one would only
    exit 127. ``sh`` sets the step's limits and execs it, keeping the pid;
    if a limit cannot be set, the step does not run. No file the step
    writes can hold more bytes than ``OUTPUT_LIMIT`` characters can take: a
    writer past that gets ``EFBIG`` or dies of ``SIGXFSZ``. Output goes to
    unnamed temporary files, so the step never stalls on a full pipe, and
    only its leader is waited for. When it exits or at the timeout, the
    step's whole process group is killed before the leader is reaped: the
    unreaped leader still holds the group id, so the signal reaches only
    processes the step started.
    """
    binary = _find_binary(cmd[0], env)
    # in 512-byte blocks; over 4 * (OUTPUT_LIMIT + 1) bytes decode to over
    # OUTPUT_LIMIT characters
    blocks = math.ceil(4 * (OUTPUT_LIMIT + 1) / 512)
    limits = f'ulimit -f {blocks} && ulimit -v {MEMORY_LIMIT_KB} && exec "$@"'
    with tempfile.TemporaryFile("w+", errors="replace") as out, \
            tempfile.TemporaryFile("w+", errors="replace") as err:
        with subprocess.Popen(
            ["/bin/sh", "-c", limits, "sh", binary, *cmd[1:]],
            cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            start_new_session=True,
        ) as proc:
            pidfd = os.pidfd_open(proc.pid)
            try:
                poller = select.poll()
                poller.register(pidfd, select.POLLIN)
                exited = bool(poller.poll(timeout_ms))
            finally:
                os.close(pidfd)
            os.killpg(proc.pid, signal.SIGKILL)
        if not exited:
            return None, "", ""
        return proc.returncode, _read_capped(out), _read_capped(err)


def run_sim(
    job: SimJob,
    toolchain: ToolchainConfig = ToolchainConfig(),
    reference_lines: Sequence[str] | Callable[[], Sequence[str]] | None = None,
) -> SimOutcome:
    """Compile and run one design+testbench pair in a fresh scratch directory.

    When ``reference_lines`` is given, ``match_fraction`` scores the run's
    transcript against it; without it a completed run scores 1.0 (used when
    producing the reference transcript itself). It may be a function that
    returns them, called only once the run has completed, so the sim can
    start before its reference's finishes. Compile failures, crashes,
    timeouts and over-limit output are outcomes, not exceptions; only a
    missing toolchain, or that function, raises. The scratch directory is
    removed on every exit unless ``keep_artifacts`` is set.
    """
    scratch = tempfile.mkdtemp(prefix="cruxsim-")
    try:
        design_path = os.path.join(scratch, "design.v")
        tb_path = os.path.join(scratch, "tb.v")
        out_path = os.path.join(scratch, "sim.image")
        with open(design_path, "w", encoding="utf-8") as f:
            f.write(job.design_source)
        with open(tb_path, "w", encoding="utf-8") as f:
            f.write(job.testbench_source)
        env = {**os.environ, **toolchain.env}
        code, stdout, stderr = _run_child(
            _render_cmd(toolchain.compile_cmd, design_path, tb_path, out_path),
            scratch, env, toolchain.compile_timeout_ms,
        )
        if code is None:
            return SimOutcome(
                compile_ok=False, ran_ok=False, timed_out=True,
                log="compile timed out", scratch_dir=scratch,
            )
        if code != 0:
            return SimOutcome(
                compile_ok=False, ran_ok=False, returncode=code,
                log=(stderr or stdout)[-4000:], scratch_dir=scratch,
            )
        code, stdout, stderr = _run_child(
            _render_cmd(toolchain.run_cmd, design_path, tb_path, out_path),
            scratch, env, job.timeout_ms,
        )
        if code is None:
            return SimOutcome(
                compile_ok=True, ran_ok=False, timed_out=True,
                log="run timed out", scratch_dir=scratch,
            )
        if len(stdout) > OUTPUT_LIMIT:
            return SimOutcome(
                compile_ok=True, ran_ok=False, truncated=True, returncode=code,
                log=f"run output exceeded {OUTPUT_LIMIT} characters", scratch_dir=scratch,
            )
        lines = tuple(stdout.splitlines())
        if code != 0:
            return SimOutcome(
                compile_ok=True, ran_ok=False, stdout_lines=lines, returncode=code,
                log=stderr[-4000:], scratch_dir=scratch,
            )
        if callable(reference_lines):
            reference_lines = reference_lines()
        fraction = match_outputs(lines, lines if reference_lines is None else reference_lines)
        return SimOutcome(
            compile_ok=True, ran_ok=True, stdout_lines=lines,
            match_fraction=fraction, returncode=0, scratch_dir=scratch,
        )
    finally:
        if not toolchain.keep_artifacts:
            shutil.rmtree(scratch, ignore_errors=True)


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased probability that at least one of k samples drawn without
    replacement from n (of which c are correct) is correct.

    Computed in product form: 1 - prod_{i=n-c+1..n} (1 - k/i). Exactly 0.0
    when c == 0 and exactly 1.0 when n - c < k.
    """
    if not isinstance(n, int) or not isinstance(c, int) or not isinstance(k, int):
        raise DomainError("n, c, k must be integers")
    if n < 1 or not 0 <= c <= n or not 1 <= k <= n:
        raise DomainError(f"need 0 <= c <= n and 1 <= k <= n, got n={n} c={c} k={k}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    prod = 1.0
    for i in range(n - c + 1, n + 1):
        prod *= 1.0 - k / i
    return 1.0 - prod


def aggregate_report(
    samples: dict[str, list[SimOutcome]],
    threshold: float = 1.0,
    k_values: tuple[int, ...] = (1, 5, 10),
) -> tuple[list[dict], dict[int, float], list[str]]:
    """Tally outcomes per task and estimate pass@k: the per-task rows as
    ``per_task.jsonl`` holds them (``task_id``, ``n``, ``c`` and each
    ``pass@<k>``), sorted by task id; each k's mean over its tasks; and the
    warnings, in ``samples``' task order.

    A sample is correct when it ran and its match_fraction meets the
    threshold. Tasks with no samples score 0 with a warning; a k larger than
    a task's sample count cannot be estimated (None) and is left out of that
    k's aggregate, which is 0.0 when no task has an estimate.
    """
    if not samples:
        raise EmptyInput("no tasks to aggregate")
    if not k_values or any(k < 1 for k in k_values):
        raise DomainError("k_values must be positive")
    rows: list[dict] = []
    warnings: list[str] = []
    for task_id, outcomes in samples.items():
        n = len(outcomes)
        c = sum(1 for o in outcomes if o.ran_ok and o.match_fraction >= threshold)
        rows.append({"task_id": task_id, "n": n, "c": c, **{
            f"pass@{k}": 0.0 if n == 0 else None if k > n else pass_at_k(n, c, k)
            for k in k_values}})
        if n == 0:
            warnings.append(f"task {task_id!r} has no samples; scored 0")
        elif n < max(k_values):
            warnings.append(f"task {task_id!r} has n={n} < max k; those k skipped")
    rows.sort(key=lambda row: row["task_id"])
    aggregate = {}
    for k in k_values:
        values = [row[f"pass@{k}"] for row in rows if row[f"pass@{k}"] is not None]
        aggregate[k] = math.fsum(values) / len(values) if values else 0.0
    return rows, aggregate, warnings


def render_table(header: list[str], rows: Iterable[Sequence], csv: bool = False) -> str:
    """Header and one line per row, each ending in a newline: tab-separated,
    with floats to 4 decimals and ``-`` for a missing value, or CSV, with
    exact (``repr``) floats and an empty cell. Every report table is
    rendered here."""

    def cell(value) -> str:
        if value is None:
            return "" if csv else "-"
        if isinstance(value, float):
            return repr(value) if csv else f"{value:.4f}"
        return str(value)

    sep = "," if csv else "\t"
    return "".join(sep.join(line) + "\n" for line in [header, *(map(cell, row) for row in rows)])


def pass_at_k_table(
    rows: list[dict],
    k_values: list[int] | tuple[int, ...],
    csv: bool = False,
    aggregate: dict[int, float] | None = None,
) -> str:
    """The pass@k table of ``aggregate_report``'s per-task rows, a missing
    estimate shown as skipped, with an ``aggregate`` row last when one is
    given. ``evaluate``'s ``summary.txt`` and ``summary.csv`` are rendered here."""
    header = ["task_id" if csv else "task", "n", "c", *(f"pass@{k}" for k in k_values)]
    cells = [[row["task_id"], row["n"], row["c"], *(row.get(f"pass@{k}") for k in k_values)]
             for row in rows]
    if aggregate is not None:
        cells.append(["aggregate", "", "", *(aggregate[k] for k in k_values)])
    return render_table(header, cells, csv)
