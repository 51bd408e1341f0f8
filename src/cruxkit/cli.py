"""Command-line pipeline around the corpus, harness, reward, and GRPO layers.

Subcommands mirror the data flow: categorize raw pairs, emit/ingest CRUX
derivation transcripts, build the dataset, evaluate candidate code with a
simulator, score rollout groups, self-check the GRPO math, and render
reports. Every output file starts with a meta row carrying the config hash
and seed, and reruns with identical inputs and the mock provider are
byte-identical (wall-clock measurements are deliberately kept out of files).

Each command loads only the layers it drives: ``harness``, ``jsonl`` and
``grpo`` (which imports no other cruxkit module) are loaded with this one,
and ``corpus``, ``cruxdoc``, ``interface``, ``rewards`` and ``gateway`` are
imported inside the commands and helpers that use them. So ``evaluate`` and
``report`` never load the corpus, parsing, reward or provider layers.

``build-dataset`` computes each row from that row, the config and the
transcripts alone, so it splits its rows over the CPUs the process may use
(``_map_slices``): contiguous slices of at least ``MIN_SLICE_ROWS`` rows,
the first built in this process and each other in a forked child. Output
rows keep input order and the error reported is the first in row order, as
in a serial loop. Forking this way is Linux-only, like the harness's pidfd.

Every input row is checked once, as it is read, against its kind in
``ROW_KINDS`` (build-dataset checks each pair row as it builds it, so a bad
row is still reported in row order): a row that is not an object, lacks a
key or holds a value of another type is a usage error naming the row.

Exit codes: 0 success, 1 internal error, 2 usage or configuration error.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
import threading
from collections import defaultdict, deque
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import FIRST_COMPLETED, Future, wait
from typing import TYPE_CHECKING, NamedTuple

import click

from . import __version__, harness, jsonl
from .grpo import check_coefficients, objective_gradient_check, random_toy_instance
from .harness import (
    SimJob,
    SimOutcome,
    ToolchainConfig,
    ToolchainMissing,
    aggregate_report,
    pass_at_k_table,
    render_table,
    report_csv,
    report_rows,
    report_table,
)

if TYPE_CHECKING:
    from .corpus import RawPair
    from .gateway import ProviderConfig, TokenLogProbSeq


class ConfigError(ValueError):
    """Bad configuration, a missing input file or a malformed input row (exit code 2)."""


DEFAULT_SCORING_TEMPLATE = "{realspec}\n\n{crux}\n\n"


def default_config() -> dict:
    return {
        "seed": 0,
        "degradation": {"p_full_retain": 0.2, "p_keep_element": 0.5},
        "augmentation": {
            "p_middle_insert": 24.0 / 165.0,
            "p_prefix": 0.5,
            "p_suffix": 0.5,
        },
        "schedule": {"steps_per_epoch": 520},
        "grpo": {"epsilon": 0.2, "beta": 0.0, "eps_std": 1e-8},
        "k_values": [1, 5, 10],
        "threshold": 1.0,
        "probe_n": 1,
        "keywords": None,
        "timeout_ms": 10_000,
        "scoring_template": DEFAULT_SCORING_TEMPLATE,
    }


def _section_fields(key: str) -> set[str] | None:
    """Field names of the class a config section is passed to whole as
    keyword arguments; any of them may be set, not only those with a default
    in default_config(). None for a section that no class takes. Only a
    config file that sets the section loads the class's layer."""
    if key == "degradation":
        from .interface import DegradationPolicy as cls
    elif key == "augmentation":
        from .corpus import AugmentationPolicy as cls
    elif key == "schedule":
        from .rewards import WeightSchedule as cls
    else:
        return None
    return {f.name for f in dataclasses.fields(cls)}


def load_config(path: str | None, seed: int | None) -> dict:
    cfg = default_config()
    if path is not None:
        with open(_require_file(path, "config file"), encoding="utf-8") as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        for key, value in loaded.items():
            if key not in cfg:
                raise ConfigError(f"unknown config key: {key}")
            if isinstance(cfg[key], dict):
                if not isinstance(value, dict):
                    raise ConfigError(f"config key {key} must be an object")
                unknown = set(value) - (_section_fields(key) or set(cfg[key]))
                if unknown:
                    raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
                cfg[key].update(value)
            else:
                cfg[key] = value
    if seed is not None:
        cfg["seed"] = seed
    _check_grpo(cfg["grpo"]["epsilon"], cfg["grpo"]["beta"])
    return cfg


def _check_grpo(epsilon: float, beta: float) -> None:
    try:
        check_coefficients(epsilon, beta)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad grpo settings: {exc}") from exc


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def meta_for(cfg: dict, **extra) -> dict:
    return {
        "config_sha256": config_hash(cfg),
        "seed": cfg["seed"],
        "tool": f"cruxkit {__version__}",
        **extra,
    }


def derive_seed(master_seed: int, task_id: str, label: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{task_id}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _require_file(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


@functools.cache
def _corpus():
    """The corpus layer, imported by the first call: ``evaluate`` and
    ``report`` never load it, and a per-row caller pays no import."""
    from . import corpus

    return corpus


class _Type(NamedTuple):
    """What a row kind holds under a key: the type of its value, as errors
    and README name it, and the type's test; whether the key may be absent;
    and the errors for a bad value and for no key."""

    name: str
    test: Callable[[object], bool]
    optional: bool = False
    bad: str = "{what}: {key!r} must be a {name}"
    absent: str = "{what} has no {key!r}"


def _is(name: str, *types: type, optional: bool = False) -> _Type:
    return _Type(name, lambda value: isinstance(value, types), optional)


_SCALAR = _is("scalar", str, int, float, bool, type(None))  # a JSON value that hashes
_STR, _LIST, _DICT = _is("str", str), _is("list", list), _is("dict", dict)
_NUMBER, _ANY = _is("number", int, float), _Type("any", lambda value: True)
_PAYLOAD = _is("dict or null", dict, type(None), optional=True)
_NO_CATEGORY = "{what} has no known category ({value!r}); run categorize first"
_PAIR = {"id": _SCALAR, "description": _STR, "reference_code": _STR}
# Each kind of input row: the label and the key that name a row in errors
# ("<label> <its id>", or "<label> <its place>" when it has no id that is a
# scalar other than null), and the keys it holds.
ROW_KINDS = {
    "pair": ("corpus row", "id", _PAIR),
    "categorized pair": ("corpus row", "id", {**_PAIR, "category": _Type(
        "EasyQuestion, NormalData or SpecialNonText",
        lambda value: isinstance(value, str) and value in _corpus().CATEGORY_NAMES,
        bad=_NO_CATEGORY, absent=_NO_CATEGORY)}),
    "verdict": ("verdict row", "id", {"id": _SCALAR, "passed": _ANY}),
    "transcript": ("transcript row", "id", {"id": _SCALAR, "stage": _SCALAR, "text": _STR}),
    "task": ("task row", "id", {"id": _SCALAR, "reference_code": _STR}),
    "candidates": ("candidates row", None, {"task_id": _SCALAR, "candidates": _Type(
        "list of strings", lambda value: isinstance(value, list)
        and all(isinstance(code, str) for code in value), optional=True)}),
    "group": ("groups row", None, {"task_id": _SCALAR, "rollouts": _LIST, "step": _Type(
        "int >= 0", lambda value: type(value) is int and value >= 0, optional=True,
        bad="{what} has a bad {key!r}: {value!r}")}),
    "rollout": ("groups row", None, {"code_text": _STR, "crux_text": _STR, "logprobs_new": _DICT,
                                  "logprobs_old": _DICT, "logprobs_ref": _PAYLOAD,
                                  "crux_score": _PAYLOAD}),
    "reward": ("reward row", None, {"step": _NUMBER, "rewards": _Type(
        "list of objects with a number 'mixed'", lambda value: isinstance(value, list)
        and all(isinstance(r, dict) and _NUMBER.test(r.get("mixed")) for r in value))}),
    "per-task": ("per-task row", None, {"task_id": _ANY, "n": _ANY, "c": _ANY}),
}


def _check(kind: str, place: int | str, row):
    """``row``, at ``place`` in its file, if it is an object holding each
    key of its ``kind`` (an optional one may be absent) with a value of the
    key's type; else a usage error naming the row."""
    kind_label, named_by, keys = ROW_KINDS[kind]
    if not isinstance(row, dict):
        message, key, rule, row = "{what} is not an object", None, _ANY, {}
    else:
        for key, rule in keys.items():
            if key in row:
                if rule.test(row[key]):
                    continue
                message = rule.bad
            elif rule.optional:
                continue
            else:
                message = rule.absent
            break
        else:
            return row
    # the row's name is only worked out for its error
    name = row.get(named_by) if named_by else None
    named = name is not None and _SCALAR.test(name)
    what = f"{kind_label} {repr(name) if named else place}"
    raise ConfigError(message.format(what=what, key=key, value=row.get(key), name=rule.name))


def _rows(kind: str | None, path: str, what: str) -> Iterator:
    """The ``what`` file's rows, each checked as ``kind`` (unless None) as read."""
    rows = jsonl.read_rows(_require_file(path, what))
    return rows if kind is None else (_check(kind, place, row) for place, row in enumerate(rows, 1))


def _load(path: str, kind: str | None, what: str = "input file") -> list:
    """Every row of ``_rows``; none is a usage error."""
    rows = list(_rows(kind, path, what))
    if not rows:
        raise ConfigError(f"no rows in {path}")
    return rows


def _as_pair(row: dict) -> RawPair:
    """A checked pair row's pair; an empty id or blank text is a usage error."""
    try:
        return _corpus().RawPair(row["id"], row["description"], row["reference_code"])
    except ValueError as exc:
        raise ConfigError(f"bad corpus row {row['id']!r}: {exc}") from exc


def _toolchain(path: str | None) -> ToolchainConfig:
    if path is None:
        return ToolchainConfig()
    try:
        return ToolchainConfig.from_file(_require_file(path, "toolchain config"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad toolchain config: {exc}") from exc


def _provider(path: str | None, mock_script: str | None) -> ProviderConfig:
    from .gateway import ProviderConfig

    if mock_script is None and path is None:
        return ProviderConfig(kind="mock")
    script = None if mock_script is None else _require_file(mock_script, "mock provider script")
    try:
        if script is None:
            return ProviderConfig.from_file(_require_file(path, "provider config"))
        with open(script, encoding="utf-8") as f:
            return ProviderConfig(kind="mock", mock=json.load(f))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad provider config: {exc}") from exc


def _testbench_path(directory: str, task_id: str) -> str:
    path = os.path.join(directory, f"{task_id}_tb.v")
    if not os.path.exists(path):
        raise ConfigError(f"testbench not found for task {task_id!r}: {path}")
    return path


_EMPTY_DESIGN = SimOutcome(compile_ok=False, ran_ok=False, log="empty design")


class _Simulator:
    """Simulates a command's batches of designs on one pool of the
    toolchain's ``workers`` threads, so ``workers`` bounds every sim.

    ``stream`` reads ``(row, task_id, reference_code, codes)`` batches ahead
    while fewer than 2 x ``workers`` sims are queued or running, and
    submits each batch's sims as it is read: the task's reference, once
    per command, then the batch's distinct designs. The pool is FIFO, so a
    candidate starts only once its reference runs; it is matched against
    the reference's transcript in its worker and comes back without its
    own. ``(row, outcomes)`` pairs come back in batch order, outcomes in
    candidate order. An error of a batch (an unreadable or malformed row,
    a missing testbench, a failing reference) is raised in its turn, after
    every batch before it, and no batch after a bad one is read. On exit,
    queued jobs are cancelled and running ones waited for, so no thread or
    child process outlives the command.
    """

    def __init__(self, toolchain: ToolchainConfig, tb_dir: str, timeout_ms: int):
        toolchain.check_available()
        self.toolchain = toolchain
        self.tb_dir = tb_dir
        self.timeout_ms = timeout_ms
        self._references: dict[str, tuple[str, Future[SimOutcome]]] = {}

    def __enter__(self) -> "_Simulator":
        self._pool = harness.ThreadPoolExecutor(max_workers=self.toolchain.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _submit(self, batch: tuple) -> dict[str, Future[SimOutcome]]:
        """A batch's sims by design: its task's reference, then the rest."""
        _, task_id, reference_code, codes = batch
        if task_id not in self._references:
            with open(_testbench_path(self.tb_dir, task_id), encoding="utf-8") as f:
                tb = f.read()
            job = SimJob(reference_code, tb, task_id, self.timeout_ms)
            self._references[task_id] = tb, self._pool.submit(harness.run_sim, job, self.toolchain)
        tb, reference = self._references[task_id]
        # within a batch the testbench, timeout and toolchain are fixed, so the
        # design text alone keys a sim; the reference matches itself exactly,
        # and a blank design is a compile failure without a sim
        sims = {reference_code: reference}
        for code in dict.fromkeys(codes):
            if code not in sims and code.strip():
                job = SimJob(code, tb, task_id, self.timeout_ms)
                sims[code] = self._pool.submit(_candidate_sim, job, self.toolchain,
                                               lambda: reference.result().stdout_lines)
        return sims

    def stream(self, batches: Iterable[tuple]) -> Iterator[tuple[object, list[SimOutcome]]]:
        batches, window, running, error = iter(batches), deque(), set(), None
        while True:
            running = {f for f in running if not f.done()}
            while batches and len(running) < 2 * self.toolchain.workers:
                try:
                    batch = next(batches)
                    sims = self._submit(batch)
                except StopIteration:
                    batches = None
                except Exception as exc:  # noqa: BLE001 - raised in its batch's turn
                    batches, error = None, exc
                else:
                    window.append((batch, sims))
                    running.update(sims.values())
            if not window:
                if error is not None:
                    raise error
                return
            (row, task_id, reference_code, codes), sims = window[0]
            if not all(f.done() for f in sims.values()):
                wait(running, return_when=FIRST_COMPLETED)
                continue
            window.popleft()
            reference = sims[reference_code].result()
            if not reference.ran_ok:
                raise ConfigError(
                    f"reference design for task {task_id!r} failed its own testbench "
                    f"(compile_ok={reference.compile_ok}, timed_out={reference.timed_out}): "
                    f"{reference.log.strip()[:300]}"
                )
            known = {code: f.result() for code, f in sims.items()}
            yield row, [known.get(code, _EMPTY_DESIGN) for code in codes]


def _candidate_sim(job: SimJob, toolchain: ToolchainConfig, lines) -> SimOutcome:
    """A candidate's outcome without its transcript: once its match fraction
    is set nothing reads it, so at most ``workers`` transcripts are held."""
    return dataclasses.replace(harness.run_sim(job, toolchain, lines), stdout_lines=())


def _outcome_row(task_id: str, index: int, outcome: SimOutcome) -> dict:
    # scratch paths stay out of files so reruns are byte-identical
    fields = ("compile_ok", "ran_ok", "timed_out", "returncode", "match_fraction")
    return {"task_id": task_id, "index": index, **{f: getattr(outcome, f) for f in fields}}


def _candidate_batch(row: dict, tasks: dict[str, dict]) -> tuple:
    """A checked candidates row's sim batch; an unknown task is a usage error."""
    task_id = row["task_id"]
    if task_id not in tasks:
        raise ConfigError(f"candidates reference unknown task {task_id!r}")
    return task_id, task_id, tasks[task_id]["reference_code"], row.get("candidates", [])


def _group_batch(number: int, row: dict, global_step: int, tasks: dict[str, dict],
                 beta: float) -> tuple:
    """Checked groups row ``number``'s sim batch, whose row holds the task
    id, step, rollouts, each rollout's own CRUX score or None, and the
    reference interface. A malformed rollout, an unknown task or one whose
    reference header cannot be read, a group too small to standardize, or a
    rollout without ref logprobs under ``beta`` > 0 is a usage error naming
    it, raised before any of the row's sims start."""
    from .corpus import extract_verilog
    from .interface import HeaderError, parse_module_header
    from .rewards import parse_rollout

    what = f"groups row {number}"
    rollouts, scores = [], []
    for i, payload in enumerate(row["rollouts"]):
        code = _check("rollout", f"{number} rollout {i}", payload)["code_text"]
        code = (extract_verilog(code) or code) if "```" in code else code
        try:
            rollout, score = parse_rollout(payload, code)
        except ValueError as exc:
            raise ConfigError(f"{what} rollout {i}: {exc}") from exc
        rollouts.append(rollout)
        scores.append(score)
    step = row.get("step", global_step)
    task_id = row["task_id"]
    if task_id not in tasks:
        raise ConfigError(f"groups reference unknown task {task_id!r}")
    reference_code = tasks[task_id]["reference_code"]
    try:
        group = (task_id, step, rollouts, scores, parse_module_header(reference_code))
    except HeaderError as exc:
        raise ConfigError(f"{what}: reference design for task {task_id!r} "
                          f"has an unsupported header: {exc}") from exc
    # the checks score_group would make, made before the group's sims
    if len(rollouts) < 2:
        raise ConfigError(f"need at least 2 rollouts, got {len(rollouts)} ({what})")
    for i, rollout in enumerate(rollouts if beta > 0 else ()):
        if rollout.token_logprobs_ref is None:
            raise ConfigError(f"beta > 0 requires ref logprobs on every rollout "
                              f"({what} rollout {i} has none)")
    return group, task_id, reference_code, [r.code_text for r in rollouts]


def step_means(rows: Iterable[dict]) -> list[tuple[int, float, int]]:
    """(step, mean mixed reward, rollouts) for each step of ``reward``'s
    output rows, in step order."""
    by_step: dict[int, list[float]] = defaultdict(list)
    for row in rows:
        by_step[row["step"]].extend(r["mixed"] for r in row["rewards"])
    return [(step, sum(v) / len(v), len(v)) for step, v in sorted(by_step.items())]


def _write_table(path: str, table: str, echo: bool = False) -> None:
    """Writes a rendered table to ``path`` and, if ``echo``, to stdout."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(table)
    if echo:
        click.echo(table, nl=False)


# the fewest rows build-dataset gives a slice: on a 2-vCPU host, building
# 128 rows as two slices already took less time than as one
MIN_SLICE_ROWS = 64


def _run_slice(fn, rows: list) -> tuple[list, Exception | None]:
    """``fn`` of each row up to the first that raises, and that error."""
    results = []
    try:
        for row in rows:
            results.append(fn(row))
    except Exception as exc:  # noqa: BLE001 - raised by the caller in its row's turn
        return results, exc
    return results, None


def _map_slices(fn, rows: list) -> list:
    """``[fn(row) for row in rows]`` over contiguous slices, one per CPU
    this process may use but none shorter than ``MIN_SLICE_ROWS``. The first
    slice runs here and each other in a forked child, which pickles its
    results and its slice's first error into an unnamed temporary file and
    leaves through ``os._exit``. Every child is reaped before this returns or
    raises. Results keep row order and the error raised is the first in row
    order, so only a child that dies without its result (exit 1, as an
    internal error) tells this apart from the serial loop. A process running
    other threads builds every row itself: a child forked from it could wait
    forever on a lock one of them held."""
    count = min(len(os.sched_getaffinity(0)), len(rows) // MIN_SLICE_ROWS)
    if count < 2 or threading.active_count() > 1:
        return [fn(row) for row in rows]
    import pickle
    import tempfile
    from contextlib import ExitStack

    bounds = [len(rows) * i // count for i in range(count + 1)]
    children = []
    with ExitStack() as files:
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
                out = files.enter_context(tempfile.TemporaryFile())
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        pickle.dump(_run_slice(fn, rows[lo:hi]), out, pickle.HIGHEST_PROTOCOL)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                children.append((pid, out))
            first = _run_slice(fn, rows[: bounds[1]])
        finally:
            statuses = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in children]
        results, error = first
        for (_, out), status, lo, hi in zip(children, statuses, bounds[1:], bounds[2:]):
            if error is not None:
                break
            if status != 0:
                raise RuntimeError(f"the process building rows {lo + 1}-{hi} "
                                   f"exited with status {status} and no result")
            out.seek(0)
            part, error = pickle.load(out)
            results.extend(part)
    if error is not None:
        raise error
    return results


_USAGE_ERRORS = (ConfigError, jsonl.BadJson, ToolchainMissing)


def _run_command(fn) -> None:
    try:
        fn()
    except click.ClickException:
        raise
    except _USAGE_ERRORS as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code 1
        # only a command that loaded the gateway can raise one of its errors
        gateway = sys.modules.get(f"{__package__}.gateway")
        if gateway is not None and isinstance(exc, gateway.GatewayError):
            click.echo(f"gateway error: {exc}", err=True)
        else:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.option("--config", "config_path", type=str, default=None, help="JSON run config.")
@click.option("--seed", type=int, default=None, help="Master seed override.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None, seed: int | None) -> None:
    """Dataset, evaluation, and reward tooling for structured Verilog generation."""
    ctx.ensure_object(dict)
    try:
        ctx.obj["config"] = load_config(config_path, seed)
    except (ConfigError, json.JSONDecodeError) as exc:
        click.echo(f"error: {exc}", err=True)
        ctx.exit(2)


@main.command()
@click.option("--input", "input_path", required=True, type=str)
@click.option("--verdicts", "verdicts_path", type=str, default=None,
              help="JSONL of {id, passed} probe verdicts (offline mode).")
@click.option("--live", is_flag=True, help="Run the probe with a provider + simulator.")
@click.option("--provider", "provider_path", type=str, default=None)
@click.option("--mock-provider", "mock_script", type=str, default=None)
@click.option("--toolchain", "toolchain_path", type=str, default=None)
@click.option("--testbenches", "tb_dir", type=str, default=None)
@click.option("--output", "output_path", required=True, type=str)
@click.pass_context
def categorize(ctx, input_path, verdicts_path, live, provider_path, mock_script,
               toolchain_path, tb_dir, output_path):
    """Assign EasyQuestion / SpecialNonText / NormalData to raw pairs."""
    from .corpus import Category, categorize as categorize_pair

    cfg = ctx.obj["config"]

    def run():
        rows = _load(input_path, "pair")
        pairs = [_as_pair(r) for r in rows]
        if live:
            if tb_dir is None:
                raise ConfigError("--live categorization needs --testbenches")
            from .corpus import extract_verilog, probe_verdict_from_outcomes
            from .gateway import Gateway, GenRequest
            from .rewards import code_reward

            sims = _Simulator(_toolchain(toolchain_path), tb_dir, cfg["timeout_ms"])
            gateway = Gateway(_provider(provider_path, mock_script))

            def probes():
                for pair in pairs:
                    req = GenRequest(pair.description, n=cfg["probe_n"],
                                     seed=derive_seed(cfg["seed"], pair.id, "probe"))
                    # a completion with no Verilog is blank: it scores 0 without a sim
                    codes = [extract_verilog(text) or "" for text in gateway.generate(req)]
                    yield pair.id, pair.id, pair.reference_code, codes

            verdicts = {}
            with sims:
                for pair_id, outcomes in sims.stream(probes()):
                    fractions = [code_reward(o) for o in outcomes]
                    verdicts[pair_id] = probe_verdict_from_outcomes(fractions, cfg["threshold"])
        else:
            if verdicts_path is None:
                raise ConfigError("need --verdicts or --live")
            verdicts = {r["id"]: bool(r["passed"])
                        for r in _rows("verdict", verdicts_path, "verdicts file")}
        keywords = frozenset(cfg["keywords"]) if cfg.get("keywords") else None
        counts: dict[str, int] = defaultdict(int)
        out_rows = []
        for row, pair in zip(rows, pairs):
            if pair.id not in verdicts:
                raise ConfigError(f"no probe verdict for task {pair.id!r}")
            category = categorize_pair(pair, verdicts[pair.id], keywords)
            counts[category.value] += 1
            out_rows.append({**row, "category": category.value})
        jsonl.write_rows(output_path, out_rows, meta=meta_for(cfg))
        for name in (c.value for c in Category):
            click.echo(f"{name}: {counts.get(name, 0)}")

    _run_command(run)


@main.command("derive-crux")
@click.option("--input", "input_path", required=True, type=str,
              help="Categorized pairs JSONL (from `categorize`).")
@click.option("--emit", "emit_path", type=str, default=None,
              help="Write prompt bundles here (offline mode).")
@click.option("--live", is_flag=True, help="Call a provider and write transcripts.")
@click.option("--provider", "provider_path", type=str, default=None)
@click.option("--mock-provider", "mock_script", type=str, default=None)
@click.option("--output", "output_path", type=str, default=None,
              help="Transcripts JSONL (live mode).")
@click.pass_context
def derive_crux(ctx, input_path, emit_path, live, provider_path, mock_script, output_path):
    """Emit CRUX-derivation prompt bundles, or run them against a provider."""
    from .corpus import Category, make_crux_derivation_prompt

    cfg = ctx.obj["config"]

    def run():
        rows = _load(input_path, "categorized pair")
        if not live and emit_path is None:
            raise ConfigError("need --emit or --live")
        if live and output_path is None:
            raise ConfigError("--live needs --output for transcripts")
        bundles = []
        for row in rows:
            category = Category(row["category"])
            if category is Category.EASY_QUESTION:
                continue
            bundles.append((row, make_crux_derivation_prompt(_as_pair(row), category)))
        if not live:
            out_rows = [
                {
                    "task_id": bundle.task_id,
                    "prompts": [{"stage": p.stage, "text": p.text} for p in bundle.prompts],
                }
                for _, bundle in bundles
            ]
            jsonl.write_rows(emit_path, out_rows, meta=meta_for(cfg))
            click.echo(f"emitted {len(out_rows)} prompt bundles")
            return
        from .gateway import Gateway, GenRequest

        gateway = Gateway(_provider(provider_path, mock_script))
        transcripts = []
        for row, bundle in bundles:
            seed = derive_seed(cfg["seed"], bundle.task_id, "derive")
            derived_text = None
            for prompt in bundle.prompts:
                text = prompt.text
                if prompt.stage == "validate":
                    text = text.replace("{derived}", derived_text or "")
                completion = gateway.generate(
                    GenRequest(text, n=1, temperature=0.0, seed=seed)
                )[0]
                if prompt.stage in ("extract", "circuit_parse"):
                    derived_text = completion
                transcripts.append(
                    {"id": bundle.task_id, "stage": prompt.stage, "text": completion}
                )
        jsonl.write_rows(output_path, transcripts, meta=meta_for(cfg))
        click.echo(f"wrote {len(transcripts)} transcripts")

    _run_command(run)


@main.command("build-dataset")
@click.option("--input", "input_path", required=True, type=str,
              help="Categorized pairs JSONL.")
@click.option("--transcripts", "transcripts_path", type=str, default=None)
@click.option("--output", "output_path", required=True, type=str)
@click.option("--reclassified", "reclassified_path", type=str, default=None)
@click.pass_context
def build_dataset(ctx, input_path, transcripts_path, output_path, reclassified_path):
    """Assemble task records: degrade interfaces, build RealSpecs, attach CRUX."""
    from .corpus import (
        AugmentationPolicy,
        Category,
        MissingDiagram,
        Reclassification,
        assemble_record,
        build_realspec,
        diagram_blocks_for_realspec,
    )
    from .cruxdoc import parse_crux, render_crux
    from .interface import DegradationPolicy, HeaderError, degrade_interface, parse_module_header

    cfg = ctx.obj["config"]

    def run():
        rows = _load(input_path, None)
        transcripts: dict[tuple[str, str], str] = {} if transcripts_path is None else {
            (t["id"], t["stage"]): t["text"]
            for t in _rows("transcript", transcripts_path, "transcripts file")
        }
        degradation = DegradationPolicy(**cfg["degradation"])
        augmentation = AugmentationPolicy(**cfg["augmentation"])
        # the same for every row; records share them, and nothing mutates them
        policies = {
            "degradation": dataclasses.asdict(degradation),
            "augmentation": {
                "p_middle_insert": augmentation.p_middle_insert,
                "p_prefix": augmentation.p_prefix,
                "p_suffix": augmentation.p_suffix,
            },
        }

        def reclassify(r: Reclassification) -> tuple[bool, str]:
            return False, jsonl.encode_row({"id": r.task_id, "to": r.to.value, "reason": r.reason})

        def dataset_row(place_row: tuple[int, dict]) -> tuple[bool, str]:
            """(True, the row's record line) or (False, its reclassification
            line); the row is checked here, so a bad one fails in row order."""
            row = _check("categorized pair", *place_row)
            pair = _as_pair(row)
            category = Category(row["category"])
            try:
                reference_iface = parse_module_header(pair.reference_code)
            except HeaderError as exc:
                return reclassify(
                    Reclassification(pair.id, Category.NORMAL_DATA, f"reference: {exc}")
                )
            seed_degrade = derive_seed(cfg["seed"], pair.id, "degrade")
            seed_augment = derive_seed(cfg["seed"], pair.id, "augment")
            degraded = degrade_interface(reference_iface, degradation, seed_degrade)
            crux_text = None
            verdict = None
            diagram = None
            if category is Category.NORMAL_DATA:
                crux_text = transcripts.get((pair.id, "extract"))
            elif category is Category.SPECIAL_NON_TEXT:
                crux_text = transcripts.get((pair.id, "circuit_parse"))
                verdict = transcripts.get((pair.id, "validate"))
            crux = None if crux_text is None else parse_crux(crux_text)
            if category is Category.SPECIAL_NON_TEXT and crux is not None and crux.doc is not None:
                diagram = diagram_blocks_for_realspec(crux.doc)
            try:
                realspec = build_realspec(
                    pair, category, degraded, augmentation, seed_augment, diagram
                )
            except MissingDiagram:
                return reclassify(
                    Reclassification(pair.id, Category.NORMAL_DATA, "no usable diagram text")
                )
            provenance = {
                "master_seed": cfg["seed"],
                "seed_degrade": seed_degrade,
                "seed_augment": seed_augment,
                **policies,
            }
            result = assemble_record(
                pair, category, realspec, reference_iface, crux, verdict, provenance
            )
            if isinstance(result, Reclassification):
                return reclassify(result)
            return True, jsonl.encode_row({
                "id": result.id,
                "category": result.category.value,
                "realspec": result.realspec,
                "crux": render_crux(result.crux),
                "reference_code": result.reference_code,
                "provenance": result.provenance,
            })

        lines = _map_slices(dataset_row, list(enumerate(rows, 1)))
        records = [line for is_record, line in lines if is_record]
        reclassified = [line for is_record, line in lines if not is_record]
        jsonl.write_lines(output_path, records, meta=meta_for(cfg))
        recl_path = reclassified_path or output_path + ".reclassified.jsonl"
        jsonl.write_lines(recl_path, reclassified, meta=meta_for(cfg))
        click.echo(f"records: {len(records)}  reclassified: {len(reclassified)}")

    _run_command(run)


@main.command()
@click.option("--tasks", "tasks_path", required=True, type=str,
              help="JSONL with id + reference_code per task.")
@click.option("--candidates", "candidates_path", required=True, type=str,
              help="JSONL rows {task_id, candidates: [code, ...]}.")
@click.option("--testbenches", "tb_dir", required=True, type=str)
@click.option("--toolchain", "toolchain_path", type=str, default=None)
@click.option("--output-dir", "output_dir", required=True, type=str)
@click.option("-k", "k_values", type=int, multiple=True)
@click.option("--threshold", type=float, default=None)
@click.option("--keep-artifacts", is_flag=True)
@click.pass_context
def evaluate(ctx, tasks_path, candidates_path, tb_dir, toolchain_path, output_dir,
             k_values, threshold, keep_artifacts):
    """Simulate candidates against testbenches and report pass@k."""
    cfg = ctx.obj["config"]

    def run():
        toolchain = _toolchain(toolchain_path)
        if keep_artifacts:
            toolchain = dataclasses.replace(toolchain, keep_artifacts=True)
        sims = _Simulator(toolchain, tb_dir, cfg["timeout_ms"])
        tasks = {row["id"]: row for row in _load(tasks_path, "task")}
        cand_rows = _rows("candidates", candidates_path, "candidates file")
        ks = tuple(k_values) if k_values else tuple(cfg["k_values"])
        thr = cfg["threshold"] if threshold is None else threshold
        os.makedirs(output_dir, exist_ok=True)
        samples: dict[str, list[SimOutcome]] = {}
        outcome_rows = []
        with sims:
            batches = (_candidate_batch(row, tasks) for row in cand_rows)
            for task_id, outcomes in sims.stream(batches):
                # rows repeating a task add samples to it, numbered on from its last
                task_samples = samples.setdefault(task_id, [])
                outcome_rows.extend(
                    _outcome_row(task_id, i, o) for i, o in enumerate(outcomes, len(task_samples))
                )
                task_samples.extend(outcomes)
        report = aggregate_report(samples, thr, ks)
        meta = meta_for(cfg, k_values=list(ks), threshold=thr)
        jsonl.write_rows(os.path.join(output_dir, "outcomes.jsonl"), outcome_rows, meta=meta)
        jsonl.write_rows(os.path.join(output_dir, "per_task.jsonl"), report_rows(report), meta=meta)
        _write_table(os.path.join(output_dir, "summary.txt"), report_table(report), echo=True)
        _write_table(os.path.join(output_dir, "summary.csv"), report_csv(report))

    _run_command(run)


@main.command()
@click.option("--groups", "groups_path", required=True, type=str,
              help="JSONL rollout groups with logprob payloads.")
@click.option("--tasks", "tasks_path", required=True, type=str)
@click.option("--testbenches", "tb_dir", required=True, type=str)
@click.option("--toolchain", "toolchain_path", type=str, default=None)
@click.option("--provider", "provider_path", type=str, default=None)
@click.option("--mock-provider", "mock_script", type=str, default=None)
@click.option("--global-step", "global_step", type=click.IntRange(min=0), default=0)
@click.option("--output", "output_path", required=True, type=str)
@click.pass_context
def reward(ctx, groups_path, tasks_path, tb_dir, toolchain_path, provider_path,
           mock_script, global_step, output_path):
    """Score rollout groups: four rewards, advantages, clipped objective."""
    from .gateway import Gateway, GatewayError, ScoreRequest
    from .rewards import WeightSchedule, score_group

    cfg = ctx.obj["config"]

    def run():
        sims = _Simulator(_toolchain(toolchain_path), tb_dir, cfg["timeout_ms"])
        tasks = {row["id"]: row for row in _load(tasks_path, "task")}
        schedule = WeightSchedule(**cfg["schedule"])
        gateway = Gateway(_provider(provider_path, mock_script))
        grpo = cfg["grpo"]
        out_rows = []
        group_rows = _rows("group", groups_path, "groups file")

        def crux_score(task: dict, crux_text: str) -> TokenLogProbSeq | str:
            realspec = task.get("realspec") or task.get("description") or ""
            prompt = cfg["scoring_template"].format(realspec=realspec, crux=crux_text)
            try:
                return gateway.score_continuation(ScoreRequest(prompt, task["reference_code"]))
            except GatewayError as exc:
                return str(exc)

        groups = (_group_batch(*r, global_step, tasks, grpo["beta"])
                  for r in enumerate(group_rows, 1))
        with sims:
            for (task_id, step, rollouts, scores, iface), outcomes in sims.stream(groups):
                # a rollout with a crux_score of its own needs no scoring call
                scores = [crux_score(tasks[task_id], r.crux_text) if s is None else s
                          for r, s in zip(rollouts, scores)]
                out_rows.append(score_group(task_id, step, rollouts, outcomes, scores, iface,
                                            schedule, **grpo))
        jsonl.write_rows(
            output_path, out_rows,
            meta=meta_for(cfg, global_step=global_step, epsilon=grpo["epsilon"], beta=grpo["beta"]),
        )
        for step, mean, _ in step_means(out_rows):
            click.echo(f"step {step}: mean mixed reward {mean:.4f}")

    _run_command(run)


@main.command("grpo-check")
@click.option("--instances", type=click.IntRange(min=1), default=200)
@click.option("--epsilon", type=float, default=None)
@click.option("--beta", type=float, default=None)
@click.option("--group-size", type=click.IntRange(min=2), default=4)
@click.option("--max-tokens", type=click.IntRange(min=1), default=8)
@click.option("--vocab", type=click.IntRange(min=1), default=11)
@click.pass_context
def grpo_check(ctx, instances, epsilon, beta, group_size, max_tokens, vocab):
    """Finite-difference check of the objective gradient on toy policies."""
    cfg = ctx.obj["config"]

    def run():
        eps = cfg["grpo"]["epsilon"] if epsilon is None else epsilon
        b = cfg["grpo"]["beta"] if beta is None else beta
        _check_grpo(eps, b)
        worst_rel = 0.0
        checked = skipped = 0
        failures = 0
        for i in range(instances):
            instance = random_toy_instance(
                cfg["seed"] + i, group_size, max_tokens, vocab, with_ref=b > 0
            )
            report = objective_gradient_check(instance, eps, b)
            worst_rel = max(worst_rel, report.max_rel_error)
            checked += report.checked_positions
            skipped += report.skipped_near_kink
            if not report.passed:
                failures += 1
        click.echo(
            f"instances: {instances}  checked positions: {checked}  "
            f"skipped near kinks: {skipped}"
        )
        click.echo(f"max relative error: {worst_rel:.3e}")
        if failures:
            click.echo(f"FAIL: {failures} instances exceeded tolerance", err=True)
            sys.exit(1)
        click.echo("gradient check passed")

    _run_command(run)


@main.command()
@click.option("--reward", "reward_path", type=str, default=None,
              help="Reward output JSONL to summarize per step.")
@click.option("--evaluate-dir", "evaluate_dir", type=str, default=None,
              help="Evaluation output directory to re-render.")
@click.option("--output-dir", "output_dir", required=True, type=str)
@click.pass_context
def report(ctx, reward_path, evaluate_dir, output_dir):
    """Render summary tables (text + CSV) from pipeline outputs."""

    def run():
        if reward_path is None and evaluate_dir is None:
            raise ConfigError("need --reward or --evaluate-dir")
        os.makedirs(output_dir, exist_ok=True)
        if reward_path is not None:
            means = step_means(_rows("reward", reward_path, "reward output"))
            header = ["step", "mean_mixed_reward", "rollouts"]
            for name, csv in (("reward_by_step.csv", True), ("reward_by_step.txt", False)):
                _write_table(os.path.join(output_dir, name), render_table(header, means, csv),
                             echo=not csv)
        if evaluate_dir is not None:
            per_task = os.path.join(evaluate_dir, "per_task.jsonl")
            rows = _load(per_task, "per-task", "per-task report")
            # rows are written with sorted keys (pass@10 before pass@5); the
            # meta row keeps the k order of evaluate's own tables
            meta = jsonl.read_meta(per_task) or {}
            ks = meta.get("k_values") or sorted(
                int(key.split("@")[1]) for key in rows[0] if key.startswith("pass@")
            )
            _write_table(os.path.join(output_dir, "evaluation.txt"), pass_at_k_table(rows, ks),
                         echo=True)

    _run_command(run)


if __name__ == "__main__":
    main()
