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

Exit codes: 0 success, 1 internal error, 2 usage or configuration error.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import Future
from typing import TYPE_CHECKING

import click

from . import __version__, harness, jsonl
from .grpo import (
    GroupTooSmall,
    MissingRefLogprobs,
    check_coefficients,
    objective_gradient_check,
    random_toy_instance,
)
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
    from .corpus import Category, RawPair
    from .gateway import ProviderConfig, TokenLogProbSeq


class ConfigError(ValueError):
    """Bad configuration or missing input files (exit code 2)."""


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
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        with open(path, encoding="utf-8") as f:
            loaded = json.load(f)
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


def _load_pairs(path: str) -> list[dict]:
    rows = list(jsonl.read_rows(_require_file(path, "input file")))
    if not rows:
        raise ConfigError(f"no rows in {path}")
    return rows


def _load_tasks(path: str) -> dict[str, dict]:
    """Task rows by id; a row without an id or reference code is a usage error."""
    rows = _load_pairs(path)
    for row in rows:
        _checked(row, f"task row {row.get('id')!r}", id=object, reference_code=object)
    return {row["id"]: row for row in rows}


def _as_pair(row: dict) -> RawPair:
    from .corpus import RawPair

    try:
        return RawPair(row["id"], row["description"], row["reference_code"])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad corpus row {row.get('id')!r}: {exc}") from exc


def _category(row: dict) -> Category:
    from .corpus import Category

    try:
        return Category(row.get("category"))
    except ValueError as exc:
        raise ConfigError(
            f"corpus row {row.get('id')!r} has no known category "
            f"({row.get('category')!r}); run categorize first"
        ) from exc


def _toolchain(path: str | None) -> ToolchainConfig:
    if path is None:
        return ToolchainConfig()
    try:
        return ToolchainConfig.from_file(_require_file(path, "toolchain config"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad toolchain config: {exc}") from exc


def _provider(path: str | None, mock_script: str | None) -> ProviderConfig:
    from .gateway import ProviderConfig

    if mock_script is not None:
        with open(_require_file(mock_script, "mock provider script"), encoding="utf-8") as f:
            return ProviderConfig(kind="mock", mock=json.load(f))
    if path is None:
        return ProviderConfig(kind="mock")
    try:
        return ProviderConfig.from_file(_require_file(path, "provider config"))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad provider config: {exc}") from exc


def _testbench_path(directory: str, task_id: str) -> str:
    path = os.path.join(directory, f"{task_id}_tb.v")
    if not os.path.exists(path):
        raise ConfigError(f"testbench not found for task {task_id!r}: {path}")
    return path


_EMPTY_DESIGN = SimOutcome(compile_ok=False, ran_ok=False, log="empty design")


class _Simulator:
    """Simulates a command's candidate designs against their tasks' testbenches.

    A context manager that owns one pool of the toolchain's ``workers``
    threads for the whole command, so ``workers`` bounds every sim the
    command runs. ``prefetch`` submits a task's first and only reference
    job: it reads the task's testbench and simulates the reference design,
    whose transcript scores every batch of the task's candidates. ``run``
    waits for that job, then simulates the batch's distinct designs once on
    the same pool, and outcomes come back in candidate order, one per
    candidate. A candidate equal to the reference reuses the reference's
    outcome, a blank one is a compile failure, and any other comes back
    without its transcript. Errors of a reference job
    (a missing testbench, a reference that fails its own testbench) are
    raised by ``run``, in the turn of the batch that needs it. On exit,
    queued jobs are cancelled and running ones waited for, so no thread or
    child process outlives the command.
    """

    def __init__(self, toolchain: ToolchainConfig, tb_dir: str, timeout_ms: int):
        toolchain.check_available()
        self.toolchain = toolchain
        self.tb_dir = tb_dir
        self.timeout_ms = timeout_ms
        self._references: dict[str, Future[tuple[str, SimOutcome]]] = {}

    def __enter__(self) -> "_Simulator":
        self._pool = harness.ThreadPoolExecutor(max_workers=self.toolchain.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _reference(self, task_id: str, reference_code: str) -> tuple[str, SimOutcome]:
        with open(_testbench_path(self.tb_dir, task_id), encoding="utf-8") as f:
            tb_source = f.read()
        outcome = harness.run_sim(
            SimJob(reference_code, tb_source, task_id, self.timeout_ms), self.toolchain
        )
        if not outcome.ran_ok:
            raise ConfigError(
                f"reference design for task {task_id!r} failed its own testbench "
                f"(compile_ok={outcome.compile_ok}, timed_out={outcome.timed_out}): "
                f"{outcome.log.strip()[:300]}"
            )
        return tb_source, outcome

    def prefetch(self, task_id: str, reference_code: str) -> None:
        """Starts the task's reference job unless it has one; never raises."""
        if task_id not in self._references:
            self._references[task_id] = self._pool.submit(
                self._reference, task_id, reference_code
            )

    def run(self, task_id: str, reference_code: str, codes: list[str]) -> list[SimOutcome]:
        self.prefetch(task_id, reference_code)
        tb_source, reference = self._references[task_id].result()
        # within a batch the testbench, timeout and toolchain are fixed, so the
        # design text alone keys a sim; the reference matches itself exactly
        known = {reference_code: reference}
        distinct = [c for c in dict.fromkeys(codes) if c not in known and c.strip()]
        lines = list(reference.stdout_lines)
        futures = [
            self._pool.submit(
                _candidate_sim, SimJob(code, tb_source, task_id, self.timeout_ms),
                self.toolchain, lines,
            )
            for code in distinct
        ]
        known.update(zip(distinct, (f.result() for f in futures)))
        return [known.get(code, _EMPTY_DESIGN) for code in codes]


def _candidate_sim(job: SimJob, toolchain: ToolchainConfig, lines: list[str]) -> SimOutcome:
    """A candidate's outcome without its transcript: once its match fraction
    is set nothing reads it, so a row holds at most ``workers`` transcripts."""
    return dataclasses.replace(harness.run_sim(job, toolchain, lines), stdout_lines=())


_END = object()


def _one_ahead(rows: Iterable, prefetch: Callable[[object], None]) -> Iterator:
    """Yields ``rows`` in order, calling ``prefetch`` on each row before the
    one ahead of it is yielded, so the next row's work starts while this one
    is handled. Holds at most one row beyond the one yielded; an error
    reading a row is raised in that row's turn, after the row before it."""
    rows = iter(rows)
    current = next(rows, _END)
    if current is not _END:
        prefetch(current)
    while current is not _END:
        try:
            upcoming = next(rows, _END)
        except Exception:
            yield current
            raise
        if upcoming is not _END:
            prefetch(upcoming)
        yield current
        current = upcoming


def _prefetch_task_row(sims: _Simulator, tasks: dict[str, dict], row) -> None:
    """Starts the reference job of the task a candidates or groups row names.
    A row that names no known task is skipped; it fails in its own turn."""
    try:
        sims.prefetch(row["task_id"], tasks[row["task_id"]]["reference_code"])
    except (KeyError, TypeError):
        pass


def _outcome_row(task_id: str, index: int, outcome: SimOutcome) -> dict:
    # scratch paths stay out of files so reruns are byte-identical
    return {
        "task_id": task_id,
        "index": index,
        "compile_ok": outcome.compile_ok,
        "ran_ok": outcome.ran_ok,
        "timed_out": outcome.timed_out,
        "returncode": outcome.returncode,
        "match_fraction": outcome.match_fraction,
    }


def _checked(row, what: str, **kinds: type) -> None:
    """A usage error naming ``what`` unless ``row`` is an object holding a
    value of type ``kinds[key]`` under each key."""
    if not isinstance(row, dict):
        raise ConfigError(f"{what} is not an object")
    for key, kind in kinds.items():
        if key not in row:
            raise ConfigError(f"{what} has no {key!r}")
        if not isinstance(row[key], kind):
            raise ConfigError(f"{what}: {key!r} must be a {kind.__name__}")


def _group_row(row, what: str, global_step: int) -> tuple[str, int, list[dict]]:
    """A groups row's task id, step and rollouts; a row without them, or a
    rollout without the fields scoring reads, is a usage error naming it."""
    _checked(row, what, task_id=object, rollouts=list)
    for i, rollout in enumerate(row["rollouts"]):
        _checked(rollout, f"{what} rollout {i}", code_text=str, crux_text=str,
                 logprobs_new=dict, logprobs_old=dict)
    try:
        return row["task_id"], int(row.get("step", global_step)), row["rollouts"]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{what} has a bad 'step': {row['step']!r}") from exc


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


_USAGE_ERRORS = (ConfigError, ToolchainMissing, GroupTooSmall, MissingRefLogprobs)


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
        rows = _load_pairs(input_path)
        pairs = [_as_pair(r) for r in rows]
        if live:
            if tb_dir is None:
                raise ConfigError("--live categorization needs --testbenches")
            from .corpus import extract_verilog, probe_verdict_from_outcomes
            from .gateway import Gateway, GenRequest
            from .rewards import code_reward

            sims = _Simulator(_toolchain(toolchain_path), tb_dir, cfg["timeout_ms"])
            gateway = Gateway(_provider(provider_path, mock_script))
            verdicts = {}
            with sims:
                for pair in _one_ahead(pairs, lambda p: sims.prefetch(p.id, p.reference_code)):
                    req = GenRequest(pair.description, n=cfg["probe_n"],
                                     seed=derive_seed(cfg["seed"], pair.id, "probe"))
                    codes = [extract_verilog(text) for text in gateway.generate(req)]
                    # a completion with no Verilog scores 0 without a sim
                    outcomes = iter(sims.run(
                        pair.id, pair.reference_code, [c for c in codes if c is not None]
                    ))
                    fractions = [0.0 if c is None else code_reward(next(outcomes)) for c in codes]
                    verdicts[pair.id] = probe_verdict_from_outcomes(fractions, cfg["threshold"])
        else:
            if verdicts_path is None:
                raise ConfigError("need --verdicts or --live")
            verdicts = {
                r["id"]: bool(r["passed"])
                for r in jsonl.read_rows(_require_file(verdicts_path, "verdicts file"))
            }
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
        rows = _load_pairs(input_path)
        if not live and emit_path is None:
            raise ConfigError("need --emit or --live")
        if live and output_path is None:
            raise ConfigError("--live needs --output for transcripts")
        bundles = []
        for row in rows:
            category = _category(row)
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
        rows = _load_pairs(input_path)
        transcripts: dict[tuple[str, str], str] = {}
        if transcripts_path is not None:
            for t in jsonl.read_rows(_require_file(transcripts_path, "transcripts file")):
                try:
                    transcripts[(t["id"], t["stage"])] = t["text"]
                except KeyError as exc:
                    raise ConfigError(
                        f"transcript row {t.get('id')!r} has no {exc.args[0]!r}"
                    ) from exc
        degradation = DegradationPolicy(**cfg["degradation"])
        augmentation = AugmentationPolicy(**cfg["augmentation"])
        records, reclassified = [], []
        for row in rows:
            pair = _as_pair(row)
            category = _category(row)
            try:
                reference_iface = parse_module_header(pair.reference_code)
            except HeaderError as exc:
                reclassified.append(
                    Reclassification(pair.id, Category.NORMAL_DATA, f"reference: {exc}")
                )
                continue
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
                reclassified.append(
                    Reclassification(pair.id, Category.NORMAL_DATA, "no usable diagram text")
                )
                continue
            provenance = {
                "master_seed": cfg["seed"],
                "seed_degrade": seed_degrade,
                "seed_augment": seed_augment,
                "degradation": dataclasses.asdict(degradation),
                "augmentation": {
                    "p_middle_insert": augmentation.p_middle_insert,
                    "p_prefix": augmentation.p_prefix,
                    "p_suffix": augmentation.p_suffix,
                },
            }
            result = assemble_record(
                pair, category, realspec, reference_iface, crux, verdict, provenance
            )
            if isinstance(result, Reclassification):
                reclassified.append(result)
            else:
                records.append(result)
        jsonl.write_rows(
            output_path,
            [
                {
                    "id": r.id,
                    "category": r.category.value,
                    "realspec": r.realspec,
                    "crux": render_crux(r.crux),
                    "reference_code": r.reference_code,
                    "provenance": r.provenance,
                }
                for r in records
            ],
            meta=meta_for(cfg),
        )
        recl_path = reclassified_path or output_path + ".reclassified.jsonl"
        jsonl.write_rows(
            recl_path,
            [
                {"id": r.task_id, "to": r.to.value, "reason": r.reason}
                for r in reclassified
            ],
            meta=meta_for(cfg),
        )
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
        tasks = _load_tasks(tasks_path)
        cand_rows = jsonl.read_rows(_require_file(candidates_path, "candidates file"))
        ks = tuple(k_values) if k_values else tuple(cfg["k_values"])
        thr = cfg["threshold"] if threshold is None else threshold
        os.makedirs(output_dir, exist_ok=True)
        samples: dict[str, list[SimOutcome]] = {}
        outcome_rows = []
        with sims:
            rows = _one_ahead(cand_rows, lambda r: _prefetch_task_row(sims, tasks, r))
            for number, row in enumerate(rows, 1):
                what = f"candidates row {number}"
                _checked(row, what, task_id=object)
                codes = row.get("candidates", [])
                if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
                    raise ConfigError(f"{what}: 'candidates' must be a list of strings")
                task_id = row["task_id"]
                if task_id not in tasks:
                    raise ConfigError(f"candidates reference unknown task {task_id!r}")
                outcomes = sims.run(task_id, tasks[task_id]["reference_code"], codes)
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
@click.option("--global-step", "global_step", type=int, default=0)
@click.option("--output", "output_path", required=True, type=str)
@click.pass_context
def reward(ctx, groups_path, tasks_path, tb_dir, toolchain_path, provider_path,
           mock_script, global_step, output_path):
    """Score rollout groups: four rewards, advantages, clipped objective."""
    from .corpus import extract_verilog
    from .gateway import Gateway, GatewayError, ScoreRequest
    from .interface import parse_module_header
    from .rewards import WeightSchedule, score_group

    cfg = ctx.obj["config"]

    def run():
        sims = _Simulator(_toolchain(toolchain_path), tb_dir, cfg["timeout_ms"])
        tasks = _load_tasks(tasks_path)
        schedule = WeightSchedule(**cfg["schedule"])
        gateway = Gateway(_provider(provider_path, mock_script))
        grpo = cfg["grpo"]
        out_rows = []
        group_rows = jsonl.read_rows(_require_file(groups_path, "groups file"))

        def crux_score(task: dict, crux_text: str) -> TokenLogProbSeq | str:
            realspec = task.get("realspec") or task.get("description") or ""
            prompt = cfg["scoring_template"].format(realspec=realspec, crux=crux_text)
            try:
                return gateway.score_continuation(ScoreRequest(prompt, task["reference_code"]))
            except GatewayError as exc:
                return str(exc)

        with sims:
            rows = _one_ahead(group_rows, lambda r: _prefetch_task_row(sims, tasks, r))
            for number, row in enumerate(rows, 1):
                task_id, step, payloads = _group_row(row, f"groups row {number}", global_step)
                if task_id not in tasks:
                    raise ConfigError(f"groups reference unknown task {task_id!r}")
                task = tasks[task_id]
                reference_iface = parse_module_header(task["reference_code"])
                codes = [r["code_text"] for r in payloads]
                codes = [(extract_verilog(c) or c) if "```" in c else c for c in codes]
                outcomes = sims.run(task_id, task["reference_code"], codes)
                # a rollout with a crux_score of its own needs no scoring call
                scores = [None if "crux_score" in r else crux_score(task, r["crux_text"])
                          for r in payloads]
                out_rows.append(score_group(task_id, step, payloads, codes, outcomes, scores,
                                            reference_iface, schedule, **grpo))
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
            means = step_means(jsonl.read_rows(_require_file(reward_path, "reward output")))
            header = ["step", "mean_mixed_reward", "rollouts"]
            for name, csv in (("reward_by_step.csv", True), ("reward_by_step.txt", False)):
                _write_table(os.path.join(output_dir, name), render_table(header, means, csv),
                             echo=not csv)
        if evaluate_dir is not None:
            per_task = os.path.join(evaluate_dir, "per_task.jsonl")
            rows = list(jsonl.read_rows(_require_file(per_task, "per-task report")))
            if not rows:
                raise ConfigError(f"no rows in {per_task}")
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
