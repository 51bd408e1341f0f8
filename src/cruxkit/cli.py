"""Command-line pipeline around the corpus, harness, reward, and GRPO layers.

Subcommands mirror the data flow: categorize raw pairs, emit/ingest CRUX
derivation transcripts, build the dataset, evaluate candidate code with a
simulator, score rollout groups, self-check the GRPO math, and render
reports. Every output file starts with a meta row carrying the config hash
and seed, and reruns with identical inputs and the mock provider are
byte-identical (wall-clock measurements are deliberately kept out of files).

Each command loads only the layers it drives: ``jsonl``, which imports no
other cruxkit module, and ``grpo``, which imports only ``jsonl``, are loaded
with this one, and ``harness``, ``corpus``, ``cruxdoc``, ``interface``,
``rewards``, ``gateway`` and ``spread`` are imported inside the commands and
helpers that use them. So ``evaluate`` and ``report`` never load the corpus,
parsing, reward or provider layers, and ``categorize`` (offline),
``derive-crux``, ``build-dataset`` and ``grpo-check`` never load the
simulation layer, nor its ``subprocess`` and thread pool. A harness name is
imported where it is used, not kept in this module's globals, so a patch of
``harness`` reaches every later call.

Every input row is checked once, as it is read, against its kind in
``jsonl.KINDS`` (build-dataset checks each pair row as it builds it, so a bad
row is still reported in row order): a row that is not an object, lacks a
key or holds a value of another type is a usage error naming the row. So is
each config file, as it is read; reading the run config loads no layer.

A command that succeeds exits 0. Every failure ends in ``_Commands.invoke``,
the one place that turns it into a stderr line and an exit code: ``error:
...`` with exit 2 for a usage or configuration error (``jsonl.ConfigError``:
a bad option, config or row, an input that is missing, unreadable or not
UTF-8, an unwritable output, a missing toolchain binary); ``gateway error:
...`` with exit 1 for a provider failure; and ``internal error: <type>:
...`` with exit 1 for any other.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import sys
from collections import defaultdict
from collections.abc import Iterable, Iterator
from typing import TYPE_CHECKING

import click

from . import __version__, jsonl
from .grpo import check_log_ratios, objective_gradient_check, random_toy_instance
from .jsonl import ConfigError

if TYPE_CHECKING:
    from concurrent.futures import Future

    from .corpus import RawPair
    from .gateway import ProviderConfig, TokenLogProbSeq
    from .harness import SimJob, SimOutcome, ToolchainConfig


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


def load_config(path: str | None, seed: int | None) -> dict:
    """``default_config()`` with the checked file at ``path`` (each section
    merged key by key) and ``seed`` laid over it."""
    cfg = default_config()
    if path is not None:
        loaded = jsonl.check("config", path, jsonl.read_json(path, "config file", "config file"))
        for key, value in loaded.items():
            if isinstance(cfg[key], dict):
                cfg[key].update(jsonl.check(key, None, value))
            else:
                cfg[key] = value
    if seed is not None:
        cfg["seed"] = seed
    return cfg


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


def _output(path: str) -> str:
    """``path``, if its directory exists and it is not a directory itself."""
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory not found: {directory}")
    if os.path.isdir(path):
        raise ConfigError(f"output path is a directory: {path}")
    return path


def _outputs_in(directory: str, *names: str) -> list[str]:
    """The paths of ``names`` in output directory ``directory``, each checked
    by ``_output`` if the directory exists (``_output_dir`` makes it later)."""
    paths = [os.path.join(directory, name) for name in names]
    if os.path.isdir(directory):
        for path in paths:
            _output(path)
    return paths


def _output_dir(path: str) -> None:
    """Makes the directory ``path`` if missing; one that cannot be made is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path}: {exc.strerror}") from exc


@functools.cache
def _corpus():
    """The corpus layer, imported by the first call: ``evaluate`` and
    ``report`` never load it, and a per-row caller pays no import."""
    from . import corpus

    return corpus


def _rows(kind: str | None, path: str, what: str) -> Iterator:
    """The ``what`` file's rows, each checked as ``kind`` (unless None) as read."""
    rows = jsonl.open_rows(path, what)
    if kind is None:
        return rows
    return (jsonl.check(kind, place, row) for place, row in enumerate(rows, 1))


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
    from .harness import ToolchainConfig

    if path is None:
        return ToolchainConfig()
    config = jsonl.read_json(path, "toolchain config", "bad toolchain config")
    return ToolchainConfig(**jsonl.check("toolchain", None, config))


def _provider(path: str | None, mock_script: str | None) -> ProviderConfig:
    from .gateway import ProviderConfig

    if mock_script is not None:
        script = jsonl.read_json(mock_script, "mock provider script", "bad provider config")
        return ProviderConfig(kind="mock", mock=script)
    if path is None:
        return ProviderConfig(kind="mock")
    config = jsonl.read_json(path, "provider config", "bad provider config")
    return ProviderConfig(**jsonl.check("provider", None, config))


def _testbench_path(directory: str, task_id: str) -> str:
    path = os.path.join(directory, f"{task_id}_tb.v")
    if not os.path.exists(path):
        raise ConfigError(f"testbench not found for task {task_id!r}: {path}")
    return path


class _Simulator:
    """Simulates a command's batches of designs on one pool of the
    toolchain's ``workers`` threads, so ``workers`` bounds every sim.

    ``stream`` feeds ``(row, task_id, reference_code, codes)`` batches to
    ``spread.window`` with a bound of 2 x ``workers`` sims, and yields each
    batch's ``(row, outcomes)``, outcomes in candidate order, or its error
    (a malformed row, a missing or blank testbench, a failing reference)
    in its turn. A batch's sims are its task's reference, once per command,
    then its distinct designs. The pool is FIFO, so a candidate starts only once
    its reference runs; it is matched against the reference's transcript in
    its worker and comes back without its own. On exit, queued jobs are
    cancelled and running ones waited for, so no thread or child process
    outlives the command.
    """

    def __init__(self, toolchain: ToolchainConfig, tb_dir: str, timeout_ms: int):
        toolchain.check_available()
        self.toolchain = toolchain
        self.tb_dir = tb_dir
        self.timeout_ms = timeout_ms
        self._references: dict[str, tuple[str, Future[SimOutcome]]] = {}

    def __enter__(self) -> "_Simulator":
        from .harness import ThreadPoolExecutor

        self._pool = ThreadPoolExecutor(max_workers=self.toolchain.workers)
        return self

    def __exit__(self, *exc_info) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)

    def _submit(self, batch: tuple) -> dict[str, Future[SimOutcome]]:
        """A batch's sims by design: its task's reference, then the rest."""
        from .harness import SimJob, run_sim

        _, task_id, reference_code, codes = batch
        if task_id not in self._references:
            if not reference_code.strip():
                raise ConfigError(f"reference design for task {task_id!r} is blank")
            path = _testbench_path(self.tb_dir, task_id)
            tb = jsonl.read_text(path, "testbench")
            if not tb.strip():
                raise ConfigError(f"testbench for task {task_id!r} is blank: {path}")
            job = SimJob(reference_code, tb, task_id, self.timeout_ms)
            self._references[task_id] = tb, self._pool.submit(run_sim, job, self.toolchain)
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
        from .harness import SimOutcome
        from .spread import window

        empty_design = SimOutcome(compile_ok=False, ran_ok=False, log="empty design")
        for (row, task_id, reference_code, codes), sims in window(
                batches, self._submit, 2 * self.toolchain.workers):
            reference = sims[reference_code].result()
            if not reference.ran_ok:
                raise ConfigError(
                    f"reference design for task {task_id!r} failed its own testbench "
                    f"(compile_ok={reference.compile_ok}, timed_out={reference.timed_out}): "
                    f"{reference.log.strip()[:300]}"
                )
            known = {code: f.result() for code, f in sims.items()}
            yield row, [known.get(code, empty_design) for code in codes]


def _candidate_sim(job: SimJob, toolchain: ToolchainConfig, lines) -> SimOutcome:
    """A candidate's outcome without its transcript: once its match fraction
    is set nothing reads it, so at most ``workers`` transcripts are held."""
    from .harness import run_sim

    return dataclasses.replace(run_sim(job, toolchain, lines), stdout_lines=())


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
    reference header cannot be read, a group too small to standardize, a
    rollout without ref logprobs under ``beta`` > 0, or one whose log-ratios
    pass ``grpo.log_ratio_bound`` is a usage error naming it, raised before
    any of the row's sims start."""
    from .corpus import extract_verilog
    from .interface import HeaderError, parse_module_header
    from .rewards import parse_rollout

    what = f"groups row {number}"
    rollouts, scores = [], []
    for i, payload in enumerate(row["rollouts"]):
        code = jsonl.check("rollout", f"{number} rollout {i}", payload)["code_text"]
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
    for i, rollout in enumerate(rollouts):
        try:
            check_log_ratios(rollout, len(rollouts), beta)
        except ValueError as exc:
            raise ConfigError(f"{what} rollout {i}: {exc}") from exc
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


class _Commands(click.Group):
    """The command group. Its ``invoke``, which runs the config load and
    the command, is the one place a failure becomes a stderr line and an
    exit code; click's own exits and errors pass through."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:  # noqa: BLE001 - every other failure exits 1
            # only a command that loaded the provider layer can raise its errors
            gateway = sys.modules.get(f"{__package__}.gateway")
            if gateway is not None and isinstance(exc, gateway.GatewayError):
                click.echo(f"gateway error: {exc}", err=True)
            else:
                click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Commands)
@click.option("--config", "config_path", type=str, default=None, help="JSON run config.")
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Master seed override.")
@click.pass_context
def main(ctx: click.Context, config_path: str | None, seed: int | None) -> None:
    """Dataset, evaluation, and reward tooling for structured Verilog generation."""
    ctx.ensure_object(dict)
    ctx.obj["config"] = load_config(config_path, seed)


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

    _output(output_path)
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


@main.command("derive-crux")
@click.option("--input", "input_path", required=True, type=str,
              help="Categorized pairs JSONL (from `categorize`).")
@click.option("--live", is_flag=True, help="Call a provider and write transcripts.")
@click.option("--provider", "provider_path", type=str, default=None)
@click.option("--mock-provider", "mock_script", type=str, default=None)
@click.option("--output", "output_path", required=True, type=str,
              help="Prompt bundles JSONL, or transcripts JSONL under --live.")
@click.pass_context
def derive_crux(ctx, input_path, live, provider_path, mock_script, output_path):
    """Emit CRUX-derivation prompt bundles, or run them against a provider."""
    from .corpus import Category, make_crux_derivation_prompt

    cfg = ctx.obj["config"]

    _output(output_path)
    rows = _load(input_path, "categorized pair")
    bundles = [make_crux_derivation_prompt(_as_pair(row), Category(row["category"]))
               for row in rows if row["category"] != Category.EASY_QUESTION.value]
    if not live:
        jsonl.write_rows(output_path, bundles, meta=meta_for(cfg))
        click.echo(f"emitted {len(bundles)} prompt bundles")
        return
    from .gateway import Gateway, GenRequest

    gateway = Gateway(_provider(provider_path, mock_script))
    transcripts = []
    for bundle in bundles:
        seed = derive_seed(cfg["seed"], bundle["task_id"], "derive")
        derived_text = None
        for prompt in bundle["prompts"]:
            stage, text = prompt["stage"], prompt["text"]
            if stage == "validate":
                # the slot comes before the reference code, which may hold "{derived}"
                text = text.replace("{derived}", derived_text or "", 1)
            completion = gateway.generate(
                GenRequest(text, n=1, temperature=0.0, seed=seed)
            )[0]
            if stage in ("extract", "circuit_parse"):
                derived_text = completion
            transcripts.append({"id": bundle["task_id"], "stage": stage, "text": completion})
    jsonl.write_rows(output_path, transcripts, meta=meta_for(cfg))
    click.echo(f"wrote {len(transcripts)} transcripts")


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
    from .cruxdoc import parse_crux
    from .interface import DegradationPolicy, HeaderError, degrade_interface, parse_module_header
    from .spread import map_slices

    cfg = ctx.obj["config"]

    _output(output_path)
    recl_path = _output(reclassified_path or output_path + ".reclassified.jsonl")
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

    def reclassify(task_id: str, reason: str) -> tuple[bool, str]:
        return False, jsonl.encode_row(
            {"id": task_id, "to": Category.NORMAL_DATA.value, "reason": reason})

    def dataset_row(place_row: tuple[int, dict]) -> tuple[bool, str]:
        """(True, the row's record line) or (False, its reclassification
        line); the row is checked here, so a bad one fails in row order."""
        row = jsonl.check("categorized pair", *place_row)
        pair = _as_pair(row)
        category = Category(row["category"])
        try:
            reference_iface = parse_module_header(pair.reference_code)
        except HeaderError as exc:
            return reclassify(pair.id, f"reference: {exc}")
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
            return reclassify(pair.id, "no usable diagram text")
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
            return reclassify(result.task_id, result.reason)
        return True, jsonl.encode_row(result)

    # a row's lines depend on that row, the config and the transcripts
    # alone, so forked slices build them as a serial loop would
    lines = map_slices(dataset_row, list(enumerate(rows, 1)))
    records = [line for is_record, line in lines if is_record]
    reclassified = [line for is_record, line in lines if not is_record]
    jsonl.write_lines(output_path, records, meta=meta_for(cfg))
    jsonl.write_lines(recl_path, reclassified, meta=meta_for(cfg))
    click.echo(f"records: {len(records)}  reclassified: {len(reclassified)}")


@main.command()
@click.option("--tasks", "tasks_path", required=True, type=str,
              help="JSONL with id + reference_code per task.")
@click.option("--candidates", "candidates_path", required=True, type=str,
              help="JSONL rows {task_id, candidates: [code, ...]}.")
@click.option("--testbenches", "tb_dir", required=True, type=str)
@click.option("--toolchain", "toolchain_path", type=str, default=None)
@click.option("--output-dir", "output_dir", required=True, type=str)
@click.option("-k", "k_values", type=click.IntRange(min=1), multiple=True)
@click.pass_context
def evaluate(ctx, tasks_path, candidates_path, tb_dir, toolchain_path, output_dir, k_values):
    """Simulate candidates against testbenches and report pass@k."""
    from .harness import aggregate_report, pass_at_k_table

    cfg = ctx.obj["config"]

    outcomes_path, per_task_path, summary_path, csv_path = _outputs_in(
        output_dir, "outcomes.jsonl", "per_task.jsonl", "summary.txt", "summary.csv")
    sims = _Simulator(_toolchain(toolchain_path), tb_dir, cfg["timeout_ms"])
    tasks = {row["id"]: row for row in _load(tasks_path, "task")}
    # per_task.jsonl is sorted by task id, and numbers, strings and null do not sort together
    kinds: dict[bool | None, object] = {}
    for task_id in tasks:
        kinds.setdefault(None if task_id is None else isinstance(task_id, str), task_id)
    if len(kinds) > 1:
        first, other = list(kinds.values())[:2]
        raise ConfigError(f"task ids {first!r} and {other!r} in {tasks_path} cannot be ordered")
    cand_rows = _rows("candidates", candidates_path, "candidates file")
    ks = tuple(k_values) if k_values else tuple(cfg["k_values"])
    _output_dir(output_dir)
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
    if not samples:
        raise ConfigError(f"no rows in {candidates_path}")
    rows, aggregate, warnings = aggregate_report(samples, cfg["threshold"], ks)
    meta = meta_for(cfg, k_values=list(ks), threshold=cfg["threshold"])
    jsonl.write_rows(outcomes_path, outcome_rows, meta=meta)
    jsonl.write_rows(per_task_path, rows, meta=meta)
    summary = pass_at_k_table(rows, ks, aggregate=aggregate)
    _write_table(summary_path, summary + "".join(f"# warning: {w}\n" for w in warnings),
                 echo=True)
    _write_table(csv_path, pass_at_k_table(rows, ks, csv=True))


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

    _output(output_path)
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
            request = ScoreRequest(prompt, task["reference_code"])
        except ValueError as exc:  # an empty prompt: a {crux} template and an empty note
            return str(exc)
        try:
            return gateway.score_continuation(request)
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


@main.command("grpo-check")
@click.option("--instances", type=click.IntRange(min=1), default=200)
@click.pass_context
def grpo_check(ctx, instances):
    """Finite-difference check of the objective gradient on toy policies."""
    cfg = ctx.obj["config"]

    epsilon, beta = cfg["grpo"]["epsilon"], cfg["grpo"]["beta"]
    worst_rel = 0.0
    checked = skipped = 0
    failures = 0
    for i in range(instances):
        instance = random_toy_instance(cfg["seed"] + i, with_ref=beta > 0)
        report = objective_gradient_check(instance, epsilon, beta)
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


@main.command()
@click.option("--reward", "reward_path", required=True, type=str,
              help="Reward output JSONL to summarize per step.")
@click.option("--output-dir", "output_dir", required=True, type=str)
def report(reward_path, output_dir):
    """Render the mean mixed reward by step (text + CSV) from reward's output."""
    from .harness import render_table

    # each table path is checked before any input is read
    csv_path, txt_path = _outputs_in(output_dir, "reward_by_step.csv", "reward_by_step.txt")
    _output_dir(output_dir)
    means = step_means(_rows("reward", reward_path, "reward output"))
    header = ["step", "mean_mixed_reward", "rollouts"]
    _write_table(csv_path, render_table(header, means, True))
    _write_table(txt_path, render_table(header, means, False), echo=True)


if __name__ == "__main__":
    main()
