"""Outside-in tracing of cruxkit for the pipeline benchmark.

``Tracer.install()`` swaps the public functions of each cruxkit layer for
timing wrappers, both in the defining module and in every cruxkit module
that imported them by name (``cli`` does ``from .harness import run_sim``;
``run_many`` finds ``run_sim`` through the ``cruxkit.harness`` globals).
``uninstall()`` restores the originals, so untraced batches run the
unmodified program.

Spans (name, start, end, id, parent id, request id) and counters are kept
in memory at the same boundaries and written once by ``write_spans``. A
span's self time is its duration minus the part of it covered by its
children. The harness's compile and run subprocesses are spans of their
own (layer ``echosim``), so harness self time is the harness's own work.
"""

from __future__ import annotations

import collections
import contextvars
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import resource
import threading
import time

LAYERS = ("interface", "cruxdoc", "corpus", "harness", "rewards", "grpo", "gateway", "jsonl")
STAGES = ("categorize", "derive-crux", "build-dataset", "evaluate", "reward", "grpo-check")

# Per-layer metrics: (name, unit, better). Values are per traced batch,
# except percentiles and ratios.
PER_LAYER = (
    ("harness.run_sim.calls", "count", "lower"),
    ("harness.run_sim.ms", "ms", "lower"),
    ("harness.run_sim.p50_ms", "ms", "lower"),
    ("harness.run_sim.p99_ms", "ms", "lower"),
    ("harness.compile.ms", "ms", "lower"),
    ("harness.run.ms", "ms", "lower"),
    ("harness.spawns", "count", "lower"),
    ("harness.spawn.p50_ms", "ms", "lower"),
    ("harness.sim.repeat_share", "ratio", "lower"),
    ("harness.reference_sims", "count", "lower"),
    ("harness.reference.ms", "ms", "lower"),
    ("harness.run_many.queue_wait_ms", "ms", "lower"),
    ("harness.outcome.pass", "count", "higher"),
    ("harness.outcome.mismatch", "count", "lower"),
    ("harness.outcome.compile_fail", "count", "lower"),
    ("harness.outcome.crash", "count", "lower"),
    ("harness.outcome.timeout", "count", "lower"),
    ("harness.timeout.ms", "ms", "lower"),
    ("harness.match_outputs.ms", "ms", "lower"),
    ("harness.pass_at_k.ms", "ms", "lower"),
    ("harness.aggregate_report.ms", "ms", "lower"),
    ("harness.self_ms", "ms", "lower"),
    ("echosim.child_cpu_ms_per_spawn", "ms", "lower"),
    ("echosim.stdout_bytes", "bytes", "lower"),
    ("echosim.child_peak_rss_mb", "MB", "lower"),
    ("echosim.self_ms", "ms", "lower"),
    ("grpo.objective_gradient_check.ms", "ms", "lower"),
    ("grpo.random_toy_instance.ms", "ms", "lower"),
    ("grpo.skipped_near_kink", "count", "lower"),
    ("grpo.clipped_objective.ms", "ms", "lower"),
    ("grpo.group_advantages.ms", "ms", "lower"),
    ("grpo.degenerate_groups", "count", "lower"),
    ("grpo.self_ms", "ms", "lower"),
    ("rewards.format_reward.calls", "count", "lower"),
    ("rewards.format_reward.ms", "ms", "lower"),
    ("rewards.crux_reward.ms", "ms", "lower"),
    ("rewards.reward_vector.ms", "ms", "lower"),
    ("rewards.self_ms", "ms", "lower"),
    ("interface.parse_module_header.calls", "count", "lower"),
    ("interface.parse_module_header.ms", "ms", "lower"),
    ("interface.degrade_interface.ms", "ms", "lower"),
    ("interface.render_degraded_interface.ms", "ms", "lower"),
    ("interface.header_errors", "count", "lower"),
    ("interface.self_ms", "ms", "lower"),
    ("cruxdoc.parse_crux.calls", "count", "lower"),
    ("cruxdoc.parse_crux.ms", "ms", "lower"),
    ("cruxdoc.render_crux.ms", "ms", "lower"),
    ("cruxdoc.interface_mismatches.ms", "ms", "lower"),
    ("cruxdoc.self_ms", "ms", "lower"),
    ("corpus.categorize.ms", "ms", "lower"),
    ("corpus.make_crux_derivation_prompt.ms", "ms", "lower"),
    ("corpus.build_realspec.ms", "ms", "lower"),
    ("corpus.assemble_record.ms", "ms", "lower"),
    ("corpus.extract_verilog.ms", "ms", "lower"),
    ("corpus.reclassified", "count", "lower"),
    ("corpus.self_ms", "ms", "lower"),
    ("gateway.generate.calls", "count", "lower"),
    ("gateway.generate.ms", "ms", "lower"),
    ("gateway.score_continuation.calls", "count", "lower"),
    ("gateway.score_continuation.ms", "ms", "lower"),
    ("gateway.backend_calls", "count", "lower"),
    ("gateway.retries", "count", "lower"),
    ("gateway.errors", "count", "lower"),
    ("gateway.self_ms", "ms", "lower"),
    ("jsonl.write_rows.ms", "ms", "lower"),
    ("jsonl.write_rows.bytes", "bytes", "lower"),
    ("jsonl.read_rows.ms", "ms", "lower"),
    ("jsonl.self_ms", "ms", "lower"),
    *((f"cli.{stage}.ms", "ms", "lower") for stage in STAGES),
    ("cli.self_ms", "ms", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

# Spans whose time belongs to another layer than their name prefix.
LAYER_OF = {"harness.compile": "echosim", "harness.run": "echosim"}
SELF_LAYERS = ("cli",) + LAYERS + ("echosim",)


def _request_of(args: tuple) -> str | None:
    """The task, group or instance id an argument carries, if any."""
    if not args:
        return None
    first = args[0]
    if getattr(first, "top_module", ""):  # SimJob
        return first.top_module
    if hasattr(first, "reference_code") and hasattr(first, "id"):  # RawPair
        return first.id
    if hasattr(first, "task_id") and hasattr(first, "rollouts"):  # RolloutGroup
        return first.task_id
    return None


def _ms(seconds: float) -> float:
    return seconds * 1000.0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, span_id, parent_id, request)
        self.counts: collections.Counter = collections.Counter()
        self.durations: dict[str, list[float]] = collections.defaultdict(list)
        self.sim_keys: list[str] = []
        self.batches = 0
        self.child_cpu_s = 0.0
        self._span = contextvars.ContextVar("perfbench_span", default=0)
        self._request = contextvars.ContextVar("perfbench_request", default="")
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # --- recording ----------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def set_request(self, request: str) -> None:
        """Later spans in this context belong to ``request`` until the next id."""
        self._request.set(request)

    def span(self, name: str, fn, args: tuple, kwargs: dict, request: str | None = None):
        """Call ``fn`` inside a span; returns (result, exception, seconds)."""
        if request is not None:
            self._request.set(request)
        request = self._request.get()
        parent = self._span.get()
        span_id = next(self._ids)
        token = self._span.set(span_id)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # recorded, then re-raised by the caller
            error = exc
        end = time.perf_counter()
        self._span.reset(token)
        self.spans.append((name, start, end, span_id, parent, request))
        self.add(f"{name}.calls")
        self.add(f"{name}.s", end - start)
        return result, error, end - start

    def _wrap(self, name: str, fn, post=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # time spent producing items; the caller's loop body is not ours
                it = fn(*args, **kwargs)
                tracer.add(f"{name}.calls")
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.add(f"{name}.s", time.perf_counter() - start)
                        return
                    tracer.add(f"{name}.s", time.perf_counter() - start)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, error, seconds = tracer.span(name, fn, args, kwargs, _request_of(args))
            if post is not None:
                post(args, kwargs, result, error, seconds)
            if error is not None:
                raise error
            return result
        return wrapper

    # --- hooks at layer boundaries -----------------------------------------

    def _post_run_sim(self, args, kwargs, outcome, error, seconds) -> None:
        # cruxkit calls run_sim(job, toolchain[, reference_lines]) positionally
        job, toolchain = args[0], args[1]
        reference = args[2] if len(args) > 2 else kwargs.get("reference_lines")
        key = hashlib.sha256(json.dumps(
            [toolchain.compile_cmd, toolchain.run_cmd, job.design_source,
             job.testbench_source, job.timeout_ms]).encode()).hexdigest()
        with self._lock:
            self.sim_keys.append(key)
            self.durations["harness.run_sim"].append(_ms(seconds))
        if outcome is None:
            return
        if reference is None:
            self.add("harness.reference_sims")
            self.add("harness.reference.s", seconds)
        elif outcome.timed_out:
            self.add("harness.outcome.timeout")
            self.add("harness.timeout.s", seconds)
        elif not outcome.compile_ok:
            self.add("harness.outcome.compile_fail")
        elif not outcome.ran_ok:
            self.add("harness.outcome.crash")
        elif outcome.match_fraction == 1.0:
            self.add("harness.outcome.pass")
        else:
            self.add("harness.outcome.mismatch")

    def _post_header(self, args, kwargs, result, error, seconds) -> None:
        from cruxkit.interface import HeaderError

        if isinstance(error, HeaderError):
            self.add("interface.header_errors")

    def _post_assemble(self, args, kwargs, result, error, seconds) -> None:
        from cruxkit.corpus import Reclassification

        if isinstance(result, Reclassification):
            self.add("corpus.reclassified")

    def _post_realspec(self, args, kwargs, result, error, seconds) -> None:
        from cruxkit.corpus import MissingDiagram

        if isinstance(error, MissingDiagram):
            self.add("corpus.reclassified")

    def _post_gradcheck(self, args, kwargs, report, error, seconds) -> None:
        if report is not None:
            self.add("grpo.skipped_near_kink", report.skipped_near_kink)

    def _post_advantages(self, args, kwargs, result, error, seconds) -> None:
        if result is not None and result.degenerate:
            self.add("grpo.degenerate_groups")

    def _post_write_rows(self, args, kwargs, result, error, seconds) -> None:
        if error is None:
            self.add("jsonl.write_rows.bytes", os.path.getsize(args[0]))

    def _post_gateway(self, args, kwargs, result, error, seconds) -> None:
        from cruxkit.gateway import GatewayError

        if isinstance(error, GatewayError):
            self.add("gateway.errors")

    # --- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"cruxkit.{name}") for name in LAYERS + ("cli",)}
        posts = {
            "harness.run_sim": self._post_run_sim,
            "interface.parse_module_header": self._post_header,
            "corpus.assemble_record": self._post_assemble,
            "corpus.build_realspec": self._post_realspec,
            "grpo.objective_gradient_check": self._post_gradcheck,
            "grpo.group_advantages": self._post_advantages,
            "jsonl.write_rows": self._post_write_rows,
        }
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, posts.get(f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

        gateway, harness, cli = modules["gateway"], modules["harness"], modules["cli"]
        for method in ("generate", "score_continuation"):
            orig = getattr(gateway.Gateway, method)
            self._patch(gateway.Gateway, method, self._wrap(f"gateway.{method}", orig, self._post_gateway))
        for method in ("generate", "score"):
            self._patch(gateway.MockProvider, method, self._counted("gateway.backend_calls",
                                                                    getattr(gateway.MockProvider, method)))
        self._patch(harness, "subprocess", _SubprocessProxy(self, harness.subprocess))
        self._patch(harness, "ThreadPoolExecutor", _pool_class(self, harness.ThreadPoolExecutor))
        # request ids at the top of the stage loops: one pair, task or instance each
        self._patch(cli, "_as_pair", self._marker(cli._as_pair, lambda a: a[0].get("id")))
        self._patch(cli, "_testbench_path", self._marker(cli._testbench_path, lambda a: a[1]))
        self._patch(cli, "derive_seed", self._marker(cli.derive_seed, lambda a: a[1]))
        self._patch(cli, "random_toy_instance",
                    self._marker(cli.random_toy_instance, lambda a: f"instance-{a[0]}"))

    def _counted(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.add(name)
            return fn(*args, **kwargs)
        return wrapper

    def _marker(self, fn, request_of):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.set_request(str(request_of(args)))
            return fn(*args, **kwargs)
        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def stage(self, stage: str, fn, request: str):
        """Run one CLI stage call inside a ``cli.<stage>`` span."""
        result, error, _ = self.span(f"cli.{stage}", fn, (), {}, request)
        if error is not None:
            raise error
        return result

    # --- reporting ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer."""
        children = collections.defaultdict(list)
        for name, start, end, span_id, parent, _ in self.spans:
            children[parent].append((start, end))
        totals: collections.Counter = collections.Counter()
        for name, start, end, span_id, parent, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            layer = LAYER_OF.get(name, name.split(".", 1)[0])
            totals[layer] += (end - start) - covered
        return totals

    def metrics(self, overhead_ms: float, overhead_share: float) -> dict[str, float]:
        """Every PER_LAYER metric. Counts, bytes and ``.ms`` totals are per
        traced batch; percentiles, shares and per-spawn figures are not."""
        n = max(self.batches, 1)
        c = self.counts
        calls = len(self.sim_keys)
        spawns = c["harness.spawns"]
        self_s = self.self_times()
        out = {
            "harness.run_sim.p50_ms": _percentile(self.durations["harness.run_sim"], 0.50),
            "harness.run_sim.p99_ms": _percentile(self.durations["harness.run_sim"], 0.99),
            "harness.spawn.p50_ms": _percentile(self.durations["spawn"], 0.50),
            "harness.sim.repeat_share": (calls - len(set(self.sim_keys))) / calls if calls else 0.0,
            "harness.run_many.queue_wait_ms": _ms(c["harness.run_many.queue_wait.s"]) / n,
            "echosim.child_cpu_ms_per_spawn": _ms(self.child_cpu_s) / spawns if spawns else 0.0,
            "echosim.child_peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0 if spawns else 0.0
            ),
            "gateway.retries": (c["gateway.backend_calls"] - c["gateway.generate.calls"]
                                - c["gateway.score_continuation.calls"]) / n,
            "trace.spans": len(self.spans) / n,
            "trace.overhead_ms": overhead_ms,
            "trace.overhead_share": overhead_share,
        }
        out.update((f"{layer}.self_ms", _ms(self_s[layer]) / n) for layer in SELF_LAYERS)
        for name, unit, _ in PER_LAYER:
            if name in out:
                continue
            if unit == "ms":  # a span total: "x.y.ms" sums the seconds of span "x.y"
                out[name] = _ms(c[name[: -len(".ms")] + ".s"]) / n
            else:
                out[name] = c[name] / n
        return {name: out[name] for name, _, _ in PER_LAYER}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, span_id, parent, request in self.spans:
                f.write(json.dumps({
                    "name": name, "id": span_id, "parent": parent, "request": request,
                    "start_ms": round(_ms(start - self._origin), 4),
                    "end_ms": round(_ms(end - self._origin), 4),
                }) + "\n")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class _SubprocessProxy:
    """Stands in for ``subprocess`` inside cruxkit.harness: each ``run`` is a
    compile or run span (told apart by whether the design file is an
    argument) and a spawn."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._tracer = tracer
        self._real = real

    def __getattr__(self, name: str):
        return getattr(self._real, name)

    def run(self, cmd, *args, **kwargs):
        tracer = self._tracer
        compile_step = any(str(a).endswith("design.v") for a in cmd)
        name = "harness.compile" if compile_step else "harness.run"
        result, error, seconds = tracer.span(name, self._real.run, (cmd, *args), kwargs)
        tracer.add("harness.spawns")
        with tracer._lock:
            tracer.durations["spawn"].append(_ms(seconds))
        if not compile_step and result is not None and result.stdout:
            out = result.stdout
            tracer.add("echosim.stdout_bytes", len(out.encode("utf-8") if isinstance(out, str) else out))
        if error is not None:
            raise error
        return result


def _pool_class(tracer: Tracer, base):
    class TracedPool(base):
        """Carries the submitter's span context into the worker thread and
        records how long each job waited for a free worker."""

        def submit(self, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            queued = time.perf_counter()

            def run():
                tracer.add("harness.run_many.queue_wait.s", time.perf_counter() - queued)
                return context.run(fn, *args, **kwargs)
            return super().submit(run)

    return TracedPool
