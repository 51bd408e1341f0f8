"""Thin client for completion-style model servers, plus a deterministic mock.

Two calls: ``generate`` (n sampled completions for a prompt) and
``score_continuation`` (per-token logprobs of a fixed continuation after a
prompt, via the echo-logprobs convention). Transient failures retry with
exponential backoff; every call appends one line to a JSONL audit log when
one is configured, and only then is its request digested. The mock
provider answers from canned tables keyed by prompt substrings and is
fully deterministic under its seed, so pipelines can run hermetically.
This module imports only ``jsonl``, whose ``provider``, ``mock`` and
``completions`` kinds its configs are checked against, so the commands that
call a provider pay only for the client.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
import zlib
from dataclasses import asdict, dataclass, field

from .jsonl import ConfigError, check


@dataclass(frozen=True)
class TokenLogProbSeq:
    """Aligned token ids and their log probabilities.

    Logprobs are never positive. Operations that need at least one token
    raise ``rewards.EmptySequence`` on the degenerate empty container.
    """

    tokens: tuple[int, ...]
    logprobs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logprobs):
            raise ValueError("tokens and logprobs must have equal length")
        for lp in self.logprobs:
            if not math.isfinite(lp) or lp > 0.0:
                raise ValueError(f"logprobs must be finite and <= 0, got {lp}")

    def __len__(self) -> int:
        return len(self.tokens)

    @classmethod
    def from_payload(cls, payload: dict) -> "TokenLogProbSeq":
        """The sequence a ``{"tokens": [...], "logprobs": [...]}`` row field holds."""
        return cls(tuple(map(int, payload["tokens"])), tuple(map(float, payload["logprobs"])))


class GatewayError(RuntimeError):
    pass


class ProviderUnreachable(GatewayError):
    """Connection or server failure persisting through all retries."""


class TruncatedResponse(GatewayError):
    """The server returned fewer completions than requested, or cut one off."""


class LogprobsUnsupported(GatewayError):
    """The server response carries no logprob data."""


class TokenizationMismatch(GatewayError):
    """No token boundary aligns with the prompt/continuation split."""


@dataclass(frozen=True)
class GenRequest:
    prompt: str
    n: int = 5
    temperature: float = 1.0
    top_p: float = 0.99
    max_tokens: int = 4096
    seed: int | None = None

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be nonempty")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.temperature < 0 or not 0 < self.top_p <= 1:
            raise ValueError("bad sampling parameters")


@dataclass(frozen=True)
class ScoreRequest:
    prompt: str
    continuation: str

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be nonempty")
        if not self.continuation:
            raise ValueError("continuation must be nonempty")


@dataclass
class ProviderConfig:
    kind: str = "mock"  # "mock" | "http"
    base_url: str = ""
    model: str = ""
    api_key_env: str = "CRUXKIT_API_KEY"
    timeout_s: float = 60.0
    max_retries: int = 3
    backoff_s: float = 0.5
    audit_path: str | None = None
    mock: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check("provider", None, vars(self))
        if self.kind == "http" and not self.base_url:
            raise ConfigError("bad provider config: http provider requires base_url")
        # the audit log is opened at each call: a path it cannot take fails here, before any call
        if self.audit_path:
            if os.path.isdir(self.audit_path):
                raise ConfigError(f"bad provider config: audit_path is a directory: "
                                  f"{self.audit_path}")
            if not os.path.isdir(os.path.dirname(self.audit_path) or os.curdir):
                raise ConfigError("bad provider config: audit_path is in a directory that "
                                  f"does not exist: {self.audit_path}")
        if self.kind == "mock":
            MockProvider(self.mock)  # a bad mock value fails here, as the config is read


class TransientFailure(GatewayError):
    """Internal marker for retryable failures."""


def token_id(token_text: str) -> int:
    """Stable id for a token string (providers differ; ids only need to be
    consistent within a run)."""
    return zlib.crc32(token_text.encode("utf-8")) & 0x7FFFFFFF

DEFAULT_MOCK_LOGPROB = math.log(0.5)


class MockProvider:
    """Deterministic stand-in for a completion server.

    Config keys (all optional):
      completions: list of {"match": substring, "texts": [..]} rules; first
        rule whose substring occurs in the prompt wins
      default_completions: texts used when no rule matches
      logprob_table: {token_text: logprob} for score_continuation
      default_logprob: logprob for unlisted tokens (default ln 0.5)
      fail_first: int, raise a transient failure on this many leading calls
      seed: int folded into synthesized completions

    Scoring tokenizes the continuation by whitespace; only continuation
    tokens are ever scored, so prompt length cannot change the result.
    """

    def __init__(self, config: dict | None = None):
        cfg = check("mock", None, config or {})
        self.rules = [check("completions", i, rule)
                      for i, rule in enumerate(cfg.get("completions", []), 1)]
        self.default_completions = cfg.get("default_completions", [])
        self.logprob_table = cfg.get("logprob_table", {})
        self.default_logprob = cfg.get("default_logprob", DEFAULT_MOCK_LOGPROB)
        self._fail_remaining = cfg.get("fail_first", 0)
        self.seed = cfg.get("seed", 0)
        self._lock = threading.Lock()

    def _maybe_fail(self) -> None:
        with self._lock:
            if self._fail_remaining > 0:
                self._fail_remaining -= 1
                raise TransientFailure("scripted mock failure")

    def _canned_for(self, prompt: str) -> list[str]:
        for rule in self.rules:
            if rule.get("match", "") in prompt:
                return list(rule.get("texts", []))
        return list(self.default_completions)

    def generate(self, req: GenRequest) -> list[str]:
        self._maybe_fail()
        canned = self._canned_for(req.prompt)
        texts = canned[: req.n]
        while len(texts) < req.n:
            idx = len(texts)
            if canned:
                texts.append(canned[idx % len(canned)])
            else:
                digest = hashlib.sha256(
                    f"{self.seed}:{req.seed}:{idx}:{req.prompt}".encode()
                ).hexdigest()[:12]
                texts.append(f"// mock completion {idx} {digest}")
        return texts

    def score(self, req: ScoreRequest) -> TokenLogProbSeq:
        self._maybe_fail()
        words = req.continuation.split()
        if not words:
            raise TokenizationMismatch("continuation has no tokens")
        ids = tuple(token_id(w) for w in words)
        lps = tuple(
            float(self.logprob_table.get(w, self.default_logprob)) for w in words
        )
        return TokenLogProbSeq(ids, lps)


class HttpProvider:
    """Completions-convention HTTP backend (POST {base_url}/completions)."""

    def __init__(self, config: ProviderConfig):
        self.config = config

    def _post(self, payload: dict) -> dict:
        # imported here: it loads http.client and ssl, which only HTTP runs need
        import urllib.error
        import urllib.request

        headers = {"Content-Type": "application/json"}
        api_key = os.environ.get(self.config.api_key_env, "")
        if api_key:
            headers["Authorization"] = f"Bearer {api_key}"
        request = urllib.request.Request(
            self.config.base_url.rstrip("/") + "/completions",
            data=json.dumps(payload).encode("utf-8"), headers=headers, method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=self.config.timeout_s) as resp:
                status, body = resp.status, resp.read()
        except urllib.error.HTTPError as exc:
            status, body = exc.code, exc.read()
        except OSError as exc:  # URLError, or a bare TimeoutError on a read timeout
            raise TransientFailure(f"connection failure: {exc}") from exc
        if status == 429:
            raise TransientFailure("rate limited")
        if status >= 500:
            raise TransientFailure(f"server error {status}")
        if status != 200:
            text = body.decode("utf-8", errors="replace")
            raise ProviderUnreachable(f"HTTP {status}: {text[:200]}")
        return json.loads(body)

    def generate(self, req: GenRequest) -> list[str]:
        payload = {
            "model": self.config.model,
            "prompt": req.prompt,
            "n": req.n,
            "temperature": req.temperature,
            "top_p": req.top_p,
            "max_tokens": req.max_tokens,
        }
        if req.seed is not None:
            payload["seed"] = req.seed
        return [c.get("text", "") for c in self._post(payload).get("choices", [])]

    def score(self, req: ScoreRequest) -> TokenLogProbSeq:
        payload = {
            "model": self.config.model,
            "prompt": req.prompt + req.continuation,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
        }
        data = self._post(payload)
        choices = data.get("choices", [])
        if not choices:
            raise TruncatedResponse("no choices in scoring response")
        lp = choices[0].get("logprobs")
        if not lp or "token_logprobs" not in lp or "text_offset" not in lp:
            raise LogprobsUnsupported("response carries no logprob data")
        offsets = lp["text_offset"]
        tokens = lp.get("tokens", [""] * len(offsets))
        token_lps = lp["token_logprobs"]
        boundary = len(req.prompt)
        start = None
        for i, off in enumerate(offsets):
            if off == boundary:
                start = i
                break
            if off > boundary:
                raise TokenizationMismatch(
                    f"no token starts at offset {boundary} (nearest: {off})"
                )
        if start is None:
            raise TokenizationMismatch("continuation produced no tokens")
        ids, lps = [], []
        for tok, tlp in zip(tokens[start:], token_lps[start:]):
            if tlp is None:
                raise LogprobsUnsupported("null logprob inside continuation")
            ids.append(token_id(tok))
            lps.append(min(float(tlp), 0.0))
        if not ids:
            raise TokenizationMismatch("continuation produced no tokens")
        return TokenLogProbSeq(tuple(ids), tuple(lps))


def make_backend(config: ProviderConfig):
    if config.kind == "mock":
        return MockProvider(config.mock)
    return HttpProvider(config)


class Gateway:
    """Retry/backoff/audit wrapper around a provider backend."""

    def __init__(self, config: ProviderConfig, backend=None, sleep=time.sleep):
        self.config = config
        self.backend = backend if backend is not None else make_backend(config)
        self._sleep = sleep
        self._audit_lock = threading.Lock()

    def _audit(self, kind: str, req: GenRequest | ScoreRequest, attempts: int,
               extra: dict) -> None:
        if not self.config.audit_path:
            return
        digest = hashlib.sha256(json.dumps(asdict(req), sort_keys=True).encode()).hexdigest()
        entry = {
            "kind": kind,
            "request_sha256": digest,
            "attempts": attempts,
            "timestamp": time.time(),
            **extra,
        }
        with self._audit_lock:
            with open(self.config.audit_path, "a", encoding="utf-8") as f:
                f.write(json.dumps(entry, sort_keys=True) + "\n")

    def _with_retries(self, fn):
        last: Exception | None = None
        for attempt in range(1, self.config.max_retries + 1):
            try:
                return fn(), attempt
            except TransientFailure as exc:
                last = exc
                if attempt < self.config.max_retries:
                    self._sleep(self.config.backoff_s * (2 ** (attempt - 1)))
        raise ProviderUnreachable(str(last)) from last

    def generate(self, req: GenRequest) -> list[str]:
        texts, attempts = self._with_retries(lambda: self.backend.generate(req))
        if len(texts) != req.n:
            raise TruncatedResponse(f"asked for {req.n} completions, got {len(texts)}")
        self._audit("generate", req, attempts, {"n": req.n})
        return texts

    def score_continuation(self, req: ScoreRequest) -> TokenLogProbSeq:
        seq, attempts = self._with_retries(lambda: self.backend.score(req))
        self._audit("score", req, attempts, {"tokens": len(seq)})
        return seq
