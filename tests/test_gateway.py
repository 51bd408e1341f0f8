"""Provider gateway: mock determinism, retries, scoring, audit trail."""

import hashlib
import http.server
import json
import math
import threading
import time

import pytest

from cruxkit.gateway import (
    DEFAULT_MOCK_LOGPROB,
    Gateway,
    GenRequest,
    HttpProvider,
    MockProvider,
    ProviderConfig,
    ProviderUnreachable,
    ScoreRequest,
    TokenizationMismatch,
    TransientFailure,
    TruncatedResponse,
    make_backend,
    token_id,
)


def mock_gateway(mock_cfg=None, **cfg_kwargs):
    config = ProviderConfig(kind="mock", mock=mock_cfg or {}, **cfg_kwargs)
    return Gateway(config, sleep=lambda s: None)


class TestGenRequestDefaults:
    def test_sampling_defaults(self):
        req = GenRequest("p")
        assert (req.n, req.temperature, req.top_p, req.max_tokens) == (5, 1.0, 0.99, 4096)

    def test_validation(self):
        with pytest.raises(ValueError):
            GenRequest("")
        with pytest.raises(ValueError):
            GenRequest("p", n=0)
        with pytest.raises(ValueError):
            GenRequest("p", top_p=0.0)
        with pytest.raises(ValueError):
            ScoreRequest("p", "")


class TestMockProvider:
    def test_rule_matching_first_wins(self):
        cfg = {
            "completions": [
                {"match": "alpha", "texts": ["A"]},
                {"match": "alp", "texts": ["B"]},
            ]
        }
        gw = mock_gateway(cfg)
        assert gw.generate(GenRequest("say alpha", n=1)) == ["A"]

    def test_canned_cycle_to_n(self):
        cfg = {"completions": [{"match": "x", "texts": ["one", "two"]}]}
        gw = mock_gateway(cfg)
        assert gw.generate(GenRequest("x", n=5)) == ["one", "two", "one", "two", "one"]

    def test_synthesized_fallback_is_deterministic(self):
        gw1 = mock_gateway({})
        gw2 = mock_gateway({})
        req = GenRequest("unmatched prompt", n=3, seed=7)
        assert gw1.generate(req) == gw2.generate(req)

    def test_different_seed_changes_synthesized(self):
        gw = mock_gateway({})
        a = gw.generate(GenRequest("p", n=1, seed=1))
        b = gw.generate(GenRequest("p", n=1, seed=2))
        assert a != b

    def test_score_default_logprob(self):
        gw = mock_gateway({})
        seq = gw.score_continuation(ScoreRequest("prompt", "a b c"))
        assert len(seq) == 3
        assert seq.logprobs == (DEFAULT_MOCK_LOGPROB,) * 3
        assert DEFAULT_MOCK_LOGPROB == pytest.approx(math.log(0.5))

    def test_score_table_lookup(self):
        cfg = {"logprob_table": {"module": -0.01}, "default_logprob": -2.0}
        gw = mock_gateway(cfg)
        seq = gw.score_continuation(ScoreRequest("p", "module endmodule"))
        assert seq.logprobs == (-0.01, -2.0)

    def test_score_ignores_prompt_length(self):
        # only continuation tokens are scored, so padding the prompt cannot
        # change the sequence length or values
        gw = mock_gateway({})
        short = gw.score_continuation(ScoreRequest("p", "x y"))
        long = gw.score_continuation(ScoreRequest("p" * 5000, "x y"))
        assert short == long

    def test_empty_continuation_tokenization(self):
        gw = mock_gateway({})
        with pytest.raises(TokenizationMismatch):
            gw.score_continuation(ScoreRequest("p", "   "))

    def test_positive_logprob_config_rejected(self):
        with pytest.raises(ValueError):
            MockProvider({"default_logprob": 0.5})

    def test_token_ids_stable(self):
        assert token_id("module") == token_id("module")
        assert token_id("module") != token_id("endmodule")
        assert 0 <= token_id("anything") < 2**31


class TestRetries:
    def test_transient_failures_then_success(self):
        cfg = {"fail_first": 2, "completions": [{"match": "", "texts": ["ok"]}]}
        sleeps = []
        gateway = Gateway(
            ProviderConfig(kind="mock", mock=cfg, max_retries=3, backoff_s=0.5),
            sleep=sleeps.append,
        )
        assert gateway.generate(GenRequest("p", n=1)) == ["ok"]
        # exponential backoff: 0.5 then 1.0
        assert sleeps == [0.5, 1.0]

    def test_exhausted_retries_raise(self):
        cfg = {"fail_first": 10, "completions": [{"match": "", "texts": ["ok"]}]}
        gateway = Gateway(
            ProviderConfig(kind="mock", mock=cfg, max_retries=3), sleep=lambda s: None
        )
        with pytest.raises(ProviderUnreachable):
            gateway.generate(GenRequest("p", n=1))

    def test_audit_log_counts_attempts(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        cfg = {"fail_first": 1, "completions": [{"match": "", "texts": ["ok"]}]}
        gateway = Gateway(
            ProviderConfig(kind="mock", mock=cfg, audit_path=str(audit)),
            sleep=lambda s: None,
        )
        gateway.generate(GenRequest("p", n=1))
        entries = [json.loads(line) for line in audit.read_text().splitlines()]
        assert len(entries) == 1
        assert entries[0]["kind"] == "generate"
        assert entries[0]["attempts"] == 2
        assert "request_sha256" in entries[0]
        assert "timestamp" in entries[0]

    def test_audit_digest_is_sha256_of_sorted_request_fields(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        gateway = Gateway(
            ProviderConfig(kind="mock", mock={"completions": [{"match": "", "texts": ["ok"]}]},
                           audit_path=str(audit)),
            sleep=lambda s: None,
        )
        gateway.generate(GenRequest("p", n=2, temperature=0.5, top_p=0.9, max_tokens=7, seed=11))
        gateway.score_continuation(ScoreRequest("p", "tok"))

        def sha(fields):
            return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()

        digests = [json.loads(line)["request_sha256"] for line in audit.read_text().splitlines()]
        assert digests == [
            sha({"prompt": "p", "n": 2, "temperature": 0.5, "top_p": 0.9, "max_tokens": 7,
                 "seed": 11}),
            sha({"prompt": "p", "continuation": "tok"}),
        ]

    def test_audit_log_accumulates(self, tmp_path):
        audit = tmp_path / "audit.jsonl"
        gateway = Gateway(
            ProviderConfig(
                kind="mock",
                mock={"completions": [{"match": "", "texts": ["ok"]}]},
                audit_path=str(audit),
            ),
            sleep=lambda s: None,
        )
        gateway.generate(GenRequest("p", n=1))
        gateway.score_continuation(ScoreRequest("p", "tok"))
        kinds = [json.loads(line)["kind"] for line in audit.read_text().splitlines()]
        assert kinds == ["generate", "score"]


class FlakyBackend:
    """Returns fewer completions than asked, to exercise the post-check."""

    def generate(self, req):
        return ["only one"]

    def score(self, req):
        raise AssertionError("not used")


class TestGatewayChecks:
    def test_truncated_generation_detected(self):
        gateway = Gateway(ProviderConfig(kind="mock"), backend=FlakyBackend())
        with pytest.raises(TruncatedResponse):
            gateway.generate(GenRequest("p", n=3))

    def test_make_backend_kinds(self):
        assert isinstance(make_backend(ProviderConfig(kind="mock")), MockProvider)
        with pytest.raises(ValueError):
            make_backend(ProviderConfig(kind="carrier-pigeon"))

    def test_http_kind_needs_base_url(self):
        with pytest.raises(ValueError):
            ProviderConfig(kind="http", base_url="")


class ScriptedScoreBackend:
    """Completions-convention scoring payloads with controllable offsets."""

    def __init__(self, payload):
        self.payload = payload

    def generate(self, req):
        raise AssertionError("not used")

    def score(self, req):
        from cruxkit.gateway import HttpProvider

        provider = HttpProvider.__new__(HttpProvider)
        provider.config = ProviderConfig(kind="http", base_url="http://unused")
        provider._post = lambda _payload: self.payload
        return HttpProvider.score(provider, req)


class TestHttpScoreParsing:
    def make_payload(self, offsets, logprobs, tokens=None):
        return {
            "choices": [
                {
                    "logprobs": {
                        "text_offset": offsets,
                        "token_logprobs": logprobs,
                        "tokens": tokens or ["t"] * len(offsets),
                    }
                }
            ]
        }

    def test_boundary_alignment(self):
        # prompt "ab", continuation "cd": tokens at offsets 0 and 2
        payload = self.make_payload([0, 2], [None, -0.7])
        backend = ScriptedScoreBackend(payload)
        gateway = Gateway(
            ProviderConfig(kind="http", base_url="http://unused"), backend=backend
        )
        seq = gateway.score_continuation(ScoreRequest("ab", "cd"))
        assert seq.logprobs == (-0.7,)

    def test_misaligned_boundary_raises(self):
        payload = self.make_payload([0, 3], [None, -0.7])
        backend = ScriptedScoreBackend(payload)
        gateway = Gateway(
            ProviderConfig(kind="http", base_url="http://unused"), backend=backend
        )
        with pytest.raises(TokenizationMismatch):
            gateway.score_continuation(ScoreRequest("ab", "cd"))


class ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Records each POST and answers it with the server's ``reply``
    (status, body); ``None`` stalls past any client timeout instead."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.path, dict(self.headers), json.loads(body)))
        if self.server.reply is None:
            time.sleep(0.5)
            return
        status, text = self.server.reply
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def loopback():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), ScriptedHandler)
    server.requests, server.reply = [], (200, "{}")
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join()


class TestHttpTransport:
    @pytest.fixture()
    def provider(self, loopback, monkeypatch):
        monkeypatch.setenv("no_proxy", "*")
        host, port = loopback.server_address
        return HttpProvider(ProviderConfig(
            kind="http", base_url=f"http://{host}:{port}/v1/", model="m", timeout_s=0.2,
        ))

    def test_posts_json_with_bearer_key(self, provider, loopback, monkeypatch):
        monkeypatch.setenv("CRUXKIT_API_KEY", "sekrit")
        loopback.reply = (200, json.dumps({"choices": [{"text": "a"}, {"text": "b"}]}))
        assert provider.generate(GenRequest("p", n=2, seed=7)) == ["a", "b"]
        path, headers, payload = loopback.requests[0]
        assert path == "/v1/completions"
        assert headers["Authorization"] == "Bearer sekrit"
        assert headers["Content-Type"] == "application/json"
        assert (payload["model"], payload["prompt"], payload["n"], payload["seed"]) == ("m", "p", 2, 7)

    def test_fewer_choices_than_asked_is_truncated(self, provider, loopback):
        loopback.reply = (200, json.dumps({"choices": [{"text": "a"}]}))
        gateway = Gateway(provider.config, backend=provider, sleep=lambda s: None)
        with pytest.raises(TruncatedResponse, match="asked for 2 completions, got 1"):
            gateway.generate(GenRequest("p", n=2))

    def test_no_key_no_authorization(self, provider, loopback, monkeypatch):
        monkeypatch.delenv("CRUXKIT_API_KEY", raising=False)
        provider._post({})
        assert "Authorization" not in loopback.requests[0][1]

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_rate_limit_and_server_errors_are_transient(self, provider, loopback, status):
        loopback.reply = (status, "busy")
        with pytest.raises(TransientFailure):
            provider._post({})

    def test_other_status_is_unreachable_with_body_prefix(self, provider, loopback):
        loopback.reply = (404, "x" * 300)
        with pytest.raises(ProviderUnreachable) as err:
            provider._post({})
        assert str(err.value) == "HTTP 404: " + "x" * 200
        assert not isinstance(err.value, TransientFailure)

    def test_refused_connection_is_transient(self, provider, loopback):
        loopback.shutdown()
        loopback.server_close()  # shutdown alone leaves the port accepting
        with pytest.raises(TransientFailure, match="connection failure"):
            provider._post({})

    def test_read_timeout_is_transient(self, provider, loopback):
        loopback.reply = None
        with pytest.raises(TransientFailure, match="connection failure"):
            provider._post({})
