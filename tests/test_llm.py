import json

import pytest
import requests

from aag.errors import AagError, HttpError
from aag.llm import GenerationConfig, config_for_profile, generate


class FakeResponse:
    def __init__(self, status_code, doc=None, text=""):
        self.status_code = status_code
        self._doc = doc
        self.text = text or (json.dumps(doc) if doc else "")

    def json(self):
        return self._doc


def _remote_config(**kw):
    kw.setdefault("backend", "remote")
    kw.setdefault("retries", 1)
    return GenerationConfig(**kw)


def test_echo_replays_the_facts_block():
    prompt = "Write a report.\n\nFacts:\n1. A thing happened.\n2. Another.\n"
    out = generate(prompt)
    assert out == "REPORT:\n1. A thing happened.\n2. Another."
    assert generate(prompt) == out  # deterministic


def test_echo_without_marker_replays_everything():
    assert generate("just text") == "REPORT:\njust text"


def test_profiles():
    remote = config_for_profile("remote", backend="echo")
    assert (remote.temperature, remote.top_p) == (0.0, 1.0)
    local = config_for_profile("local", backend="echo")
    assert (local.temperature, local.top_p) == (0.2, 0.1)
    with pytest.raises(AagError, match=r"^unknown profile 'gpu' \(expected one of "
                                      r"\['local', 'remote'\]\)$"):
        config_for_profile("gpu")


def test_config_validation():
    with pytest.raises(AagError, match=r"^temperature must be in \[0, 2\], got 3.0$"):
        GenerationConfig(temperature=3.0)
    with pytest.raises(AagError, match=r"^top_p must be in \(0, 1\], got 0.0$"):
        GenerationConfig(top_p=0.0)
    with pytest.raises(AagError, match=r"^unknown backend 'psychic'$"):
        GenerationConfig(backend="psychic")


def test_remote_success(monkeypatch):
    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen["url"] = url
        seen["payload"] = json
        seen["headers"] = headers
        return FakeResponse(200, {"choices": [
            {"message": {"content": "The report."}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("AAG_API_KEY", "sekret")
    out = generate("prompt text", _remote_config())
    assert out == "The report."
    assert seen["url"].endswith("/chat/completions")
    assert seen["headers"]["Authorization"] == "Bearer sekret"
    assert seen["payload"]["messages"] == [
        {"role": "user", "content": "prompt text"}]


def test_remote_auth_failure(monkeypatch):
    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: FakeResponse(401, text="denied"))
    with pytest.raises(HttpError, match=r"^HTTP 401: denied$") as exc:
        generate("p", _remote_config())
    # the CLI prints ``error: `` and this message
    assert str(exc.value) == "HTTP 401: denied"
    assert exc.value.status == 401


def test_remote_retries_then_succeeds(monkeypatch):
    calls = []

    def fake_post(*a, **k):
        calls.append(1)
        if len(calls) < 2:
            return FakeResponse(503, text="busy")
        return FakeResponse(200, {"choices": [{"message": {"content": "ok"}}]})

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setattr("aag.llm.time.sleep", lambda s: None)
    assert generate("p", _remote_config(retries=2)) == "ok"
    assert len(calls) == 2


def test_remote_gives_up_after_retries(monkeypatch):
    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: FakeResponse(500, text="boom"))
    monkeypatch.setattr("aag.llm.time.sleep", lambda s: None)
    with pytest.raises(HttpError, match="giving up"):
        generate("p", _remote_config(retries=1))


def test_remote_timeout(monkeypatch):
    def fake_post(*a, **k):
        raise requests.Timeout("slow")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(AagError, match=r"^generation timed out after 120.0s$"):
        generate("p", _remote_config())


def test_remote_malformed_response(monkeypatch):
    monkeypatch.setattr(requests, "post",
                        lambda *a, **k: FakeResponse(200, {"nope": True}))
    with pytest.raises(HttpError, match="malformed"):
        generate("p", _remote_config())


def test_remote_client_error_is_not_retried(monkeypatch):
    calls = []

    def fake_post(*a, **k):
        calls.append(1)
        return FakeResponse(400, text="bad request")

    monkeypatch.setattr(requests, "post", fake_post)
    with pytest.raises(HttpError):
        generate("p", _remote_config(retries=3))
    assert len(calls) == 1
