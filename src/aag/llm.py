"""Minimal chat-completions client used for report narration.

Two backends:

* ``echo`` -- deterministic and offline; replays the facts block from the
  prompt. Used by tests and as the default so the pipeline runs without
  credentials.
* ``remote`` -- POSTs to an OpenAI-compatible ``/chat/completions`` endpoint
  with retries on transient failures.

The whole prompt travels as a single user message so that the text the model
sees is byte-for-byte the text the pipeline assembled.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

from .errors import AuthError, GenerationTimeoutError, HttpError, ParseError

ECHO_MARKER = "Facts:\n"

# sampling profiles: a remote, larger model runs greedily; a local model
# gets a little freedom but stays tightly nucleus-capped
PROFILES = {
    "remote": {"temperature": 0.0, "top_p": 1.0},
    "local": {"temperature": 0.2, "top_p": 0.1},
}


@dataclass
class GenerationConfig:
    backend: str = "echo"          # "echo" | "remote"
    model: str = "default"
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 1024
    base_url: str = "http://localhost:8000/v1"
    timeout: float = 120.0
    retries: int = 3

    def __post_init__(self):
        if not (0.0 <= self.temperature <= 2.0):
            raise ParseError(
                f"temperature must be in [0, 2], got {self.temperature}")
        if not (0.0 < self.top_p <= 1.0):
            raise ParseError(f"top_p must be in (0, 1], got {self.top_p}")
        if self.backend not in ("echo", "remote"):
            raise ParseError(f"unknown backend {self.backend!r}")


def config_for_profile(profile: str, backend: str = "echo",
                       **overrides) -> GenerationConfig:
    if profile not in PROFILES:
        raise ParseError(f"unknown profile {profile!r} "
                         f"(expected one of {sorted(PROFILES)})")
    params = dict(PROFILES[profile])
    params.update(overrides)
    return GenerationConfig(backend=backend, **params)


def _echo(prompt: str) -> str:
    idx = prompt.rfind(ECHO_MARKER)
    body = prompt[idx + len(ECHO_MARKER):] if idx >= 0 else prompt
    return "REPORT:\n" + body.strip()


def _remote(prompt: str, config: GenerationConfig) -> str:
    import requests  # only this backend needs it, and it is slow to import
    url = config.base_url.rstrip("/") + "/chat/completions"
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get("AAG_API_KEY")
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    payload = {
        "model": config.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": config.temperature,
        "top_p": config.top_p,
        "max_tokens": config.max_tokens,
    }
    delay = 1.0
    last: Optional[str] = None
    for attempt in range(config.retries + 1):
        try:
            resp = requests.post(url, json=payload, headers=headers,
                                 timeout=config.timeout)
        except requests.Timeout as e:
            raise GenerationTimeoutError(
                f"generation timed out after {config.timeout}s") from e
        except requests.RequestException as e:
            last = str(e)
            resp = None
        if resp is not None:
            if resp.status_code in (401, 403):
                raise AuthError(resp.status_code, resp.text)
            if resp.status_code == 200:
                try:
                    return resp.json()["choices"][0]["message"]["content"]
                except (ValueError, KeyError, IndexError, TypeError) as e:
                    raise HttpError(
                        200, f"malformed response: {resp.text}") from e
            if resp.status_code == 429 or resp.status_code >= 500:
                last = f"{resp.status_code}: {resp.text[:200]}"
            else:
                raise HttpError(resp.status_code, resp.text)
        if attempt < config.retries:
            time.sleep(delay)
            delay *= 2
    raise HttpError(0, f"giving up after {config.retries + 1} attempts "
                       f"(last error: {last})")


def generate(prompt: str, config: Optional[GenerationConfig] = None) -> str:
    """Run one completion; deterministic when the backend is ``echo``."""
    config = config or GenerationConfig()
    if config.backend == "echo":
        return _echo(prompt)
    return _remote(prompt, config)
