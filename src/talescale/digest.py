"""Content digests in ``algo:hex`` form.

One configurable algorithm per deployment; sha256 by default. Digests are
stored alongside every archived entry and every external data reference so
corruption is detectable on import and after transfer.
"""

from __future__ import annotations

import hashlib

DEFAULT_ALGO = "sha256"


def digest_bytes(data: bytes, algo: str = DEFAULT_ALGO) -> str:
    h = hashlib.new(algo)
    h.update(data)
    return f"{algo}:{h.hexdigest()}"


def digest_file(path, algo: str = DEFAULT_ALGO) -> str:
    h = hashlib.new(algo)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return f"{algo}:{h.hexdigest()}"


def short_digest(data: bytes, length: int = 12) -> str:
    """Truncated hex digest used in transport log lines."""
    return hashlib.sha256(data).hexdigest()[:length]


def parse(checksum: str) -> tuple[str, str]:
    algo, _, hexpart = checksum.partition(":")
    if not algo or not hexpart:
        raise ValueError(f"malformed checksum {checksum!r}, expected 'algo:hex'")
    return algo, hexpart
