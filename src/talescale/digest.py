"""Content digests in ``algo:hex`` form.

New digests are sha256; a stored one is checked with the algorithm it
names. Digests sit beside every archived entry and every external data
reference so corruption is detectable on import and after transfer.
"""

from __future__ import annotations

import hashlib

DEFAULT_ALGO = "sha256"
SHORT_LENGTH = 12  # hex digits in a short digest


def digest_bytes(data: bytes, algo: str = DEFAULT_ALGO) -> str:
    h = hashlib.new(algo)
    h.update(data)
    return f"{algo}:{h.hexdigest()}"


def digest_file(path) -> str:
    h = hashlib.new(DEFAULT_ALGO)
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return f"{DEFAULT_ALGO}:{h.hexdigest()}"


def short_digest(data: bytes) -> str:
    """Truncated hex digest used in transport log lines."""
    return hashlib.sha256(data).hexdigest()[:SHORT_LENGTH]


def parse(checksum: str) -> tuple[str, str]:
    algo, _, hexpart = checksum.partition(":")
    if not algo or not hexpart:
        raise ValueError(f"malformed checksum {checksum!r}, expected 'algo:hex'")
    return algo, hexpart
