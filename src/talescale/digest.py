"""Content digests in ``algo:hex`` form.

New digests are sha256; a stored one is checked with the algorithm it
names. Digests sit beside every archived entry and every external data
reference so corruption is detectable on import and after transfer.
A checksum that no digest can equal is refused where it is parsed.
"""

from __future__ import annotations

import hashlib

DEFAULT_ALGO = "sha256"
SHORT_LENGTH = 12  # hex digits in a short digest


# The hex digits of each algorithm's digests, for each algorithm hashlib
# has a fixed-length digest for; shake_* digests take a length, so they have none.
_DIGITS = {algo: 2 * size for algo in hashlib.algorithms_available
           if (size := hashlib.new(algo).digest_size)}


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
    """Split ``algo:hex``, refusing a checksum that no digest can equal: its
    algorithm must have a fixed-length digest in hashlib, and its hex part
    must be the lowercase hex of one, as ``hexdigest`` gives it back."""
    algo, _, hexpart = checksum.partition(":")
    try:
        if _DIGITS.get(algo) == len(hexpart) and bytes.fromhex(hexpart).hex() == hexpart:
            return algo, hexpart
    except ValueError:  # not hex at all
        pass
    if not algo or not hexpart:
        raise ValueError(f"malformed checksum {checksum!r}, expected 'algo:hex'")
    if algo not in _DIGITS:
        raise ValueError(f"checksum {checksum!r} names {algo!r}, "
                         f"for which hashlib has no fixed-length digest")
    raise ValueError(f"checksum {checksum!r} is not a {algo} digest: "
                     f"expected {_DIGITS[algo]} lowercase hex digits after the colon")
