"""Stable seed derivation for reproducible randomness.

Built-in ``hash()`` is salted per process, so sub-seeds are derived from
SHA-256 instead.  Everything downstream that needs randomness takes a
``random.Random`` built from one of these seeds.
"""

from __future__ import annotations

import hashlib


def derive_seed(*parts: object) -> int:
    """Map an arbitrary tuple of labels to a stable 64-bit seed."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")

