"""Shared low-level helpers: deterministic hashing."""

from repro.util.hashing import stable_hash, stable_hash_bytes

__all__ = [
    "stable_hash",
    "stable_hash_bytes",
]
