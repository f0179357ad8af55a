"""Deterministic, seedable hashing.

Python's builtin :func:`hash` is randomized per process, which would make
DHT key placement, Bloom filter contents, and therefore every experiment
non-reproducible.  All hashing in the library goes through the helpers here,
which are based on BLAKE2b and are stable across processes and platforms.
"""

from hashlib import blake2b


def stable_hash_bytes(data, seed=0, digest_size=8):
    """Hash ``data`` (bytes or str) to ``digest_size`` bytes, deterministically.

    ``seed`` selects an independent hash function; it is mixed in through the
    BLAKE2 ``salt`` parameter so different seeds behave as independent hashes
    (this is how the Bloom filter derives its k functions).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    salt = seed.to_bytes(8, "little", signed=False)
    return blake2b(data, digest_size=digest_size, salt=salt).digest()


def stable_hash(data, seed=0, bits=64):
    """Hash ``data`` to an unsigned integer of at most ``bits`` bits."""
    nbytes = (bits + 7) // 8
    digest = stable_hash_bytes(data, seed=seed, digest_size=nbytes)
    value = int.from_bytes(digest, "little")
    if bits % 8:
        value &= (1 << bits) - 1
    return value
