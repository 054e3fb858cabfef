"""Stable hashing shared across modules, and the only place hashes are built.

Python's builtin ``hash`` is salted per process, so everything that must be
reproducible (fingerprint bits, featurizer seeds, validation splits, cache
keys) goes through blake2b here. Files are identified by their SHA-256
(``sha256_file``): manifest hashes and canonical-entry keys.

``blake2b`` and ``sha256`` come from CPython's built-in ``_blake2`` and
``_sha2`` (``_sha256`` before Python 3.12) modules, as ``random`` takes its
``_sha512``, and ``hashlib`` is only the fallback. Importing ``hashlib``
loads OpenSSL's libcrypto, about 3.5 MB of resident memory in each stage
that runs without numpy and in each dock stand-in run, none of which needs
more than these two hashes. So no other module imports ``hashlib``; each
takes its constructor from here, and the digests are the same bits. The
model stages import ``hashlib`` through ``numpy.random`` (``secrets``,
``hmac``); ``cli.main`` blocks OpenSSL's ``_hashlib`` before that, so they
run on the built-in hashes as well. The price is speed: the built-in
SHA-256 hashes about 0.2 GB/s against OpenSSL's 1.5 GB/s, about 5 ms more
per MB, which the model stages pay on the checkpoints they hash.
"""

from __future__ import annotations

from pathlib import Path

try:
    from _blake2 import blake2b
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        from _sha256 import sha256  # Python 3.10 and 3.11
except ImportError:  # an interpreter built without them
    from hashlib import blake2b, sha256


def encode_part(part: int | str | bytes) -> bytes:
    """The bytes ``stable_hash64`` feeds the hash for one part; a digest over
    several parts is ``digest64`` of their encodings joined."""
    if isinstance(part, bool):  # bool is an int subclass; keep it distinct
        return b"?" + bytes([part])
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    if isinstance(part, str):
        raw = part.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(part, bytes):
        return b"b" + len(part).to_bytes(4, "little") + part
    raise TypeError(f"unhashable part type: {type(part).__name__}")


def digest64(data: bytes) -> int:
    """64-bit blake2b digest of ``data`` as a little-endian integer."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def stable_hash64(*parts: int | str | bytes) -> int:
    """64-bit digest of a heterogeneous tuple, stable across runs and platforms."""
    return digest64(b"".join([encode_part(part) for part in parts]))


def derive_seed(*parts: int | str | bytes) -> int:
    """Seed for a numpy Generator derived from arbitrary labels."""
    return stable_hash64(*parts)


def sha256_file(path: str | Path, prefix: bytes = b"") -> str:
    """Hex SHA-256 of ``prefix`` followed by the file's bytes, read in chunks."""
    digest = sha256(prefix)
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()
