"""The cache directory's entries, and whole-file replacement.

This module owns the entry format. An entry is one JSON object: the identity
it was written for, then its value, e.g. ``{"command": line, "vina": -7.2}``.
It counts only when it records the identity asked for and its value passes
its ``Kind``'s check; any other entry is a miss, and ``put`` replaces it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TextIO

CACHE_DIR_ENV = "MOLCHORD_CACHE_DIR"
DEFAULT_CACHE_DIR = ".molchord_cache"
_lock = threading.Lock()  # held by ``put``: one writer per process at a time


class CacheUnavailable(OSError):
    """The dock cache directory cannot be created or written."""


class Kind(NamedTuple):
    """An entry's two JSON fields, and its value's check (the value, or None)."""

    identity: str
    value: str
    check: Callable[[object], object | None]


def resolve_cache_dir(explicit: str | Path | None) -> Path:
    """``explicit``, else ``$MOLCHORD_CACHE_DIR``, else ``.molchord_cache``."""
    if explicit is not None:
        return Path(explicit)
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def make_cache_dir(directory: Path) -> None:
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CacheUnavailable(f"cannot create dock cache directory {directory}: {exc}") from exc
    if not os.access(directory, os.W_OK | os.X_OK):
        raise CacheUnavailable(f"cannot write to dock cache directory {directory}")


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A text handle whose contents replace ``path`` when the block ends
    without an exception; on an exception the temp file is removed. Every
    artifact and cache entry is written this way, so a stage that fails or
    is killed mid-write leaves the previous file (or none), never a
    truncated one."""
    path = Path(path)
    # a name of this writer's own, so processes that share a directory never
    # rename each other's half-written files
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def get(kind: Kind, path: Path, identity: str):
    """The checked value of the entry at ``path``, in one read, or None."""
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):
        return None
    if not isinstance(entry, dict) or entry.get(kind.identity) != identity:
        return None
    return kind.check(entry.get(kind.value))


def put(kind: Kind, path: Path, identity: str, value):
    """Write ``value`` unless the entry already counts; return what it holds.
    The re-read and the write share one lock, so threads never race."""
    with _lock:
        held = get(kind, path, identity)
        if held is not None:
            return held
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_write(path) as handle:
            json.dump({kind.identity: identity, kind.value: value}, handle)
    return value
