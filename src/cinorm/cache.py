"""Content-addressed on-disk cache for norm tables.

Keys hash the descriptor, norm name, generator set and tool version, so a
version bump is automatically a miss.  Entries carry a digest of their own
payload; anything corrupt is evicted and recomputed, never trusted.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from ._version import __version__


def cache_dir() -> Path:
    env = os.environ.get("CINORM_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "cinorm"


def cache_key(group: str, norm_name: str, generators: tuple[str, ...] = (),
              version: str = __version__) -> str:
    body = json.dumps(
        {"group": group, "norm": norm_name,
         "generators": sorted(generators), "version": version},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def _entry_path(key: str) -> Path:
    return cache_dir() / f"{key}.json"


def _digest(payload: dict) -> str:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def cache_put(key: str, payload: dict) -> Path:
    path = _entry_path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {"key": key, "digest": _digest(payload), "payload": payload}
    tmp = tempfile.NamedTemporaryFile("w", dir=path.parent, suffix=".tmp",
                                      delete=False)  # one per writer
    try:
        with tmp:
            tmp.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
        os.replace(tmp.name, path)
    except BaseException:
        os.unlink(tmp.name)  # a failed write leaves no temp file behind
        raise
    return path


def cache_get(key: str) -> dict | None:
    path = _entry_path(key)
    if not path.is_file():  # absent, or not an entry: a miss, nothing to evict
        return None
    try:
        entry = json.loads(path.read_text())
        if entry["key"] == key and entry["digest"] == _digest(entry["payload"]):
            return entry["payload"]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    path.unlink(missing_ok=True)  # corrupt or mismatched: evict, never trust
    return None


def _entries(root: Path) -> list[Path]:
    # regular files only: anything else at an entry's name is not an entry
    return [p for p in root.glob("*.json") if p.is_file()] if root.is_dir() else []


def cache_clear() -> int:
    files = _entries(cache_dir())
    for p in files:
        p.unlink()
    return len(files)


def cache_stats() -> dict:
    root = cache_dir()
    files = _entries(root)
    return {"dir": str(root), "entries": len(files),
            "bytes": sum(p.stat().st_size for p in files)}
