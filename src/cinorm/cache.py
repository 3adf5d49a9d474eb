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
    with tempfile.NamedTemporaryFile("w", dir=path.parent, suffix=".tmp",
                                     delete=False) as tmp:  # one per writer
        tmp.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
    os.replace(tmp.name, path)
    return path


def cache_get(key: str) -> dict | None:
    path = _entry_path(key)
    if not path.exists():
        return None
    try:
        entry = json.loads(path.read_text())
        if entry["key"] == key and entry["digest"] == _digest(entry["payload"]):
            return entry["payload"]
    except (OSError, ValueError, KeyError, TypeError):
        pass
    path.unlink(missing_ok=True)  # corrupt or mismatched: evict, never trust
    return None


def cache_clear() -> int:
    root = cache_dir()
    if not root.is_dir():
        return 0
    n = 0
    for p in root.glob("*.json"):
        p.unlink()
        n += 1
    return n


def cache_stats() -> dict:
    root = cache_dir()
    files = list(root.glob("*.json")) if root.is_dir() else []
    return {"dir": str(root), "entries": len(files),
            "bytes": sum(p.stat().st_size for p in files)}
