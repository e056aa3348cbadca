"""Disk cache of the T-basis CLI outputs, `jw`, `yidem`, `gram --full` and
`blocks --full`.  The cache directory comes from --cache, else the
HSK_CACHE environment variable, else ./.hsk-cache.  Entries are keyed by
a fingerprint of the code (the sha256 of the package's .py sources),
parameters and the defining arguments, carry a content checksum, and are
written atomically; an entry written by other code, or a corrupt or
mismatched one, is treated as absent, so a warm cache returns byte for
byte the same JSON as a cold one.  The first write of a process deletes
the entries of other code versions; other files in the directory are
never touched.  hashlib and tempfile are imported where they are used,
and the CLI imports this module only in the handlers that cache.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from functools import lru_cache


@lru_cache(maxsize=None)
def _code_fingerprint() -> str:
    """sha256 of the package's .py sources (first 64 bits), read once
    per process: a cache entry never outlives a change to the code that
    computed it."""
    import hashlib

    root = os.path.dirname(os.path.abspath(__file__))
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()[:16]


class ResultCache:
    """Best-effort JSON store keyed by (code fingerprint, N, K, kind, args).

    Entries are self-describing files {version, key, checksum, payload}
    named <fingerprint>-<digest>.json; a read that fails the key or
    checksum comparison is a miss.  Writes go through a temporary file
    in the same directory and an atomic rename, so concurrent readers
    never observe a partial entry.  The first write of a process to a
    directory deletes the entries (names matching ``_ENTRY_NAME``) that
    do not carry the current fingerprint, so the directory holds the
    results of one code version; processes running different code
    versions on one directory evict each other's entries.  Files that do
    not match ``_ENTRY_NAME`` are never deleted."""

    def __init__(self, root: str):
        self.root = root

    def _path(self, key: list) -> str:
        digest = _sha256(self._canon(key))[:32]
        return os.path.join(self.root, f"{_code_fingerprint()}-{digest}.json")

    @staticmethod
    def _canon(obj) -> str:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def get(self, key: list):
        try:
            with open(self._path(key), "r", encoding="utf-8") as fh:
                entry = json.load(fh)
            if entry.get("key") != key:
                return None
            payload = entry.get("payload")
            if entry.get("checksum") != _sha256(self._canon(payload)):
                return None
            return payload
        except (OSError, ValueError):
            return None

    def put(self, key: list, payload) -> None:
        import tempfile

        try:
            os.makedirs(self.root, exist_ok=True)
            entry = {
                "version": _code_fingerprint(),
                "key": key,
                "checksum": _sha256(self._canon(payload)),
                "payload": payload,
            }
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry, fh)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
            _prune(self.root, _code_fingerprint())
        except OSError:
            pass  # the cache is an optimization, never a failure


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


# The names ResultCache writes: <fingerprint>-<digest>.json, and the
# unprefixed <digest>.json of earlier versions.
_ENTRY_NAME = re.compile(r"(?:[0-9a-f]{16}-)?[0-9a-f]{32}\.json")


@lru_cache(maxsize=None)
def _prune(root: str, fingerprint: str) -> None:
    """Delete the cache entries in root written under another code
    fingerprint, once per process and directory."""
    for name in os.listdir(root):
        if _ENTRY_NAME.fullmatch(name) and not name.startswith(fingerprint + "-"):
            with contextlib.suppress(OSError):
                os.unlink(os.path.join(root, name))


def _cache_dir(args) -> str:
    if args.cache:
        return args.cache
    return os.environ.get("HSK_CACHE", os.path.join(".", ".hsk-cache"))


def _cached(args, kind: str, extra: list, compute):
    cache = ResultCache(_cache_dir(args))
    key = [_code_fingerprint(), args.N, args.K, kind] + extra
    hit = cache.get(key)
    if hit is not None:
        return hit
    result = compute()
    cache.put(key, result)
    return result
