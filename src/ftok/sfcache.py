"""The on-disk cache of ``ftok sf`` tableau sums.

Each entry is one JSON file under ``$FTOK_CACHE_DIR`` (default
``.ftok-cache``) holding the request, its canonical text and
``CACHE_VERSION``.  The file is named after the request, so a hit opens one
file and parses its JSON; only a miss imports ``poly`` and ``symfun`` to
compute the sum.  An unreadable, stale or mismatched entry is a miss and is
rewritten; a write that fails is skipped.
"""

from __future__ import annotations

import json
import os

CACHE_VERSION = "2"


def cache_dir() -> str:
    return os.environ.get("FTOK_CACHE_DIR", ".ftok-cache")


def _cache_path(request: dict) -> str:
    # op and kind hold no "-" and the parts are nonnegative ints joined by ".",
    # so distinct requests get distinct names, e.g. tableau_sum-schur-2.1-3.json
    parts = ".".join(str(part) for part in request["shape"])
    name = f"{request['op']}-{request['kind']}-{parts}-{request['n']}.json"
    return os.path.join(cache_dir(), name)


def cache_get(request: dict):
    """The stored entry for ``request``, or None when there is no usable one."""
    path = _cache_path(request)
    try:
        with open(path, encoding="utf-8") as fh:
            entry = json.load(fh)
    except (OSError, ValueError):  # ValueError: invalid JSON or UTF-8
        return None
    if (
        not isinstance(entry, dict)
        or entry.get("version") != CACHE_VERSION
        or entry.get("request") != request
        or not isinstance(entry.get("canonical_polynomial"), str)
    ):
        return None
    return entry


def cache_put(request: dict, canonical_polynomial: str) -> dict:
    import tempfile  # only a miss writes

    entry = {
        "request": request,
        "canonical_polynomial": canonical_polynomial,
        "version": CACHE_VERSION,
    }
    path = _cache_path(request)
    tmp = None
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache_dir(), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic on POSIX
    except OSError:
        pass  # an unusable cache skips the write, as a failed read is a miss
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return entry


def cached_tableau_sum(kind: str, shape, n: int) -> str:
    """Canonical text of ``symfun.tableau_sum(kind, shape, n)``, via the cache."""
    request = {
        "op": "tableau_sum",
        "kind": kind,
        "shape": list(shape.parts),
        "n": n,
    }
    hit = cache_get(request)
    if hit is not None:
        return hit["canonical_polynomial"]
    from . import poly, symfun  # a hit compiles no polynomial module

    text = poly.canonical(symfun.tableau_sum(kind, shape, n))
    cache_put(request, text)
    return text
