import json
import os
import subprocess
import sys
from pathlib import Path

from ftok import sfcache
from ftok.shapes import Partition

ROOT = Path(__file__).resolve().parent.parent


def test_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path / "cache"))
    request = {"op": "tableau_sum", "kind": "schur", "shape": [1], "n": 2}
    assert sfcache.cache_get(request) is None
    entry = sfcache.cache_put(request, "x1 + x2")
    hit = sfcache.cache_get(request)
    assert hit == entry
    assert hit["canonical_polynomial"] == "x1 + x2"
    assert hit["version"] == sfcache.CACHE_VERSION
    assert hit["request"] == request
    # no stray temp files left behind
    names = os.listdir(tmp_path / "cache")
    assert len(names) == 1 and names[0].endswith(".json")


def test_cache_rejects_stale_entries(tmp_path, monkeypatch):
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path))
    request = {"op": "tableau_sum", "kind": "schur", "shape": [1], "n": 1}
    entry = sfcache.cache_put(request, "x1")
    path = sfcache._cache_path(request)
    stale = [
        "{not json",
        b"\xff\xfe",
        json.dumps([entry]),
        json.dumps("x1"),
        json.dumps(dict(entry, version="1")),
        json.dumps(dict(entry, request=dict(request, n=2))),
        json.dumps(dict(entry, canonical_polynomial=None)),
        json.dumps(dict(entry, canonical_polynomial=["x1"])),
    ]
    for blob in stale:
        mode = "wb" if isinstance(blob, bytes) else "w"
        with open(path, mode) as fh:
            fh.write(blob)
        assert sfcache.cache_get(request) is None, blob
        # a miss recomputes and overwrites the bad entry
        assert sfcache.cached_tableau_sum("schur", Partition((1,)), 1) == "x1"
        assert sfcache.cache_get(request)["canonical_polynomial"] == "x1"


def test_cached_tableau_sum(tmp_path, monkeypatch):
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path))
    text = sfcache.cached_tableau_sum("factorialSchur", Partition((1,)), 2)
    assert text == "x1 + x2 + a1 + a2"
    # a hit returns the stored text as it is
    request = {"op": "tableau_sum", "kind": "factorialSchur", "shape": [1], "n": 2}
    sfcache.cache_put(request, "stored text")
    assert sfcache.cached_tableau_sum("factorialSchur", Partition((1,)), 2) == "stored text"


def test_default_cache_dir(monkeypatch):
    monkeypatch.delenv("FTOK_CACHE_DIR", raising=False)
    assert sfcache.cache_dir() == ".ftok-cache"


def test_entry_files_are_named_after_their_requests(tmp_path, monkeypatch):
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path))
    request = {"op": "tableau_sum", "kind": "factorialBigQ", "shape": [4, 3, 2, 1], "n": 4}
    assert sfcache._cache_path(request) == str(tmp_path / "tableau_sum-factorialBigQ-4.3.2.1-4.json")
    # requests that differ only in shape ([1, 1] against [11]) or only in n
    # (1 against 11) get separate files, and each hit returns its own text
    requests = [
        {"op": "tableau_sum", "kind": "schur", "shape": shape, "n": n}
        for shape in ([1, 1], [11])
        for n in (1, 11)
    ]
    for i, request in enumerate(requests):
        sfcache.cache_put(request, f"text {i}")
    assert len(os.listdir(tmp_path)) == len(requests)
    for i, request in enumerate(requests):
        assert sfcache.cache_get(request)["canonical_polynomial"] == f"text {i}"


def test_unnameable_entry_is_a_miss(tmp_path, monkeypatch):
    # 400 parts give a file name longer than the filesystem takes: the write is
    # skipped and the request reads as a miss, as with an unusable cache
    monkeypatch.setenv("FTOK_CACHE_DIR", str(tmp_path))
    request = {"op": "tableau_sum", "kind": "schur", "shape": [1] * 400, "n": 400}
    entry = sfcache.cache_put(request, "x1")
    assert entry["canonical_polynomial"] == "x1"
    assert sfcache.cache_get(request) is None
    assert os.listdir(tmp_path) == []


_MODULES_OF_SF = """
import sys
from ftok import cli
code = cli.main(["sf", "--kind", "factorial-q", "--shape", "2,1", "--n", "2"])
sys.stderr.write("\\n".join(sorted(sys.modules)))
sys.exit(code)
"""


def test_sf_hit_loads_no_polynomial_module(tmp_path):
    # each request is a fresh interpreter, as every ftok CLI request is
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), FTOK_CACHE_DIR=str(tmp_path))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _MODULES_OF_SF],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        for _ in ("miss", "hit")
    ]
    miss, hit = runs
    assert miss.returncode == hit.returncode == 0, (miss.stderr, hit.stderr)
    assert miss.stdout == hit.stdout and miss.stdout.strip()
    never = {"ftok.harness", "ftok.paths", "ftok.sixvertex", "hashlib"}
    polynomial = {"ftok.poly", "ftok.symfun", "ftok.combin", "ftok.tableaux"}
    miss_modules = set(miss.stderr.split("\n"))
    hit_modules = set(hit.stderr.split("\n"))
    assert "ftok.symfun" in miss_modules and "ftok.sfcache" in hit_modules
    assert not miss_modules & never, miss_modules & never
    assert not hit_modules & (never | polynomial), hit_modules & (never | polynomial)
