"""Watcher refreshes end to end: after modify / add / delete the index a
watcher refreshed is byte-identical to a fresh build of the same tree.
A refresh after the first rebuilds only the settled paths' partitions
(``fingerprint_mode == "paths"``, no fingerprint pass); a changed
config or a missing clean partition falls back to the full scan."""

import os
import shutil

import pytest

import coderag_ray.index.build as B
from coderag_ray.config import IndexConfig
from coderag_ray.index.manifest import load_manifest
from coderag_ray.query.search import search
from coderag_ray.sources.files import scan_directory
from coderag_ray.sources.watch import DirectoryWatcher

CFG = IndexConfig(num_partitions=8)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _write(root, rel, text):
    p = os.path.join(root, rel)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    with open(p, "w") as f:
        f.write(text)


def _tag(i):
    """A letters-only term that only ``src/mod{i:02d}.py`` holds."""
    return "zqfile" + "abcdefghij"[i // 10] + "abcdefghij"[i % 10]


def _tree(root, n=40):
    for i in range(n):
        _write(root, f"src/mod{i:02d}.py",
               f"def handler(request):\n    return request.{_tag(i)} + {i}\n")
    _write(root, "node_modules/dep.js", "function ignoredDependency() {}\n")


@pytest.fixture()
def reports(monkeypatch):
    """Every BuildReport the watcher's refreshes return."""
    out = []
    raw = B.build_index

    def spy(*args, **kwargs):
        r = raw(*args, **kwargs)
        out.append(r)
        return r

    monkeypatch.setattr(B, "build_index", spy)
    return out


def _data_files(index_dir):
    """{relative path: bytes} of every file under parts/ and idf/."""
    out = {}
    for sub in ("parts", "idf"):
        top = os.path.join(index_dir, sub)
        for dirpath, _, names in os.walk(top):
            for n in names:
                full = os.path.join(dirpath, n)
                with open(full, "rb") as f:
                    out[os.path.relpath(full, index_dir)] = f.read()
    return out


def _assert_same_as_fresh(root, idx, tmp_path):
    fresh = str(tmp_path / "fresh")
    shutil.rmtree(fresh, ignore_errors=True)
    B.build_index(scan_directory(root), fresh, CFG, resume=False)
    got, want = _data_files(idx), _data_files(fresh)
    assert sorted(got) == sorted(want)
    for rel in want:
        assert got[rel] == want[rel], rel


def _settle(w, clock):
    """Poll past the debounce window; returns the paths that refreshed."""
    assert w.poll() == []
    clock.t += 1.0
    return w.poll()


def _watch(root, idx):
    clock = FakeClock()
    w = DirectoryWatcher(root, idx, CFG, debounce_s=0.5, clock=clock)
    w._refresh()  # the initial build: the watcher's first refresh scans it all
    return w, clock


def _in_other_partition(w, taken, prefix):
    """A new path under ``src/`` that routes to a partition not in ``taken``."""
    for i in range(1000):
        rel = f"src/{prefix}{i}.py"
        if w._partitions([rel])[0] not in taken:
            return rel
    raise AssertionError("no free partition")


def test_refresh_after_modify_add_delete_equals_fresh_build(ray_session, tmp_path, reports):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root)
    w, clock = _watch(root, idx)
    assert reports[-1].fingerprint_mode == "fresh"

    _write(root, "src/mod03.py", "def handler(request):\n    return zqmodifiedmark()\n")
    _write(root, "src/added_file.py", "def zqaddedmark():\n    return 1\n")
    os.remove(os.path.join(root, "src/mod17.py"))
    settled = _settle(w, clock)
    assert settled == ["src/added_file.py", "src/mod03.py", "src/mod17.py"]

    r = reports[-1]
    assert r.fingerprint_mode == "paths"
    assert r.phases["fingerprints"] < 0.5
    assert 1 <= r.dirty_partitions <= len(settled)
    assert r.dirty_partitions == len(set(w._partitions(settled)))
    assert "input_files" not in load_manifest(idx)
    for q, hits in (("zqmodifiedmark", True), ("zqaddedmark", True),
                    (_tag(3), False), (_tag(17), False), (_tag(29), True)):
        assert (search(idx, q, 5, with_doc_columns=False).num_rows > 0) == hits, q
    _assert_same_as_fresh(root, idx, tmp_path)

    # a second cycle stays on the paths route and stays exact
    _write(root, "src/mod05.py", "def handler(request):\n    return 55\n")
    assert _settle(w, clock) == ["src/mod05.py"]
    assert reports[-1].fingerprint_mode == "paths"
    assert reports[-1].dirty_partitions == 1
    _assert_same_as_fresh(root, idx, tmp_path)


def test_pending_edit_in_clean_partition_reaches_next_full_resume(ray_session, tmp_path, reports):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root)
    w, clock = _watch(root, idx)

    first = "src/mod01.py"
    _write(root, first, "def zqsettledmark():\n    return 1\n")
    assert w.poll() == []
    clock.t += 0.3
    # an edit in another partition that has not settled when the first does
    pending = _in_other_partition(w, set(w._partitions([first])), "pending")
    _write(root, pending, "def zqpendingmark():\n    return 2\n")
    assert w.poll() == []
    clock.t += 0.3
    assert w.poll() == [first]
    assert reports[-1].fingerprint_mode == "paths"
    assert reports[-1].dirty_partitions == 1
    assert search(idx, "zqsettledmark", 5, with_doc_columns=False).num_rows > 0
    assert search(idx, "zqpendingmark", 5, with_doc_columns=False).num_rows == 0
    # no tier-1 entry that would let a resume skip the pending edit
    assert "input_files" not in load_manifest(idx)

    # a new watcher's initial refresh is a full resume: the edit lands
    w2 = DirectoryWatcher(root, idx, CFG, debounce_s=0.5, clock=FakeClock())
    w2._refresh()
    assert reports[-1].fingerprint_mode == "content"
    assert search(idx, "zqpendingmark", 5, with_doc_columns=False).num_rows > 0
    _assert_same_as_fresh(root, idx, tmp_path)


def test_first_refresh_scans_edits_older_than_the_snapshot(ray_session, tmp_path, reports):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root)
    B.build_index(scan_directory(root), idx, CFG)
    early = "src/mod06.py"
    _write(root, early, "def zqbeforewatchmark():\n    return 1\n")
    clock = FakeClock()
    w = DirectoryWatcher(root, idx, CFG, debounce_s=0.5, clock=clock)
    late = _in_other_partition(w, set(w._partitions([early])), "late")
    _write(root, late, "def zqafterwatchmark():\n    return 2\n")
    assert _settle(w, clock) == [late]
    assert reports[-1].fingerprint_mode == "content"
    assert search(idx, "zqbeforewatchmark", 5, with_doc_columns=False).num_rows > 0
    _assert_same_as_fresh(root, idx, tmp_path)


def test_config_change_falls_back_to_full_scan(ray_session, tmp_path, reports):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root)
    w, clock = _watch(root, idx)
    # the index is rebuilt under another config behind the watcher's back
    B.build_index(scan_directory(root), idx, IndexConfig(num_partitions=8, max_chunk_size=400),
                  resume=False)
    _write(root, "src/mod02.py", "def zqafterconfigchange():\n    return 1\n")
    assert _settle(w, clock) == ["src/mod02.py"]
    assert reports[-1].fingerprint_mode == "fresh"
    assert reports[-1].dirty_partitions == CFG.num_partitions
    _assert_same_as_fresh(root, idx, tmp_path)


def test_missing_clean_partition_falls_back_to_full_scan(ray_session, tmp_path, reports):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root)
    w, clock = _watch(root, idx)
    edited = "src/mod04.py"
    clean = next(p for p in range(CFG.num_partitions)
                 if p not in w._partitions([edited])
                 and os.path.isdir(os.path.join(idx, "parts", f"part={p:05d}")))
    shutil.rmtree(os.path.join(idx, "parts", f"part={clean:05d}"))
    _write(root, edited, "def zqbesidemissingpart():\n    return 1\n")
    assert _settle(w, clock) == [edited]
    assert reports[-1].fingerprint_mode == "content"
    assert reports[-1].dirty_partitions == 2
    _assert_same_as_fresh(root, idx, tmp_path)


def test_dirty_build_refuses_an_index_it_cannot_complete(ray_session, tmp_path):
    root, idx = str(tmp_path / "proj"), str(tmp_path / "idx")
    _tree(root, n=4)
    ds = scan_directory(root)
    assert not B.can_rebuild_only(idx, CFG, {0})
    with pytest.raises(ValueError):
        B.build_index(ds, idx, CFG, dirty={0})  # no manifest yet
    B.build_index(ds, idx, CFG)
    assert B.can_rebuild_only(idx, CFG, {0})
    assert not B.can_rebuild_only(idx, IndexConfig(num_partitions=4), {0})
    with pytest.raises(ValueError):
        B.build_index(ds, idx, CFG, resume=False, dirty={0})
