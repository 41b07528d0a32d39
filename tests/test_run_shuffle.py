"""The run shuffle (the build's one exchange) puts every chunk in the
partition its doc routes to, with the oracle's token counts and
per-partition document frequencies."""

import os
from collections import Counter

import pyarrow.parquet as pq

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.functions.hashing import part_for_doc
from coderag_ray.index.build import build_index
from coderag_ray.index.partition import part_dirname
from coderag_ray.oracle import OracleIndex
from coderag_ray.query.search import search


def test_runs_partitions_match_oracle(ray_session, tmp_path):
    import ray.data

    corpus = make_corpus(n_docs=150, seed=51)
    cfg = IndexConfig(num_partitions=5)
    d = str(tmp_path / "idx")
    r = build_index(ray.data.from_arrow(corpus), d, cfg)
    oracle = OracleIndex.from_rows(corpus.to_pylist(), cfg)
    assert r.n_chunks == oracle.n_chunks > 0

    by_part: dict[int, list] = {p: [] for p in range(cfg.num_partitions)}
    for c in oracle.chunks:
        by_part[part_for_doc(c.doc_id, cfg.num_partitions)].append(c)
    for p, chunks in by_part.items():
        pdir = os.path.join(d, "parts", part_dirname(p))
        if not chunks:
            assert not os.path.exists(pdir), p
            continue
        chunks.sort(key=lambda c: (c.doc_id, c.chunk_id))
        docs = pq.read_table(os.path.join(pdir, "docs.parquet"))
        assert list(zip(docs["doc_id"].to_pylist(), docs["chunk_id"].to_pylist(),
                        docs["dl"].to_pylist())) == \
            [(c.doc_id, c.chunk_id, c.token_count) for c in chunks], p
        termdf = pq.read_table(os.path.join(pdir, "termdf.parquet"))
        df = Counter(t for c in chunks for t in c.tf)
        assert dict(zip(termdf["term"].to_pylist(),
                        termdf["df_local"].to_pylist())) == dict(df), p


def test_runs_dir_cleaned_after_build(ray_session, tmp_path):
    import ray.data

    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(make_corpus(40, seed=2)), d,
                IndexConfig(num_partitions=3))
    assert not os.path.exists(os.path.join(d, "_runs"))


def test_runs_dir_cleaned_after_failed_merge(ray_session, tmp_path, monkeypatch):
    """A merge task that raises fails the build and still removes the
    spill directory (RAM-backed /dev/shm when present)."""
    import pytest
    import ray.data

    import coderag_ray.index.partition
    from coderag_ray.index.run_shuffle import _choose_run_dir

    def boom(*args, **kwargs):
        raise RuntimeError("merge failed on purpose")

    monkeypatch.setattr(coderag_ray.index.partition, "write_partition", boom)
    d = str(tmp_path / "idx")
    with pytest.raises(Exception, match="merge failed on purpose"):
        build_index(ray.data.from_arrow(make_corpus(40, seed=2)), d,
                    IndexConfig(num_partitions=3))
    assert not os.path.exists(_choose_run_dir(d))
    assert not os.path.exists(os.path.join(d, "_runs"))


def test_stale_spill_dirs_of_dead_builds_swept(tmp_path, monkeypatch):
    """A SIGKILLed build leaves ``coderag_runs_<index>_<pid>`` behind;
    the next build's run-dir choice removes it, but never the spill
    directory of a live process."""
    import subprocess
    import sys

    import coderag_ray.index.run_shuffle as rs

    dead = subprocess.run([sys.executable, "-c", "import os; print(os.getpid())"],
                          capture_output=True, text=True, check=True)
    shm = tmp_path / "shm"
    stale = shm / f"coderag_runs_crashed_{int(dead.stdout)}"
    live = shm / f"coderag_runs_other_{os.getpid()}"
    other = shm / "unrelated_1"
    for p in (stale, live, other):
        (p / "part=00000").mkdir(parents=True)
    monkeypatch.setattr(rs, "_SHM", str(shm))
    assert rs._choose_run_dir(str(tmp_path / "idx")).startswith(str(shm))
    assert not stale.exists()
    assert live.exists() and other.exists()


def test_runs_resume_single_partition(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    corpus = make_corpus(n_docs=80, seed=8)
    d = str(tmp_path / "idx")
    cfg = IndexConfig(num_partitions=4)
    build_index(ray.data.from_arrow(corpus), d, cfg)
    contents = corpus["content"].to_pylist()
    contents[10] = contents[10] + "\nconst zz_new_symbol = 1;"
    corpus2 = corpus.set_column(
        corpus.schema.get_field_index("content"), "content", pa.array(contents)
    )
    r = build_index(ray.data.from_arrow(corpus2), d, cfg)
    assert r.dirty_partitions == 1
    res = search(d, "zz_new_symbol", 3, with_doc_columns=False)
    assert res.num_rows == 1
