"""``q_blockmax`` cuts its 128-posting blocks from the stored postings.

The index stores no block metadata, so the row decodes each partition's
``doc_buf``/``freq_buf`` and cuts blocks itself.  One word shared by
2,400 documents puts about 300 postings into each of the 8 partitions,
so every term list of that word crosses the 128 and 256 boundaries; the
DuckDB oracle derives the same blocks from the raw text.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def test_blockmax_matches_oracle_across_block_boundaries(ray_session, tmp_path, monkeypatch):
    import duckdb

    import __ray_entry__ as e
    from coderag_ray.corpus import corpus_from_documents
    from coderag_ray.index.build import build_index

    sys.path.insert(0, os.path.join(REPO, "scripts"))
    from check_oracles import compare

    n = 2400
    rng = np.random.default_rng(12)
    texts = [" ".join(["shared"] * int(rng.integers(1, 6))
                      + [f"w{k}" for k in rng.integers(0, 40, int(rng.integers(0, 12)))])
             for _ in range(n)]
    pq.write_table(pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                             "text": texts, "lang": ["en"] * n, "source": ["src"] * n,
                             "n_chars": [len(t) for t in texts]}),
                   tmp_path / "documents.parquet")

    # build into tmp_path rather than _index_for's shared cache directory
    idx = str(tmp_path / "idx")
    monkeypatch.setattr(e, "_index_for",
                        lambda sf, cfg: build_index(corpus_from_documents(sf), idx, cfg).index_dir)
    got = e.q_blockmax(str(tmp_path)).to_pandas()
    shared = got[got["term"] == "shared"]
    assert len(shared) == 3 * e.CFG_SIMPLE.num_partitions  # blocks 0, 1 and 2 everywhere

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{tmp_path / 'documents.parquet'}'")
    want = con.execute(e.oracle_sql()["q_blockmax"]).fetchdf()
    assert compare("q_blockmax", got, want) == []
