"""Partition-sharded scatter-gather query tier — the cluster-scale
query deployment made concrete.

One :class:`ShardActor` per partition subset holds its shard's resident
index (loaded once, the ST1/actor-pool pattern); a query fans out to
every shard, each returns its local top-k, and the driver merges with
the frozen global tie-break ``(score DESC, doc_id, chunk_id)``.

Exactness: BM25/cosine scores depend only on GLOBAL statistics (N,
avgdl, idf — which every shard reads from the shared index dir) and on
per-chunk postings (partition-local), so shard-local scores are bitwise
identical to whole-index scores, and the global top-k is contained in
the union of shard top-ks.  The merged result (:func:`merge_shard_results`)
therefore EQUALS the single-reader result exactly (asserted in tests).

On a real cluster each actor lives next to its partitions' storage and
the fan-out is one small RPC per shard; p50 follows the slowest shard
(~1/n_shards of the posting volume) instead of the whole index.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def merge_shard_results(tables: list[pa.Table], k: int) -> pa.Table:
    """Shard-local ``search(..., with_doc_columns=False)`` tables merged
    into the single-reader table: the global top-k under the frozen
    tie-break, ``rank`` renumbered."""
    from coderag_ray.query.search import _empty_result, top_k

    tables = [t for t in tables if t.num_rows]
    if not tables:
        return _empty_result()
    merged = pa.concat_tables(tables)
    top = top_k(np.arange(merged.num_rows), merged["score"].to_numpy(),
                merged["doc_id"].to_numpy(), merged["chunk_id"].to_numpy(), k)
    return merged.take(pa.array(top)).set_column(
        0, "rank", pa.array(np.arange(1, len(top) + 1, dtype=np.int32)))


class ShardActor:
    """Plain class; wrap with ``ray.remote`` (done by ShardedSearcher)."""

    def __init__(self, index_dir: str, partitions: list[int]):
        from coderag_ray.index.reader import IndexReader

        self.reader = IndexReader(index_dir, partitions=partitions)
        # all shards preload concurrently while the searcher waits on
        # ping(); the first query pays only the remainder
        self.reader.preload_async()

    def ping(self) -> bool:
        return True

    def search(self, query: str, k: int, mode: str = "bm25") -> pa.Table:
        from coderag_ray.query.search import search

        return search(self.reader, query, k, with_doc_columns=False, mode=mode)


class ShardedSearcher:
    """Fan-out/merge front over ``n_shards`` partition-shard actors."""

    def __init__(self, index_dir: str, n_shards: int = 4, num_cpus_per_shard: float = 0.25):
        # fractional default: n_shards × reservation must fit the
        # cluster or actor creation blocks forever (size it up in
        # production where shards own real CPU)
        import ray

        from coderag_ray.index import manifest as mf

        man = mf.load_manifest(index_dir)
        parts = sorted(p for p, row in mf.manifest_partitions(man).items()
                       if row.get("n_chunks", 0) > 0)
        n_shards = max(1, min(n_shards, len(parts) or 1))
        shards = [parts[i::n_shards] for i in range(n_shards)]  # round-robin: even posting volume
        remote = ray.remote(num_cpus=num_cpus_per_shard)(ShardActor)
        self.actors = [remote.remote(index_dir, s) for s in shards]
        ray.get([a.ping.remote() for a in self.actors])  # constructors done

    def search(self, query: str, k: int = 10, mode: str = "bm25") -> pa.Table:
        """The single-reader ``search(..., with_doc_columns=False)``
        table: the shards' top-k merged, ``rank`` renumbered."""
        import ray

        return merge_shard_results(
            ray.get([a.search.remote(query, k, mode) for a in self.actors]), k)

    def shutdown(self) -> None:
        import ray

        for a in self.actors:
            ray.kill(a)
