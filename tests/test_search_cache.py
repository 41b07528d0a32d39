"""Search-result cache tests — mirrors the reference's
``search-cache.test.ts`` cases (store/retrieve, LRU eviction + order
refresh, TTL expiry + refresh-on-access, stats, clear, cleanup, cache
keys) plus rebuild invalidation through CachedSearcher."""

import os

from coderag_ray.query.cache import CachedSearcher, LRUCache, create_cache_key


class Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_store_retrieve_update_and_missing():
    c = LRUCache(max_size=3)
    c.set("a", 1)
    assert c.get("a") == 1
    assert c.get("nope") is None
    c.set("a", 2)  # update existing key
    assert c.get("a") == 2


def test_lru_eviction_and_order_refresh_on_get():
    c = LRUCache(max_size=3)
    c.set("a", 1); c.set("b", 2); c.set("c", 3)
    c.set("d", 4)  # evicts a (least recently used)
    assert c.get("a") is None and c.get("d") == 4
    # get() refreshes recency: b becomes MRU, so adding e evicts c
    c = LRUCache(max_size=3)
    c.set("a", 1); c.set("b", 2); c.set("c", 3)
    assert c.get("a") == 1
    c.set("d", 4)  # LRU is now b
    assert c.get("b") is None
    assert c.get("a") == 1 and c.get("c") == 3 and c.get("d") == 4


def test_ttl_expiry_and_refresh_on_access():
    clk = Clock()
    c = LRUCache(max_size=10, ttl_minutes=5, clock=clk)
    c.set("k", "v")
    clk.t = 299.0
    assert c.get("k") == "v"  # just inside TTL → refreshes timestamp
    clk.t = 598.0  # 299 s after the refresh — still inside
    assert c.get("k") == "v"
    clk.t = 598.0 + 301.0  # > TTL since last access
    assert c.get("k") is None


def test_stats_and_clear():
    c = LRUCache(max_size=5)
    assert c.stats().hit_rate == 0.0  # no accesses
    c.set("a", 1)
    c.get("a"); c.get("a"); c.get("x")
    st = c.stats()
    assert (st.hits, st.misses, st.size, st.max_size) == (2, 1, 1, 5)
    assert abs(st.hit_rate - 2 / 3) < 1e-12
    c.clear()
    st = c.stats()
    assert (st.hits, st.misses, st.size) == (0, 0, 0)


def test_cleanup_removes_only_expired():
    clk = Clock()
    c = LRUCache(max_size=10, ttl_minutes=1, clock=clk)
    c.set("old", 1)
    clk.t = 61.0
    c.set("new", 2)
    c.cleanup()
    assert c.stats().size == 1
    assert c.get("new") == 2


def test_cache_key_reference_semantics():
    # consistent for same params / normalizes case / varies on each knob
    assert create_cache_key("Foo ", limit=10) == create_cache_key("foo")
    assert create_cache_key("a") != create_cache_key("b")
    assert create_cache_key("a", limit=5) != create_cache_key("a", limit=10)
    k = create_cache_key("q", file_extensions=[".ts", ".js"], path_filter="src",
                         exclude_paths=["dist", "node_modules"])
    # extensions and excludes are sorted for stability
    assert k == "q|10|.js,.ts|src|dist,node_modules"
    assert create_cache_key("q") == "q|10|||"


def test_cached_searcher_hits_and_rebuild_invalidation(ray_session, tmp_path):
    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import corpus_from_documents
    from coderag_ray.index.build import build_index
    from coderag_ray.index.reader import IndexReader

    idx = str(tmp_path / "cacheidx")
    build_index(corpus_from_documents("/root/testdata/sf0.001"), idx,
                IndexConfig(tokenizer="simple", num_partitions=4))
    srch = CachedSearcher(IndexReader(idx))
    r1 = srch.search("customer data row", 5, with_doc_columns=False)
    r2 = srch.search("customer data row", 5, with_doc_columns=False)
    assert r2 is r1  # served from cache
    st = srch.cache.stats()
    assert st.hits == 1 and st.misses == 1
    # a new build (manifest mtime change) invalidates cached results
    man = os.path.join(idx, "_manifest.json")
    os.utime(man, (os.path.getmtime(man) + 5, os.path.getmtime(man) + 5))
    r3 = srch.search("customer data row", 5, with_doc_columns=False)
    assert r3 is not r1
    assert r3.equals(r1)  # same index content → same results


def test_cached_searcher_reopens_the_reader_after_a_rebuild(ray_session, tmp_path):
    """A build of another corpus into the same directory is served by a
    fresh reader, not by the one the searcher was opened with."""
    import ray.data

    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import make_corpus
    from coderag_ray.index.build import build_index
    from coderag_ray.index.reader import IndexReader
    from coderag_ray.query.search import search

    idx = str(tmp_path / "rebuilt")
    q = "user authentication database"
    build_index(ray.data.from_arrow(make_corpus(60, seed=1)), idx, IndexConfig(num_partitions=3))
    srch = CachedSearcher(IndexReader(idx))
    before = srch.search(q, 10)
    build_index(ray.data.from_arrow(make_corpus(90, seed=2)), idx, IndexConfig(num_partitions=3),
                resume=False)
    man = os.path.join(idx, "_manifest.json")  # a new mtime even within one clock tick
    os.utime(man, (os.path.getmtime(man) + 5, os.path.getmtime(man) + 5))
    got = srch.search(q, 10)
    want = search(IndexReader(idx), q, 10)
    assert got.equals(want) and not got.equals(before)
