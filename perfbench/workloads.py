"""The five workloads.  Each one is set up, warmed up, measured for a
fixed number of seconds by one single-threaded client, and then checked
against an independent oracle.

Every workload fills the same three end-to-end figures:

- ``setup_s``: Ray start plus the median of the workload's repeated
  set-up (input generation, builds, preload, embeddings);
- ``op_p50_ms``: median latency of the workload's primary operation;
- ``work_per_s``: work units per second of the time spent on them.
  On ``build`` and ``batch`` the unit is the primary operation's own
  (docs, queries); on the other three it is the side the primary
  operation does not show: ``hybrid_search`` calls on ``search``,
  hot-set queries on ``refresh``, docs through the two pair-expanding
  pipelines on ``dedup``.

Workload-specific figures (hybrid latency, hot-query latency, the four
dedup pipelines, ...) go to ``Ctx.report``; the traced run adds the
per-layer figures to ``Ctx.layers``.
"""

from __future__ import annotations

import os
import re
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from perfbench import gen
from perfbench.stats import median, min_samples, percentile, summary
from perfbench.trace import Tracer

NUM_CPUS = 4
BATCH_ACTORS = 2
K = 10

# input sizes at --scale 1 (the tests use a tiny scale)
SIZES = {
    "build_docs": 3000,
    "search_docs": 1500,
    "tree_files": 600,
    "batch_docs": 2000,
    "batch_queries": 800,
    "dedup_docs": 600,
}
PARQUET_FILES = 8
SEARCH_MIN_CALLS = min_samples(95)  # 200: p95 keeps 10 calls beyond it
SEARCH_STREAM = 2000     # distinct requests available to one run
SEARCH_VERIFY = 12       # stream requests re-checked against the oracle
HOT_ROUNDS = 6           # hot-set passes per refresh cycle
REFRESH_CYCLES = 2       # timed refresh cycles per run, at least
BATCH_BLOCK = 50         # queries per input block / actor batch
# Set-ups that build an index run once: Ray start, which every run pays
# once, dominates their run-to-run spread, and a second build would add
# a quarter to the run
SETUP_REPS_WITH_BUILD = 1


class WallGuard(Exception):
    """Raised by the run's wall-time alarm."""


@dataclass
class Ctx:
    seed: int
    seconds: float
    work: str                      # per-run scratch directory
    scale: float = 1.0
    trace: bool = False
    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)       # primary-op latencies
    work_units: float = 0.0
    busy_s: float = 0.0
    report: dict = field(default_factory=dict)     # name -> (value, unit, n)
    layers: dict = field(default_factory=dict)     # name -> value
    layer_n: dict = field(default_factory=dict)    # name -> samples behind it
    problems: list = field(default_factory=list)
    tracer: Tracer | None = None       # set while a traced segment runs
    trace_log: Tracer | None = None    # the traced segment's spans

    def size(self, key: str) -> int:
        return max(8, int(round(SIZES[key] * self.scale)))

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def layer(self, name: str, value: float, n: int) -> None:
        """One per-layer figure and the number of samples behind it."""
        self.layers[name] = float(value)
        self.layer_n[name] = int(n)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def attempt(self, fn, *args, **kwargs):
        """One counted operation; an exception counts as a failure."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except WallGuard:
            raise
        except Exception as e:  # noqa: BLE001 - every failure is counted
            self.fail(f"{getattr(fn, '__name__', fn)}: {e!r}")
            return None


def timed_loop(seconds: float, min_ops: int, step) -> None:
    """Call ``step(i)`` until ``seconds`` have passed and ``min_ops``
    calls were made."""
    t0 = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - t0 < seconds:
        step(i)
        i += 1


def ms_summary(ctx: Ctx, name: str, seconds: list[float]) -> None:
    """Report ``name`` as median and highest supported tail, in ms."""
    s = summary(seconds, 1000.0)
    for key, v in s.items():
        if key != "n":
            ctx.report[f"{name}_{key}_ms"] = (v, "ms", s["n"])


def per_call(ctx: Ctx, name: str, seconds: list[float]) -> None:
    """``<name>.p50`` and ``<name>.p95`` in ms; each reads 0 unless at
    least ``MIN_BEYOND`` calls lie beyond it."""
    for q in (50, 95):
        ok = len(seconds) >= min_samples(q)
        ctx.layer(f"{name}.p{q}", percentile(seconds, q) * 1000 if ok else 0.0, len(seconds))


def _med(vals) -> float:
    return median(vals) if vals else 0.0


def _build_signature(index_dir: str) -> dict:
    from coderag_ray.index import manifest as mf

    keys = ("fingerprint", "n_docs", "n_chunks", "n_postings", "n_terms", "total_tokens")
    parts = mf.manifest_partitions(mf.load_manifest(index_dir))
    return {p: tuple(row.get(k) for k in keys) for p, row in parts.items()}


def _topk(res: pa.Table) -> list[tuple]:
    return list(zip(res["doc_id"].to_pylist(), res["chunk_id"].to_pylist(),
                    res["score"].to_pylist()))


def _build(docs, index_dir: str):
    """Fresh build through the module attribute (so a traced run sees it)."""
    import coderag_ray.index.build as B
    from coderag_ray.config import IndexConfig

    shutil.rmtree(index_dir, ignore_errors=True)
    return B.build_index(docs, index_dir, IndexConfig(), resume=False)


def _cache_targets(tr: Tracer, counts: dict) -> list:
    import coderag_ray.query.cache as C

    def on_get(hit):
        counts["lookups"] += 1
        counts["hits"] += hit is not None

    # McpServer drops its whole CachedSearcher when it reopens the reader
    # after a rebuild, so a new searcher is an invalidation too
    return [(C.LRUCache, "get", "query.cache.get", on_get),
            (C.LRUCache, "invalidate", "query.cache.invalidate"),
            (C.CachedSearcher, "__init__", "query.cache.new_searcher")]


def _cache_layers(tr: Tracer, counts: dict, ctx: Ctx) -> None:
    n = counts["lookups"]
    ctx.layer("query.cache.hit_ratio", counts["hits"] / n if n else 0.0, n)
    inval = len(tr.durations("query.cache.invalidate")) + len(tr.durations("query.cache.new_searcher"))
    ctx.layer("query.cache.invalidations", inval, inval)


class Workload:
    setup_reps = 3
    min_ops = 1

    def __init__(self, ctx: Ctx):
        self.ctx = ctx

    def setup(self, rep: int) -> None: ...

    def warmup(self) -> None: ...

    def segment(self, seconds: float, min_ops: int) -> None: ...

    def targets(self, tr: Tracer) -> list:
        return []

    def layers(self, tr: Tracer) -> None: ...

    def verify(self) -> None: ...

    def finish(self) -> None: ...


# ---------------------------------------------------------------- build

class Build(Workload):
    """Repeated fresh ``build_index`` over a multi-file Parquet corpus."""

    def setup(self, rep):
        c = self.ctx
        self.tbl = gen.corpus(c.seed, c.size("build_docs"))
        self.src = c.path(f"build_corpus{rep}")
        gen.write_parquet_files(self.tbl, self.src, PARQUET_FILES)
        self.reports = []

    def _docs(self):
        import ray.data

        return ray.data.read_parquet(self.src)

    def warmup(self):
        _build(self._docs(), self.ctx.path("build_ref"))
        self.ref = _build_signature(self.ctx.path("build_ref"))

    def segment(self, seconds, min_ops):
        c = self.ctx
        idx = c.path("build_idx")

        def step(i):
            shutil.rmtree(idx, ignore_errors=True)
            t0 = time.perf_counter()
            rep = c.attempt(_build, self._docs(), idx)
            dt = time.perf_counter() - t0
            if rep is None:
                return
            c.op_s.append(dt)
            c.work_units += self.tbl.num_rows
            c.busy_s += dt
            self.reports.append(rep)
            if _build_signature(idx) != self.ref:
                c.fail(f"build {i}: partition fingerprints or posting counts differ")

        timed_loop(seconds, min_ops, step)

    def finish(self):
        c = self.ctx
        c.report["build_docs_per_s"] = (c.work_units / c.busy_s if c.busy_s else 0.0,
                                        "docs/s", len(c.op_s))
        c.report["build_corpus_docs"] = (self.tbl.num_rows, "docs", 1)

    def layers(self, tr):
        from coderag_ray.config import IndexConfig
        from coderag_ray.index import manifest as mf
        from coderag_ray.stages.chunk import make_chunker
        from coderag_ray.stages.ingest import make_ingest
        from coderag_ray.stages.tokenize import make_tokenizer_stage

        c = self.ctx
        build_phase_layers(self.reports, c)
        # the public stage callables, called here on the run's own batches
        cfg = IndexConfig()
        ingest, chunk, tok = make_ingest(cfg), make_chunker(cfg), make_tokenizer_stage(cfg)
        n_docs = n_chunks = 0
        for lo in range(0, self.tbl.num_rows, cfg.batch_size):
            t = self.tbl.slice(lo, cfg.batch_size)
            with tr.span("stages.ingest"):
                a = ingest(t)
            with tr.span("stages.chunk"):
                b = chunk(a)
            with tr.span("stages.tokenize"):
                tok(b)
            n_docs += t.num_rows
            n_chunks += b.num_rows
        for stage, n in (("ingest", n_docs), ("chunk", n_docs), ("tokenize", n_chunks)):
            d = tr.durations(f"stages.{stage}")
            unit = "chunks" if stage == "tokenize" else "docs"
            c.layer(f"stages.{stage}.{unit}_per_s", n / sum(d), len(d))
        parts = mf.manifest_partitions(mf.load_manifest(c.path("build_idx")))
        stored = sum(r.get("bytes_postings", 0) + r.get("bytes_docs", 0) for r in parts.values())
        sizes = [len(s.encode("utf-8")) for s in self.tbl["content"].to_pylist()]
        in_bytes = sum(n for n in sizes if n <= cfg.max_file_size)  # what ingest keeps
        c.layer("index.partition.stored_bytes_per_input_byte", stored / in_bytes, 1)


def build_phase_layers(reports: list, ctx: Ctx) -> None:
    """Median ``BuildReport.phases`` and counts over ``reports``."""
    if not reports:
        return
    n = len(reports)
    for ph in ("fingerprints", "tokenize_shuffle_write", "idf"):
        ctx.layer(f"index.build.{ph}_s", _med([r.phases.get(ph, 0.0) for r in reports]), n)
    ctx.layer("index.build.postings_per_chunk", _med([r.n_postings / max(r.n_chunks, 1) for r in reports]), n)
    ctx.layer("index.build.dirty_partition_ratio",
              _med([r.dirty_partitions / r.n_partitions for r in reports]), n)


# ---------------------------------------------------------------- search

class Search(Workload):
    """One client calling ``McpServer.tool_codebase_search`` on distinct
    queries against a resident index; a seeded minority call
    ``hybrid_search``.  ``op_p50_ms`` is the ``codebase_search`` median,
    ``work_per_s`` the ``hybrid_search`` calls per second of their own
    time."""

    setup_reps = SETUP_REPS_WITH_BUILD

    min_ops = SEARCH_MIN_CALLS

    def setup(self, rep):
        from coderag_ray.index.reader import IndexReader
        from coderag_ray.mcp_server import McpServer
        from coderag_ray.pipelines.hybrid import build_embeddings, hybrid_search

        import ray.data

        c = self.ctx
        self.tbl = gen.corpus(c.seed, c.size("search_docs"))
        src = c.path(f"search_corpus{rep}")
        gen.write_parquet_files(self.tbl, src, PARQUET_FILES)
        self.idx = c.path(f"search_idx{rep}")
        _build(ray.data.read_parquet(src), self.idx)
        build_embeddings(self.idx)
        self.server = McpServer(self.idx)
        # a 5-term warm query: the stream's multi-term queries have 2-3
        # terms, so this never pre-fills a cache entry the stream uses
        self.server.tool_codebase_search({"query": "self return const function class"})
        self.reader = IndexReader(self.idx)
        self.reader.ensure_preloaded()
        hybrid_search(self.reader, "self return const function class", K)
        self.stream = gen.search_stream(c.seed, SEARCH_STREAM)
        self.pos = 0
        self.lat = {"search": [], "hybrid": []}
        self.replies: dict[int, object] = {}

    def _call(self, kind, q, limit):
        import coderag_ray.pipelines.hybrid as H

        if kind == "hybrid":
            return H.hybrid_search(self.reader, q, limit)
        return self.server.tool_codebase_search({"query": q, "limit": limit})

    def segment(self, seconds, min_ops):
        c = self.ctx

        def step():
            i = self.pos
            self.pos += 1
            kind, q, limit = self.stream[i]
            tracer = c.tracer
            t0 = time.perf_counter()
            if tracer is None:
                out = c.attempt(self._call, kind, q, limit)
            else:
                with tracer.request(i):
                    out = c.attempt(self._call, kind, q, limit)
            dt = time.perf_counter() - t0
            if out is None:
                return
            self.lat[kind].append(dt)
            if kind == "search":
                c.op_s.append(dt)
                if not out.startswith(f'# Search: "{q}"'):
                    c.fail(f"malformed reply to {q!r}")
            else:
                c.work_units += 1
                c.busy_s += dt
            self.replies[i] = out

        # p95 needs min_ops codebase_search calls, and a traced segment
        # as many hybrid calls for the hybrid layers' p95; the stream
        # never repeats a request, so the loop also stops at its end
        min_hybrid = min_ops if c.tracer is not None else 0
        t0 = time.perf_counter()
        n0 = {k: len(v) for k, v in self.lat.items()}

        def short(kind, need):
            return len(self.lat[kind]) - n0[kind] < need

        while self.pos < SEARCH_STREAM and (
                short("search", min_ops) or short("hybrid", min_hybrid)
                or time.perf_counter() - t0 < seconds):
            step()

    def verify(self):
        from coderag_ray.oracle import OracleIndex
        from coderag_ray.query.search import search

        c = self.ctx
        oracle = OracleIndex.from_rows(self.tbl.to_pylist())
        path_of = dict(zip(self.tbl["doc_id"].to_pylist(), self.tbl["path"].to_pylist()))
        done = sorted(self.replies)
        checked = np.random.default_rng([c.seed, 23]).choice(
            done, min(SEARCH_VERIFY, len(done)), replace=False)
        for i in sorted(checked.tolist()):
            kind, q, limit = self.stream[i]
            want = oracle.search(q, limit)
            c.attempted += 1
            got = _topk(search(self.reader, q, limit, with_doc_columns=False))
            if got != [(d, ch, s) for d, ch, s, _ in want]:
                c.fail(f"top-{limit} of {q!r} differs from the oracle")
                continue
            reply = self.replies[i]
            if kind == "hybrid":
                ok = _hybrid_consistent(reply, {(d, ch): s for d, ch, s, _ in want})
            else:
                ok = _reply_matches(reply, [(path_of[d], s) for d, _, s, _ in want])
            if not ok:
                c.fail(f"{kind} reply to {q!r} disagrees with the oracle")

    def finish(self):
        c = self.ctx
        ms_summary(c, "search", self.lat["search"])
        ms_summary(c, "hybrid", self.lat["hybrid"])
        c.report["search_corpus_docs"] = (self.tbl.num_rows, "docs", 1)

    def targets(self, tr):
        import coderag_ray.mcp_server as M
        import coderag_ray.pipelines.hybrid as H
        import coderag_ray.query.search as S
        import coderag_ray.query.snippets as SN
        from coderag_ray.index.reader import IndexReader

        self.cache_counts = {"lookups": 0, "hits": 0}
        return [
            (M.McpServer, "tool_codebase_search", "mcp_server.codebase_search"),
            (S, "search", "query.search"),
            (S, "attach_doc_columns", "query.search.attach_doc_columns"),
            (IndexReader, "chunk_contents", "index.reader.chunk_contents"),
            (IndexReader, "idf_for_terms", "index.reader.idf_for_terms"),
            (SN, "extract_snippet", "query.snippets.extract_snippet"),
            (H, "vector_topk", "pipelines.hybrid.vector_topk"),
            (H, "search", "pipelines.hybrid.bm25"),
        ] + _cache_targets(tr, self.cache_counts)

    def layers(self, tr):
        from coderag_ray.index.reader import IndexReader

        c = self.ctx
        per_call(c, "query.search.bm25_ms", tr.self_times("query.search"))
        per_call(c, "query.search.attach_doc_columns_ms", tr.durations("query.search.attach_doc_columns"))
        per_call(c, "index.reader.chunk_contents_ms", tr.durations("index.reader.chunk_contents"))
        per_call(c, "index.reader.idf_for_terms_ms", tr.durations("index.reader.idf_for_terms"))
        per_call(c, "query.snippets.extract_snippet_ms", tr.durations("query.snippets.extract_snippet"))
        per_call(c, "mcp_server.codebase_search_self_ms", tr.self_times("mcp_server.codebase_search"))
        per_call(c, "pipelines.hybrid.vector_topk_ms", tr.durations("pipelines.hybrid.vector_topk"))
        per_call(c, "pipelines.hybrid.bm25_ms", tr.durations("pipelines.hybrid.bm25"))
        _cache_layers(tr, self.cache_counts, c)
        # preload of a freshly opened reader, as a server pays on start
        pre = []
        for _ in range(3):
            r = IndexReader(self.idx)
            t0 = time.perf_counter()
            r.ensure_preloaded()
            pre.append(time.perf_counter() - t0)
        c.layer("index.reader.preload_s", median(pre), len(pre))


_HEADER = re.compile(r"^## (.+?)(?::\d+-\d+)?$", re.M)
_SCORE = re.compile(r"^\*\*Score:\*\* ([0-9.]+)", re.M)


def _reply_matches(reply: str, want: list[tuple[str, float]]) -> bool:
    """The markdown reply lists the oracle's paths and scores, in order."""
    if not want:
        return "(0 results)" in reply
    paths = _HEADER.findall(reply)
    scores = _SCORE.findall(reply)
    return paths == [p for p, _ in want] and scores == [f"{s:.4f}" for _, s in want]


def _hybrid_consistent(res: pa.Table, bm25: dict) -> bool:
    """Fused order is (score DESC, doc_id, chunk_id), and every row that
    carries a BM25 score carries the oracle's score for that chunk."""
    rows = res.to_pylist()
    keys = [(-r["score"], r["doc_id"], r["chunk_id"]) for r in rows]
    if keys != sorted(keys):
        return False
    return all(r["bm25_score"] is None or bm25.get((r["doc_id"], r["chunk_id"])) == r["bm25_score"]
               for r in rows)


# ---------------------------------------------------------------- refresh

class Refresh(Workload):
    """Edits to a watched source tree: each cycle modifies, adds and
    deletes files, polls ``DirectoryWatcher`` until the refresh lands,
    asks for the edit's marker, then asks a small hot set of repeated
    queries through the same ``McpServer``.  ``op_p50_ms`` is the
    refresh (edit to marker reply), ``work_per_s`` the hot-set queries
    per second of their own time."""

    setup_reps = SETUP_REPS_WITH_BUILD
    min_ops = REFRESH_CYCLES

    HOT = gen.HOT_SET

    def setup(self, rep):
        import coderag_ray.sources.files as F
        from coderag_ray.config import IndexConfig
        from coderag_ray.mcp_server import McpServer
        from coderag_ray.sources.watch import DirectoryWatcher

        c = self.ctx
        self.root = c.path(f"tree{rep}")
        self.files = gen.write_tree(c.seed, self.root, c.size("tree_files"))
        self.idx = c.path(f"tree_idx{rep}")
        self.now = 0.0
        self.watcher = DirectoryWatcher(self.root, self.idx, IndexConfig(),
                                        debounce_s=0.5, clock=lambda: self.now)
        _build(F.scan_directory(self.root), self.idx)
        self.server = McpServer(self.idx)
        self.server.tool_codebase_search({"query": self.HOT[0]})
        self.cycle = 0
        self.refresh_s: list[float] = []
        self.hot_s: list[float] = []
        self.reports: list = []

    def _poll_until_refreshed(self, max_polls: int = 6) -> bool:
        for _ in range(max_polls):
            if self.watcher.poll():
                return True
            self.now += self.watcher.debounce_s + 0.01
        return False

    def _cycle(self, timed: bool) -> None:
        c = self.ctx
        self.cycle += 1
        edits = gen.edit_plan(c.seed, self.cycle, self.files)
        mark, mod_path = gen.marker(c.seed, self.cycle), edits[0][1]
        gen.apply_edits(self.root, edits, self.files)
        tracer = c.tracer
        t0 = time.perf_counter()
        if tracer is None:
            reply = c.attempt(self._refresh_and_ask, mark)
        else:
            with tracer.request(self.cycle):
                reply = c.attempt(self._refresh_and_ask, mark)
        dt = time.perf_counter() - t0
        if reply is None:
            return
        if f"## {mod_path}:" not in reply:
            c.fail(f"cycle {self.cycle}: marker query did not return {mod_path}")
        if not timed:
            return
        self.refresh_s.append(dt)
        c.op_s.append(dt)
        # the first pass after a refresh misses the cleared result cache,
        # the later passes hit it
        for _ in range(HOT_ROUNDS):
            for q in self.HOT:
                t1 = time.perf_counter()
                out = c.attempt(self.server.tool_codebase_search, {"query": q})
                dq = time.perf_counter() - t1
                if out is None:
                    continue
                if not out.startswith(f'# Search: "{q}"'):
                    c.fail(f"malformed reply to {q!r}")
                self.hot_s.append(dq)
                c.work_units += 1
                c.busy_s += dq

    def _refresh_and_ask(self, mark: str) -> str:
        if not self._poll_until_refreshed():
            raise RuntimeError("watcher did not refresh")
        return self.server.tool_codebase_search({"query": mark})

    def warmup(self):
        self._cycle(timed=False)

    def segment(self, seconds, min_ops):
        timed_loop(seconds, min_ops, lambda _: self._cycle(timed=True))

    def verify(self):
        """The refreshed index answers like a fresh build of the same tree."""
        import coderag_ray.sources.files as F
        from coderag_ray.query.search import search

        c = self.ctx
        fresh = c.path("tree_fresh")
        _build(F.scan_directory(self.root), fresh)
        queries = self.HOT + [gen.marker(c.seed, i) for i in range(1, self.cycle + 1)][-4:]
        queries += [q for q, _ in gen.query_texts(c.seed, 6)]
        for q in queries:
            c.attempted += 1
            if _topk(search(self.idx, q, K, with_doc_columns=False)) != \
                    _topk(search(fresh, q, K, with_doc_columns=False)):
                c.fail(f"refreshed top-{K} of {q!r} differs from a fresh build")

    def finish(self):
        c = self.ctx
        if self.refresh_s:
            c.report["refresh_s"] = (median(self.refresh_s), "s", len(self.refresh_s))
        ms_summary(c, "refresh_search", self.hot_s)
        c.report["refresh_tree_files"] = (c.size("tree_files"), "files", 1)

    def targets(self, tr):
        import coderag_ray.index.build as B
        import coderag_ray.mcp_server as M
        import coderag_ray.query.search as S
        import coderag_ray.sources.files as F
        import coderag_ray.sources.watch as W
        from coderag_ray.index.reader import IndexReader

        self.cache_counts = {"lookups": 0, "hits": 0}
        return [
            (W.DirectoryWatcher, "poll", "sources.watch.poll"),
            (F, "scan_directory", "sources.files.scan_directory"),
            (B, "build_index", "index.build.build_index", self.reports.append),
            (M.McpServer, "tool_codebase_search", "mcp_server.codebase_search"),
            (S, "search", "query.search"),
            (IndexReader, "ensure_preloaded", "index.reader.ensure_preloaded"),
        ] + _cache_targets(tr, self.cache_counts)

    def layers(self, tr):
        c = self.ctx
        builds = {s.parent for s in tr.spans if s.name == "index.build.build_index"}
        polls = [s.end - s.start for s in tr.spans if s.name == "sources.watch.poll" and s.id in builds]
        c.layer("sources.watch.poll_s", _med(polls), len(polls))
        scans = tr.durations("sources.files.scan_directory")
        c.layer("sources.files.scan_directory_s", _med(scans), len(scans))
        build_phase_layers(self.reports, c)
        # the reader reopened after a refresh preloads inside the marker query
        per_cycle: dict[int, float] = {}
        for s in tr.spans:
            if s.name == "index.reader.ensure_preloaded" and s.request is not None:
                per_cycle[s.request] = per_cycle.get(s.request, 0.0) + (s.end - s.start)
        c.layer("index.reader.preload_s", _med(list(per_cycle.values())), len(per_cycle))
        _cache_layers(tr, self.cache_counts, c)


# ---------------------------------------------------------------- batch

def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _traced_scorer_cls():
    from coderag_ray.query.search import BatchScorer

    class TracedBatchScorer(BatchScorer):
        """BatchScorer that also reports, on every output row, its process
        id, VmRSS, and the call's batch number, query count and seconds."""

        def __call__(self, batch):
            self.calls = getattr(self, "calls", 0) + 1
            t0 = time.perf_counter()
            out = super().__call__(batch)
            dt = time.perf_counter() - t0
            n = out.num_rows
            extra = {"actor_pid": (os.getpid(), pa.int64()), "actor_rss_mb": (_rss_mb(), pa.float64()),
                     "call_no": (self.calls, pa.int64()), "call_queries": (batch.num_rows, pa.int64()),
                     "call_s": (dt, pa.float64())}
            for name, (v, typ) in extra.items():
                out = out.append_column(name, pa.array([v] * n, type=typ))
            return out

    return TracedBatchScorer


class Batch(Workload):
    """A seeded query table through ``map_batches(BatchScorer,
    concurrency=2)``, timed from pool creation to the last result."""

    setup_reps = SETUP_REPS_WITH_BUILD

    def setup(self, rep):
        import ray.data

        c = self.ctx
        tbl = gen.corpus(c.seed, c.size("batch_docs"))
        src = c.path(f"batch_corpus{rep}")
        gen.write_parquet_files(tbl, src, PARQUET_FILES)
        self.idx = c.path(f"batch_idx{rep}")
        _build(ray.data.read_parquet(src), self.idx)
        q = self.queries = gen.batch_queries(c.seed, c.size("batch_queries"))
        self.blocks = ray.data.from_arrow(
            [q.slice(lo, BATCH_BLOCK) for lo in range(0, q.num_rows, BATCH_BLOCK)])
        self.jobs: list[pa.Table] = []
        self.spinup: list[float] = []

    def _job(self):
        from coderag_ray.query.search import BatchScorer

        scorer = _traced_scorer_cls() if self.ctx.tracer is not None else BatchScorer
        t0 = time.perf_counter()
        out = self.blocks.map_batches(scorer, fn_constructor_args=(self.idx, K),
                                      concurrency=BATCH_ACTORS, batch_size=BATCH_BLOCK,
                                      batch_format="pyarrow")
        parts, first = [], None
        for b in out.iter_batches(batch_size=None, batch_format="pyarrow"):
            if first is None:
                first = time.perf_counter()
            parts.append(b)
        t1 = time.perf_counter()
        self.spinup.append(first - t0)
        return pa.concat_tables(parts), t1 - t0

    def warmup(self):
        # one job so worker processes and imports exist before timing;
        # each timed job still creates its own actor pool
        self.ctx.attempt(self._job)

    def segment(self, seconds, min_ops):
        c = self.ctx
        self.spinup.clear()

        def step(_):
            res = c.attempt(self._job)
            if res is None:
                return
            tbl, dt = res
            c.op_s.append(dt)
            c.work_units += self.queries.num_rows
            c.busy_s += dt
            self.jobs.append(tbl)

        timed_loop(seconds, min_ops, step)

    def verify(self):
        """Every job's results equal ``search()`` run in this process."""
        from coderag_ray.index.reader import IndexReader
        from coderag_ray.query.search import search

        c = self.ctx
        reader = IndexReader(self.idx)
        want = {}
        for qid, text in zip(self.queries["query_id"].to_pylist(), self.queries["text"].to_pylist()):
            res = search(reader, text, K, with_doc_columns=False)
            want[qid] = sorted(zip(res["rank"].to_pylist(), res["doc_id"].to_pylist(),
                                   res["chunk_id"].to_pylist(), res["score"].to_pylist()))
        for j, tbl in enumerate(self.jobs):
            got: dict[int, list] = {}
            for r in tbl.select(["query_id", "rank", "doc_id", "chunk_id", "score"]).to_pylist():
                got.setdefault(r["query_id"], []).append((r["rank"], r["doc_id"], r["chunk_id"], r["score"]))
            c.attempted += 1
            bad = [qid for qid in want if sorted(got.get(qid, [])) != want[qid]]
            if bad:
                c.fail(f"job {j}: {len(bad)} queries differ from in-process search()")

    def finish(self):
        c = self.ctx
        c.report["batch_qps"] = (c.work_units / c.busy_s if c.busy_s else 0.0, "queries/s", len(c.op_s))
        c.report["batch_queries"] = (self.queries.num_rows, "queries", 1)

    def layers(self, tr):
        c = self.ctx
        c.layer("query.batch.spinup_s", _med(self.spinup), len(self.spinup))
        rss, calls = {}, {}
        for tbl in self.jobs:
            if "actor_pid" not in tbl.column_names:
                continue
            cols = [tbl[c].to_pylist() for c in
                    ("actor_pid", "actor_rss_mb", "call_no", "call_queries", "call_s")]
            for pid, mb, no, nq, dt in zip(*cols):
                rss[pid] = max(rss.get(pid, 0.0), mb)
                if no > 1:  # an actor's first call also waits for its preload
                    calls[(pid, no)] = nq / dt
        c.layer("query.batch.actor_rss_mb", _med(list(rss.values())), len(rss))
        # every actor scoring at its median steady rate
        c.layer("query.batch.steady_qps", BATCH_ACTORS * _med(list(calls.values())), len(calls))


# ---------------------------------------------------------------- dedup

DEDUP_PIPELINES = ("exact_dedup", "minhash_lsh_pairs", "near_dup_clusters", "ngram_jaccard_pairs")
PAIR_EXPANDING = ("near_dup_clusters", "ngram_jaccard_pairs")


def _run_pipeline(name: str, docs: pa.Table):
    """→ (result as pandas, rows_out, remote UDF seconds or None)."""
    import ray.data

    import coderag_ray.pipelines.dedup as D

    ds = ray.data.from_arrow(docs)
    if name == "exact_dedup":
        out = D.exact_dedup(ds)
    elif name == "minhash_lsh_pairs":
        out = D.minhash_lsh_pairs(ds, n=3, jaccard_threshold=0.5)
    elif name == "near_dup_clusters":
        out = D.near_dup_clusters(ds, threshold=0.5, n=3, max_shingle_df=None)
    else:
        out = D.ngram_jaccard_pairs(ds, n=3, top=50, max_shingle_df=None)
    if isinstance(out, pa.Table):
        return out.to_pandas(), out.num_rows, None
    mat = out.materialize()
    return mat.to_pandas(), mat.count(), _udf_seconds(mat.stats())


_REMOTE_WALL = re.compile(r"Remote wall time: .*?([0-9.]+)(us|ms|s) total")


def _udf_seconds(stats: str) -> float:
    """Sum of every operator's total remote wall time in ``Dataset.stats()``."""
    scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    return sum(float(v) * scale[u] for v, u in _REMOTE_WALL.findall(stats))


class Dedup(Workload):
    """The four near-duplicate pipelines over generated code docs whose
    shared header shingles occur in every file.  ``op_p50_ms`` is one
    pass of all four; ``work_per_s`` counts docs per second through the
    two that expand every shingle's posting list into pairs
    (``PAIR_EXPANDING``), whose O(df^2) cost the shared header drives."""

    def setup(self, rep):
        self.docs = gen.dedup_docs(self.ctx.seed, self.ctx.size("dedup_docs"))
        self.first: dict | None = None
        self.want: dict | None = None
        self.wall = {p: [] for p in DEDUP_PIPELINES}
        self.rows = {}
        self.udf: list[float] = []

    def warmup(self):
        # the DuckDB oracle needs only the input, so it runs beside the
        # untimed warm-up pass instead of lengthening the run
        import threading

        import ray.data

        oracle = threading.Thread(target=self._oracle, daemon=True)
        oracle.start()

        def import_dedup(batch):
            import coderag_ray.pipelines.dedup  # noqa: F401

            return batch

        # the pipelines' worker processes start and import before timing
        ray.data.range(NUM_CPUS * 2, override_num_blocks=NUM_CPUS * 2) \
            .map_batches(import_dedup).materialize()
        oracle.join()

    def _oracle(self):
        import duckdb

        import __ray_entry__ as E

        sql = E.oracle_sql()
        con = duckdb.connect()
        con.register("documents", self.docs)
        try:
            self.want = {
                "exact_dedup": _canonical("exact_dedup", con.execute(sql["q_dedup_exact"]).fetchdf()),
                "ngram_jaccard_pairs": _canonical("ngram_jaccard_pairs",
                                                  con.execute(sql["q_ngram_jaccard"]).fetchdf()),
                "clusters": con.execute(sql["q_dedup_clusters"]).fetchdf(),
                "n_exact_pairs": int(con.execute(sql["q_minhash_recall"]).fetchdf()["n_exact_pairs"][0]),
                "recall_floor": E.MINHASH_RECALL_FLOOR,
            }
        finally:
            con.close()

    def segment(self, seconds, min_ops):
        c = self.ctx

        def step(_):
            total, outs = 0.0, {}
            for p in DEDUP_PIPELINES:
                t0 = time.perf_counter()
                res = c.attempt(_run_pipeline, p, self.docs)
                dt = time.perf_counter() - t0
                if res is None:
                    return
                outs[p] = res[0]
                self.rows[p] = res[1]
                if res[2] is not None:
                    self.udf.append(res[2])
                self.wall[p].append(dt)
                total += dt
                if p in PAIR_EXPANDING:
                    c.busy_s += dt
            c.op_s.append(total)
            c.work_units += self.docs.num_rows
            canon = {p: _canonical(p, df) for p, df in outs.items()}
            if self.first is None:
                self.first = canon
            elif canon != self.first:
                c.fail("dedup outputs differ between passes")

        timed_loop(seconds, min_ops, step)

    def verify(self):
        """First pass against the DuckDB oracle SQL over the same table."""
        c = self.ctx
        if self.first is None:
            return
        got, want = self.first, self.want
        if want is None:
            c.fail("the DuckDB oracle did not run")
            return
        clusters = want["clusters"]
        checks = {
            "exact_dedup": got["exact_dedup"] == want["exact_dedup"],
            "ngram_jaccard_pairs": got["ngram_jaccard_pairs"] == want["ngram_jaccard_pairs"],
            "near_dup_clusters": got["near_dup_clusters"] == _canonical("near_dup_clusters", clusters),
        }
        # MinHash: every verified pair is an exact >=0.5 edge inside one
        # oracle cluster, and recall over the oracle's exact pair count
        label = dict(zip(clusters["doc_id"].tolist(), clusters["cluster_id"].tolist()))
        pairs = got["minhash_lsh_pairs"]
        precise = all(j >= 0.5 and a in label and label[a] == label.get(b) for a, b, j in pairs)
        n_exact = want["n_exact_pairs"]
        recall_ok = n_exact == 0 or len(pairs) / n_exact >= want["recall_floor"]
        checks["minhash_lsh_pairs"] = precise and recall_ok
        for p, ok in checks.items():
            c.attempted += 1
            if not ok:
                c.fail(f"{p} differs from the DuckDB oracle")

    def finish(self):
        c = self.ctx
        for p, short in zip(DEDUP_PIPELINES, ("exact", "minhash", "clusters", "ngram")):
            if self.wall[p]:
                c.report[f"dedup_{short}_s"] = (median(self.wall[p]), "s", len(self.wall[p]))
        c.report["dedup_docs"] = (self.docs.num_rows, "docs", 1)

    def layers(self, tr):
        c = self.ctx
        for p in DEDUP_PIPELINES:
            n = len(self.wall[p])
            c.layer(f"pipelines.dedup.{p}.rows_out", self.rows.get(p, 0), n)
            c.layer(f"pipelines.dedup.{p}.wall_s", _med(self.wall[p]), n)
        c.layer("pipelines.dedup.exact_dedup.udf_s", _med(self.udf), len(self.udf))


def _canonical(name: str, df) -> object:
    """Order-independent, rounding-stable form of one pipeline's output."""
    if name == "exact_dedup":
        return sorted(zip(df["content_sha256"], df["n_copies"].astype(int), df["keeper_doc_id"].astype(int)))
    if name == "ngram_jaccard_pairs":
        return [(int(a), int(b), int(n), int(na), int(nb), round(float(j), 6)) for a, b, n, na, nb, j in
                zip(df["doc_a"], df["doc_b"], df["n_common"], df["n_a"], df["n_b"], df["jaccard"])]
    if name == "near_dup_clusters":
        return sorted(zip(df["doc_id"].astype(int), df["cluster_id"].astype(int)))
    return sorted((int(a), int(b), float(j)) for a, b, j in zip(df["doc_a"], df["doc_b"], df["jaccard"]))


WORKLOADS = {"build": Build, "search": Search, "refresh": Refresh, "batch": Batch, "dedup": Dedup}

# every per-layer metric, in report order; a workload that does not
# exercise a layer reports 0 for it
_PER_CALL = ["query.search.bm25_ms", "query.search.attach_doc_columns_ms",
             "index.reader.chunk_contents_ms", "index.reader.idf_for_terms_ms",
             "query.snippets.extract_snippet_ms", "mcp_server.codebase_search_self_ms",
             "pipelines.hybrid.vector_topk_ms", "pipelines.hybrid.bm25_ms"]
LAYER_METRICS = (
    [("stages.ingest.docs_per_s", "docs/s", "higher"),
     ("stages.chunk.docs_per_s", "docs/s", "higher"),
     ("stages.tokenize.chunks_per_s", "chunks/s", "higher"),
     ("index.build.fingerprints_s", "s", "lower"),
     ("index.build.tokenize_shuffle_write_s", "s", "lower"),
     ("index.build.idf_s", "s", "lower"),
     ("index.build.postings_per_chunk", "count", "lower"),
     ("index.build.dirty_partition_ratio", "ratio", "lower"),
     ("index.partition.stored_bytes_per_input_byte", "ratio", "lower"),
     ("index.reader.preload_s", "s", "lower")]
    + [(f"{n}.p{q}", "ms", "lower") for n in _PER_CALL for q in (50, 95)]
    + [("query.cache.hit_ratio", "ratio", "higher"),
       ("query.cache.invalidations", "count", "lower"),
       ("sources.watch.poll_s", "s", "lower"),
       ("sources.files.scan_directory_s", "s", "lower"),
       ("query.batch.spinup_s", "s", "lower"),
       ("query.batch.steady_qps", "queries/s", "higher"),
       ("query.batch.actor_rss_mb", "MB", "lower")]
    + [(f"pipelines.dedup.{p}.{m}", u, "lower") for p in DEDUP_PIPELINES
       for m, u in (("rows_out", "count"), ("wall_s", "s"))]
    + [("pipelines.dedup.exact_dedup.udf_s", "s", "lower"),
       ("trace.overhead_pct", "%", "lower")]
)


def run(name: str, ctx: Ctx, init_s: float) -> dict:
    """Set up, measure and check workload ``name``; returns the metrics
    for the run's mode (end-to-end, or per-layer when tracing)."""
    wl = WORKLOADS[name](ctx)
    setup = []
    for rep in range(wl.setup_reps):
        t0 = time.perf_counter()
        wl.setup(rep)
        setup.append(time.perf_counter() - t0)
    t_phase = time.perf_counter()
    wl.warmup()
    ctx.report["phase_warmup_s"] = (time.perf_counter() - t_phase, "s", 1)
    t_phase = time.perf_counter()
    if ctx.trace:
        # a short untraced segment first: its primary-op median is the
        # base the tracing overhead is measured against
        wl.segment(ctx.seconds / 4, 1)
        base = median(ctx.op_s) if ctx.op_s else 0.0
        n_base = len(ctx.op_s)
        tr = ctx.tracer = Tracer()
        with tr.installed(wl.targets(tr)):
            wl.segment(ctx.seconds, wl.min_ops)
        ctx.tracer = None
        traced = ctx.op_s[n_base:]
        wl.layers(tr)
        if base and traced:
            ctx.layer("trace.overhead_pct", 100.0 * (median(traced) / base - 1.0), len(traced))
        ctx.trace_log = tr
    else:
        wl.segment(ctx.seconds, wl.min_ops)
    if not ctx.op_s:
        ctx.fail("no operation completed")
    ctx.report["phase_measure_s"] = (time.perf_counter() - t_phase, "s", 1)
    t_phase = time.perf_counter()
    wl.verify()
    ctx.report["phase_verify_s"] = (time.perf_counter() - t_phase, "s", 1)
    wl.finish()
    ctx.report["setup_s"] = (init_s + median(setup), "s", len(setup))
    if ctx.trace:
        return {m: float(ctx.layers.get(m, 0.0)) for m, _, _ in LAYER_METRICS}
    return {
        "setup_s": init_s + median(setup),
        "op_p50_ms": median(ctx.op_s) * 1000.0 if ctx.op_s else float("nan"),
        "work_per_s": ctx.work_units / ctx.busy_s if ctx.busy_s else 0.0,
    }
