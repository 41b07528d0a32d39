"""CLI — the Ray-native analog of the reference's MCP server surface
(``/root/reference/packages/mcp-server/src/index.ts:38-442``): a build
entry point and a ``codebase_search``-shaped query command with
markdown output, plus ``status`` (≈ ``get_indexing_status``).

Usage:
    python -m coderag_ray.cli build  <corpus.parquet|dir> <index_dir> [--tokenizer code|simple] [--partitions N]
    python -m coderag_ray.cli search <index_dir> "query text" [-k 10] [--ext .py] [--path src/] [--exclude test] [--mode bm25|cosine] [--json]
    python -m coderag_ray.cli status <index_dir>

Owns its Ray session (guarded init; the driver-facing ``__ray_entry__``
never calls this path).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_init():
    import os

    import ray

    if not ray.is_initialized():
        # honor the cluster address a `ray job submit` runtime injects
        # (RAY_ADDRESS=auto on a cluster); standalone runs stay local
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_build(args) -> int:
    ray = _ray_init()
    from coderag_ray.config import IndexConfig
    from coderag_ray.index.build import build_index

    cfg = IndexConfig(tokenizer=args.tokenizer, num_partitions=args.partitions,
                      chunker=getattr(args, "chunker", "chars"))
    fmt = getattr(args, "format", "parquet")
    if fmt == "parquet":
        source = args.input  # corpus-schema parquet path (build_index reads it)
    else:
        from coderag_ray import corpus as C

        source = {"documents": C.corpus_from_documents,
                  "jsonl": C.corpus_from_jsonl,
                  "csv": C.corpus_from_csv}[fmt](args.input)
    report = build_index(source, args.index_dir, cfg, resume=not args.no_resume)
    print(json.dumps(report.__dict__, default=str))
    ray.shutdown()
    return 0


def cmd_scan(args) -> int:
    """Index a real directory tree: filesystem scan → build."""
    ray = _ray_init()
    from coderag_ray.config import IndexConfig
    from coderag_ray.index.build import build_index
    from coderag_ray.sources.files import scan_directory

    cfg = IndexConfig(tokenizer=args.tokenizer, num_partitions=args.partitions,
                      chunker=args.chunker)
    report = build_index(scan_directory(args.root), args.index_dir, cfg,
                         resume=not args.no_resume)
    print(json.dumps(report.__dict__, default=str))
    ray.shutdown()
    return 0


def cmd_watch(args) -> int:
    """Scan-build a directory, then watch it live (ST7): debounced
    incremental refreshes on change, Ctrl-C to stop."""
    ray = _ray_init()
    from coderag_ray.config import IndexConfig
    from coderag_ray.sources.watch import DirectoryWatcher

    cfg = IndexConfig(tokenizer=args.tokenizer, num_partitions=args.partitions,
                      chunker=args.chunker)
    w = DirectoryWatcher(args.root, args.index_dir, cfg,
                         debounce_s=args.debounce, poll_interval_s=args.interval)
    w._refresh()  # initial build, like the reference indexes before watching
    print(json.dumps({"watching": args.root, "index_dir": args.index_dir,
                      "debounce_s": args.debounce}), flush=True)
    try:
        while True:
            refreshed = w.poll()
            if refreshed:
                print(json.dumps({"refreshed": refreshed}), flush=True)
            import time as _t

            _t.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    ray.shutdown()
    return 0


def cmd_mcp(args) -> int:
    from coderag_ray.mcp_server import serve

    serve(args.index_dir)
    return 0


def cmd_search(args) -> int:
    from coderag_ray.index.reader import IndexReader
    from coderag_ray.query.search import SearchFilters, search
    from coderag_ray.query.snippets import extract_snippet, format_results_markdown

    reader = IndexReader(args.index_dir)
    filters = None
    if args.ext or args.path or args.exclude:
        filters = SearchFilters(
            file_extensions=args.ext or None,
            path_filter=args.path,
            exclude_paths=args.exclude or None,
        )
    res = search(reader, args.query, args.k, filters=filters, mode=args.mode)
    if args.json:
        print(json.dumps(res.to_pylist(), default=str))
        return 0
    import numpy as np

    snippets = [
        extract_snippet(
            reader.chunk_contents(pid, np.array([o]))[0], mt
        )
        for pid, o, mt in zip(
            res["part_id"].to_pylist(), res["ordinal"].to_pylist(),
            res["matched_terms"].to_pylist(),
        )
    ]
    print(format_results_markdown(res, snippets))
    return 0


def cmd_status(args) -> int:
    from coderag_ray.index.manifest import load_manifest, load_meta

    meta = load_meta(args.index_dir)
    man = load_manifest(args.index_dir) or {}
    parts = man.get("partitions", {})
    meta["partitions_complete"] = len(parts)
    meta["bytes_postings"] = sum(p.get("bytes_postings", 0) for p in parts.values())
    meta["bytes_docs"] = sum(p.get("bytes_docs", 0) for p in parts.values())
    print(json.dumps(meta, indent=1))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="coderag_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build")
    b.add_argument("input")
    b.add_argument("index_dir")
    b.add_argument("--format", default="parquet",
                   choices=["parquet", "documents", "jsonl", "csv"],
                   help="input shape: corpus-schema parquet (default), a "
                        "documents.parquet dir, or JSONL/CSV document dumps")
    b.add_argument("--tokenizer", default="code", choices=["code", "simple", "bpe"])
    b.add_argument("--partitions", type=int, default=16)
    b.add_argument("--chunker", default="chars", choices=["chars", "lines", "ast", "auto"])
    b.add_argument("--no-resume", action="store_true")
    b.set_defaults(fn=cmd_build)

    sc = sub.add_parser("scan", help="index a real directory tree (gitignore-aware)")
    sc.add_argument("root")
    sc.add_argument("index_dir")
    sc.add_argument("--tokenizer", default="code", choices=["code", "simple", "bpe"])
    sc.add_argument("--partitions", type=int, default=16)
    sc.add_argument("--chunker", default="chars", choices=["chars", "lines", "ast"])
    sc.add_argument("--no-resume", action="store_true")
    sc.set_defaults(fn=cmd_scan)

    wt = sub.add_parser("watch", help="live incremental indexing of a directory tree")
    wt.add_argument("root")
    wt.add_argument("index_dir")
    wt.add_argument("--tokenizer", default="code", choices=["code", "simple", "bpe"])
    wt.add_argument("--partitions", type=int, default=16)
    wt.add_argument("--chunker", default="chars", choices=["chars", "lines", "ast"])
    wt.add_argument("--debounce", type=float, default=0.5)
    wt.add_argument("--interval", type=float, default=0.25)
    wt.set_defaults(fn=cmd_watch)

    m = sub.add_parser("mcp", help="serve the MCP stdio protocol over a built index")
    m.add_argument("index_dir")
    m.set_defaults(fn=cmd_mcp)

    s = sub.add_parser("search")
    s.add_argument("index_dir")
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--ext", action="append")
    s.add_argument("--path")
    s.add_argument("--exclude", action="append")
    s.add_argument("--mode", default="bm25", choices=["bm25", "cosine"])
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=cmd_search)

    st = sub.add_parser("status")
    st.add_argument("index_dir")
    st.set_defaults(fn=cmd_status)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
