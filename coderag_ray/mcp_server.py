"""MCP stdio server — the reference's primary user entry point
(``/root/reference/packages/mcp-server/src/index.ts:38-442``) re-expressed
over the Ray-built index.

A newline-delimited JSON-RPC 2.0 loop (the MCP stdio transport) exposing
two tools over a PREBUILT index directory:

- ``codebase_search`` — BM25 search with the reference's input surface
  (query / limit / include_content / file_extensions / path_filter /
  exclude_paths / context_lines / max_snippet_chars / max_snippet_blocks,
  ``index.ts:150-178``) and its markdown result rendering (head+tail
  truncation, ``index.ts:268-356``);
- ``get_indexing_status`` — JSON status (``index.ts:360-380``); this
  engine is a static snapshot (SURVEY §2.9: no watcher), so
  ``isIndexing`` is always false and ``indexedCount`` comes from the
  manifest.

Argv parsing mirrors ``index.ts:42-49`` / ``index.test.ts`` (``--root=``
→ here ``--index=`` for the index dir, ``--max-size=``,
``--no-auto-index``); search over a missing index answers with the
reference's "Index Not Available" text instead of crashing.  The server
itself needs NO Ray session — ``IndexReader`` is plain
pyarrow/numpy, so one server process can sit in front of an index a Ray
cluster keeps rebuilding (:class:`~coderag_ray.query.cache.CachedSearcher`
reopens the reader when the manifest mtime changes).
"""

from __future__ import annotations

import json
import os
import sys

SERVER_CONFIG = {
    "name": "coderag-ray-mcp",
    "version": "1.0.0",
    "description": "MCP server providing intelligent codebase search using BM25/TF-IDF (Ray Data engine)",
}
PROTOCOL_VERSION = "2024-11-05"

_SEARCH_DESCRIPTION = (
    "Keyword search across the codebase using BM25 ranking. "
    "Use specific terms, function names, or technical keywords."
)

_SEARCH_SCHEMA = {
    "type": "object",
    "properties": {
        "query": {"type": "string", "description": "Keyword search query - use specific terms, function names, or technical keywords"},
        "limit": {"type": "number", "description": "Maximum number of results to return (default: 10)"},
        "include_content": {"type": "boolean", "description": "Include file content snippets in results (default: true)"},
        "file_extensions": {"type": "array", "items": {"type": "string"}, "description": "Filter by file extensions (e.g., ['.ts', '.py'])"},
        "path_filter": {"type": "string", "description": "Filter by path pattern (e.g., 'src/components')"},
        "exclude_paths": {"type": "array", "items": {"type": "string"}, "description": "Exclude paths containing these patterns"},
        "context_lines": {"type": "number", "description": "Lines of context around each matched line (default: 3)"},
        "max_snippet_chars": {"type": "number", "description": "Maximum characters per file snippet (default: 2000)"},
        "max_snippet_blocks": {"type": "number", "description": "Maximum code blocks per file (default: 4)"},
    },
    "required": ["query"],
}

_STATUS_DESCRIPTION = (
    "Returns current codebase indexing status. Response is JSON: "
    "isIndexing, progress, indexedCount and index totals."
)


def parse_args(args: list[str]) -> dict:
    """Mirror of the reference's argv contract (``index.ts:42-49``,
    asserted by ``index.test.ts``): ``--index=``/``--root=`` path,
    ``--max-size=`` bytes (default 1 MiB), ``--no-auto-index``,
    ``--index-only``."""
    index_dir = next(
        (a.split("=", 1)[1] for a in args
         if a.startswith("--index=") or a.startswith("--root=")),
        os.getcwd(),
    )
    max_file_size = int(next(
        (a.split("=", 1)[1] for a in args if a.startswith("--max-size=")),
        "1048576",
    ))
    return {
        "index_dir": index_dir,
        "max_file_size": max_file_size,
        "auto_index": "--no-auto-index" not in args,
        "index_only": "--index-only" in args,
    }


class McpServer:
    """Stateful request handler; one instance per stdio session."""

    def __init__(self, index_dir: str):
        self.index_dir = index_dir
        # results served through the reference-semantics TTL/LRU cache
        # (search-cache.ts); it reopens the reader when a build lands
        self._searcher = None

    # -- index access -----------------------------------------------------

    def _manifest_path(self) -> str:
        from coderag_ray.index.manifest import MANIFEST_NAME

        return os.path.join(self.index_dir, MANIFEST_NAME)

    # -- tools ------------------------------------------------------------

    def tool_codebase_search(self, args: dict) -> str:
        import numpy as np

        from coderag_ray.query.search import SearchFilters
        from coderag_ray.query.snippets import extract_snippet, truncate_head_tail

        query = args["query"]
        limit = int(args.get("limit", 10))
        include_content = bool(args.get("include_content", True))
        context_lines = int(args.get("context_lines", 3))
        max_snippet_chars = int(args.get("max_snippet_chars", 2000))
        max_snippet_blocks = int(args.get("max_snippet_blocks", 4))
        if not os.path.exists(self._manifest_path()):
            return (
                "❌ **Index Not Available**\n\nThe codebase has not been "
                "indexed.\n\n**Possible causes:**\n- Indexing failed (check "
                "server logs)\n- Auto-indexing is disabled\n\n💡 Build the "
                "index (coderag_ray build) and restart the MCP server."
            )
        if self._searcher is None:
            from coderag_ray.index.reader import IndexReader
            from coderag_ray.query.cache import CachedSearcher

            self._searcher = CachedSearcher(IndexReader(self.index_dir))
        filters = None
        if args.get("file_extensions") or args.get("path_filter") or args.get("exclude_paths"):
            filters = SearchFilters(
                file_extensions=args.get("file_extensions"),
                path_filter=args.get("path_filter"),
                exclude_paths=args.get("exclude_paths"),
            )
        res = self._searcher.search(query, limit, filters=filters)
        reader = self._searcher.reader  # the reader that served res
        if res.num_rows == 0:
            return (
                f'# Search: "{query}" (0 results)\n\nNo matches found. '
                f"Try different terms or check filters.\n"
                f"Indexed files: {self._indexed_count()}"
            )
        rows = res.to_pylist()
        out = [f'# Search: "{query}" ({len(rows)} results)\n']
        for row in rows:
            header = row.get("path", str(row.get("doc_id")))
            so, eo = row.get("start_offset"), row.get("end_offset")
            if so is not None and eo is not None:
                header += f":{so}-{eo}"
            out.append(f"## {header}")
            if include_content:
                content = reader.chunk_contents(
                    row["part_id"], np.array([row["ordinal"]]))[0]
                snippet = extract_snippet(
                    content, row.get("matched_terms") or [],
                    context=context_lines,
                    max_blocks=max_snippet_blocks,
                )
                lang = (row.get("lang") or "").lower()
                out.append(f"```{lang}")
                out.append(truncate_head_tail(snippet, max_snippet_chars))
                out.append("```")
            terms = ", ".join(row.get("matched_terms") or [])
            out.append(f"**Score:** {row['score']:.4f}" + (f" | **Terms:** {terms}" if terms else ""))
            out.append("")
        return "\n".join(out)

    def _indexed_count(self) -> int:
        from coderag_ray.index.manifest import load_meta

        try:
            return int(load_meta(self.index_dir).get("n_docs", 0))
        except Exception:
            return 0

    def tool_get_indexing_status(self, args: dict) -> str:
        from coderag_ray.index.manifest import load_meta

        status = {"isIndexing": False, "progress": 100}
        try:
            meta = load_meta(self.index_dir)
            status.update(
                indexedCount=int(meta.get("n_docs", 0)),
                totalChunks=int(meta.get("n_chunks", 0)),
                indexedChunks=int(meta.get("n_chunks", 0)),
                nPostings=int(meta.get("n_postings", 0)),
            )
        except Exception:
            status.update(indexedCount=0, error="index not available")
        return json.dumps(status, sort_keys=True)

    # -- JSON-RPC ---------------------------------------------------------

    def handle(self, msg: dict) -> dict | None:
        """One request/notification in, one response (or None) out."""
        method = msg.get("method")
        msg_id = msg.get("id")

        def ok(result) -> dict:
            return {"jsonrpc": "2.0", "id": msg_id, "result": result}

        def err(code: int, message: str) -> dict | None:
            if msg_id is None:
                return None  # notifications never get error replies
            return {"jsonrpc": "2.0", "id": msg_id,
                    "error": {"code": code, "message": message}}

        try:
            if method == "initialize":
                return ok({
                    "protocolVersion": PROTOCOL_VERSION,
                    "capabilities": {"tools": {}},
                    "serverInfo": {"name": SERVER_CONFIG["name"],
                                   "version": SERVER_CONFIG["version"]},
                })
            if method in ("notifications/initialized", "initialized"):
                return None
            if method == "ping":
                return ok({})
            if method == "tools/list":
                return ok({"tools": [
                    {"name": "codebase_search",
                     "description": _SEARCH_DESCRIPTION,
                     "inputSchema": _SEARCH_SCHEMA},
                    {"name": "get_indexing_status",
                     "description": _STATUS_DESCRIPTION,
                     "inputSchema": {"type": "object", "properties": {}}},
                ]})
            if method == "tools/call":
                params = msg.get("params") or {}
                name = params.get("name")
                tool_args = params.get("arguments") or {}
                if name == "codebase_search":
                    text = self.tool_codebase_search(tool_args)
                elif name == "get_indexing_status":
                    text = self.tool_get_indexing_status(tool_args)
                else:
                    return err(-32602, f"unknown tool: {name}")
                return ok({"content": [{"type": "text", "text": text}]})
            return err(-32601, f"method not found: {method}")
        except Exception as e:  # tool errors become isError results, per MCP
            if method == "tools/call":
                return ok({"content": [{"type": "text", "text": f"Error: {e}"}],
                           "isError": True})
            return err(-32603, str(e))


def serve(index_dir: str, fin=None, fout=None) -> None:
    """Newline-delimited JSON-RPC loop until EOF."""
    fin = fin or sys.stdin
    fout = fout or sys.stdout
    server = McpServer(index_dir)
    for line in fin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            resp = {"jsonrpc": "2.0", "id": None,
                    "error": {"code": -32700, "message": "parse error"}}
            fout.write(json.dumps(resp) + "\n")
            fout.flush()
            continue
        resp = server.handle(msg)
        if resp is not None:
            fout.write(json.dumps(resp) + "\n")
            fout.flush()


def main(argv: list[str] | None = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    if cfg["index_only"]:
        # reference --index-only: report and exit without serving
        # (index.ts:95-116; builds happen via the coderag_ray CLI here)
        status = McpServer(cfg["index_dir"]).tool_get_indexing_status({})
        print(status)
        return 0 if json.loads(status).get("indexedCount", 0) > 0 else 1
    print(f"coderag-ray MCP server over {cfg['index_dir']}", file=sys.stderr)
    serve(cfg["index_dir"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
