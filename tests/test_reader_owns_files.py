"""One way to a chunk's data on the query side: only
:class:`coderag_ray.index.reader.IndexReader` opens a partition's
``docs``, ``chunks`` or ``postings`` file; the search layer, the MCP
server and the CLI go through the reader's ordinal-indexed doc store,
``chunk_contents`` and ``term_postings``."""

from __future__ import annotations

import os
import re

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "coderag_ray")
_PARTITION_FILE = re.compile(r"\b(docs|chunks|postings)\.parquet\b")
_QUERY_SIDE = ["query", "mcp_server.py", "cli.py"]


def test_query_side_names_no_partition_file():
    files = []
    for entry in _QUERY_SIDE:
        path = os.path.join(_ROOT, entry)
        if os.path.isdir(path):
            files += [os.path.join(path, f) for f in sorted(os.listdir(path)) if f.endswith(".py")]
        else:
            files.append(path)
    offenders = [
        f"{os.path.relpath(f, _ROOT)}:{i}: {line.strip()}"
        for f in files
        for i, line in enumerate(open(f, encoding="utf-8"), 1)
        if _PARTITION_FILE.search(line)
    ]
    assert len(files) > 2 and not offenders, "\n".join(offenders)
