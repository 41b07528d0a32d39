"""Filesystem source tests — gitignore semantics (utils.ts:100-170),
scan filtering (utils.ts:175-230), and a real directory → build_index
round trip."""

import os

from coderag_ray.sources.files import (
    DEFAULT_MAX_FILE_SIZE,
    GitignoreFilter,
    list_files,
    scan_directory,
)


def test_gitignore_default_patterns():
    ig = GitignoreFilter.load("/nonexistent-dir-no-gitignore")
    assert ig.ignores("node_modules/pkg/index.js")
    assert ig.ignores("src/node_modules/x.js")  # unanchored matches any segment
    assert ig.ignores(".git/config")
    assert ig.ignores("deep/dist/bundle.js")
    assert ig.ignores("server.log")  # *.log glob
    assert not ig.ignores("src/main.ts")
    assert not ig.ignores("distance.py")  # 'dist' must not match a prefix


def test_gitignore_negation_anchor_dironly(tmp_path):
    (tmp_path / ".gitignore").write_text(
        "# comment\n\n*.secret\n!keep.secret\n/rootonly.txt\ndocs/\n")
    ig = GitignoreFilter.load(str(tmp_path))
    assert ig.ignores("a/b/x.secret")
    assert not ig.ignores("a/keep.secret")  # negation, last match wins
    assert ig.ignores("rootonly.txt")
    assert ig.ignores("docs/guide.md")  # files under an ignored dir
    assert not ig.ignores("src/docs.md")


def test_gitignore_negation_and_dir_only_edges():
    ig = GitignoreFilter(["*.gen.ts", "!keep.gen.ts", "keep.gen.ts", "out/",
                          "!out/", "/cache/", "logs/*.txt", "!logs/important.txt"])
    assert ig.ignores("a/b.gen.ts")
    assert ig.ignores("keep.gen.ts")  # re-ignored by a later rule
    assert not ig.ignores("out/x.py")  # a later negation un-ignores the dir
    assert ig.ignores("cache/x.py") and ig.ignores("cache", is_dir=True)
    assert not ig.ignores("cache")  # dir-only: a plain file named cache
    assert not ig.ignores("src/cache/x.py")  # anchored to the root
    assert ig.ignores("logs/a.txt") and not ig.ignores("logs/important.txt")
    assert not ig.ignores("sub/logs/a.txt")  # a pattern with a slash is anchored

    ig = GitignoreFilter(["build/", "tmp*/", "!*.keep"])
    assert not ig.ignores("build")  # file named like a dir-only pattern
    assert ig.ignores("build", is_dir=True)
    assert ig.ignores("src/build/out.js")  # unanchored dir-only at any depth
    assert ig.ignores("tmp1/x.py") and not ig.ignores("tmp1")
    assert not ig.ignores("a/x.keep")
    assert not ig.ignores("x.py") and not ig.ignores("a/b", is_dir=True)

    # an anchored pattern also ignores what sits under its literal text
    ig = GitignoreFilter(["/[ab]"])
    assert ig.ignores("[ab]/x.py") and ig.ignores("a/x.py")
    assert not ig.ignores("[ab].py")


def _reference_ignores(patterns, rel, is_dir):
    """The matcher's semantics spelled out with ``fnmatch`` over every
    candidate (``rel`` and each parent directory) and every segment
    suffix: slow, but each rule reads as its definition."""
    import fnmatch

    parts = rel.split("/")
    candidates = [(rel, is_dir)] + [("/".join(parts[:i]), True) for i in range(1, len(parts))]
    verdict = False
    for raw in patterns:
        p = raw.rstrip()
        if not p or p.startswith("#"):
            continue
        neg = p.startswith("!")
        p = p[1:] if neg else p
        dir_only = p.endswith("/")
        p = p.rstrip("/")
        anchored = p.startswith("/") or "/" in p
        p = p.lstrip("/")
        if not p:
            continue
        for c, d in candidates:
            if dir_only and not d:
                continue
            if anchored:
                hit = fnmatch.fnmatch(c, p) or c.startswith(p + "/")
            else:
                segs = c.split("/")
                hit = any(fnmatch.fnmatch("/".join(segs[i:]), p) or fnmatch.fnmatch(segs[i], p)
                          for i in range(len(segs)))
            if hit:
                verdict = not neg
                break
    return verdict


def test_gitignore_matches_reference_semantics():
    import random

    rng = random.Random(7)
    atoms = ["a", "b", "ab", "x.py", "*", "?", "[ab]", "*.py", "a*", "*b",
             "dist", ".git", "a?", "[!a]*"]
    segs = ["a", "b", "ab", "x.py", "y.log", "dist", ".git", "a.b", "ba", "aa", "[ab]", "*"]
    for _ in range(400):
        pats = []
        for _ in range(rng.choice([1, 2, 3, 5])):
            p = "/".join(rng.choice(atoms) for _ in range(rng.choice([1, 1, 2, 3])))
            p = ("/" if rng.random() < 0.3 else "") + p + ("/" if rng.random() < 0.3 else "")
            pats.append(("!" if rng.random() < 0.2 else "") + p)
        ig = GitignoreFilter(pats)
        for _ in range(20):
            rel = "/".join(rng.choice(segs) for _ in range(rng.choice([1, 2, 3, 4])))
            is_dir = rng.random() < 0.5
            assert ig.ignores(rel, is_dir) == _reference_ignores(pats, rel, is_dir), \
                (pats, rel, is_dir)


def _make_tree(root):
    os.makedirs(root / "src", exist_ok=True)
    os.makedirs(root / "node_modules" / "dep", exist_ok=True)
    os.makedirs(root / "private", exist_ok=True)
    (root / ".gitignore").write_text("private/\n")
    (root / "src" / "main.py").write_text("def main():\n    return 1\n")
    (root / "src" / "util.ts").write_text("export const x = 1;\n")
    (root / "node_modules" / "dep" / "x.js").write_text("ignored")
    (root / "private" / "secret.py").write_text("nope")
    (root / "image.png").write_bytes(b"\x89PNG binary")
    (root / "big.txt").write_text("x" * (DEFAULT_MAX_FILE_SIZE + 1))
    (root / "notes.md").write_text("# hello notes\n")


def test_list_files_filters(tmp_path):
    _make_tree(tmp_path)
    rels = list_files(str(tmp_path))
    assert "src/main.py" in rels and "src/util.ts" in rels and "notes.md" in rels
    assert not any("node_modules" in r for r in rels)  # default ignore
    assert not any(r.startswith("private/") for r in rels)  # .gitignore
    assert "image.png" not in rels  # not a text extension
    assert "big.txt" not in rels  # size guard


def test_scan_directory_schema_and_build(ray_session, tmp_path):
    from coderag_ray.config import IndexConfig
    from coderag_ray.index.build import build_index
    from coderag_ray.index.reader import IndexReader
    from coderag_ray.query.search import search

    _make_tree(tmp_path)
    ds = scan_directory(str(tmp_path), repo="myrepo", commit="c0")
    pdf = ds.to_pandas()
    assert set(pdf.columns) == {"repo", "path", "commit", "lang", "content"}
    assert set(pdf.path) == {"src/main.py", "src/util.ts", "notes.md"}
    assert (pdf.repo == "myrepo").all()
    assert pdf.set_index("path").loc["src/main.py", "lang"] == "Python"

    idx = str(tmp_path / "idx")
    report = build_index(scan_directory(str(tmp_path), repo="myrepo"), idx,
                         IndexConfig(tokenizer="code", num_partitions=2))
    assert report.n_docs == 3
    res = search(IndexReader(idx), "main return", 5)
    assert res.num_rows > 0
    assert "src/main.py" in res["path"].to_pylist()


def test_write_partitioned_resumable_and_deterministic(ray_session, tmp_path):
    import hashlib
    import os
    import shutil

    import ray.data

    from coderag_ray.sources.sink import read_partitioned, write_partitioned

    import pyarrow as pa

    tbl = pa.table({
        "doc_id": pa.array(list(range(500)), type=pa.int64()),
        "text": [f"doc {i} payload" for i in range(500)],
    })
    out = str(tmp_path / "sink")
    s1 = write_partitioned(ray.data.from_arrow(tbl), out, "doc_id",
                           num_partitions=8).to_pandas()
    assert not s1.skipped.any()
    assert s1.n_rows.sum() == 500

    def file_hashes():
        return {
            f"{d}/{f}": hashlib.sha256(
                open(os.path.join(out, d, f), "rb").read()).hexdigest()
            for d in sorted(os.listdir(out)) if d.startswith("part=")
            for f in sorted(os.listdir(os.path.join(out, d))) if f.endswith(".parquet")
        }

    h1 = file_hashes()
    # re-run: every partition skipped, files untouched
    s2 = write_partitioned(ray.data.from_arrow(tbl), out, "doc_id",
                           num_partitions=8).to_pandas()
    assert s2.skipped.all()
    assert file_hashes() == h1
    # delete one partition → only that one rewritten, byte-identical
    victim = sorted(d for d in os.listdir(out) if d.startswith("part="))[3]
    shutil.rmtree(os.path.join(out, victim))
    s3 = write_partitioned(ray.data.from_arrow(tbl), out, "doc_id",
                           num_partitions=8).to_pandas()
    assert s3.skipped.sum() == len(s3) - 1
    assert file_hashes() == h1
    # round trip
    back = read_partitioned(out).to_pandas().sort_values("doc_id")
    assert back.doc_id.tolist() == list(range(500))


def test_cli_scan_and_search_real_directory(tmp_path):
    """CLI 'scan' indexes a real tree end to end — in a subprocess, like
    the other CLI tests (the command owns its Ray session and calls
    ray.shutdown(), which must not kill the pytest session)."""
    import json as _json
    import subprocess
    import sys

    _make_tree(tmp_path)
    idx = str(tmp_path / "cliidx")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "coderag_ray.cli", *args],
            capture_output=True, text=True, cwd="/root/repo", timeout=300,
            env={**__import__("os").environ, "PYTHONPATH": "/root/repo"},
        )

    r = run("scan", str(tmp_path), idx, "--partitions", "2")
    assert r.returncode == 0, r.stderr[-500:]
    assert _json.loads(r.stdout.strip().splitlines()[-1])["n_docs"] == 3
    r = run("search", idx, "main return", "-k", "5", "--json")
    assert r.returncode == 0, r.stderr[-500:]
    rows = _json.loads(r.stdout.strip().splitlines()[-1])
    assert any(row["path"] == "src/main.py" for row in rows)


def test_corpus_from_jsonl_and_csv_index_end_to_end(ray_session, tmp_path):
    """JSONL / CSV document dumps build the same index as the parquet
    source for identical rows (interchange-source parity)."""
    import json

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import (
        corpus_from_csv, corpus_from_documents, corpus_from_jsonl)
    from coderag_ray.index.build import build_index
    from coderag_ray.query.search import search

    rows = [
        {"doc_id": i, "text": f"alpha beta gamma token{i} " * 6,
         "lang": "text", "source": "s"}
        for i in range(40)
    ]
    # jsonl
    jd = tmp_path / "jsonl"; jd.mkdir()
    with open(jd / "part0.jsonl", "w") as f:
        for r in rows:
            f.write(json.dumps(r) + "\n")
    # csv (no optional columns → defaults fill in)
    cd = tmp_path / "csv"; cd.mkdir()
    with open(cd / "docs.csv", "w") as f:
        f.write("doc_id,text\n")
        for r in rows:
            f.write(f"{r['doc_id']},\"{r['text']}\"\n")
    # parquet documents table (the existing source)
    pd_dir = tmp_path / "pq"; pd_dir.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array([r["doc_id"] for r in rows], type=pa.int64()),
        "text": pa.array([r["text"] for r in rows]),
        "lang": pa.array([r["lang"] for r in rows]),
        "source": pa.array([r["source"] for r in rows]),
        "n_chars": pa.array([len(r["text"]) for r in rows], type=pa.int64()),
    }), str(pd_dir / "documents.parquet"))

    cfg = IndexConfig(num_partitions=2)
    out = {}
    for name, ds in (("jsonl", corpus_from_jsonl(str(jd))),
                     ("csv", corpus_from_csv(str(cd))),
                     ("parquet", corpus_from_documents(str(pd_dir)))):
        idx = str(tmp_path / f"idx_{name}")
        build_index(ds, idx, cfg)
        res = search(idx, "token7 alpha", 5, with_doc_columns=False)
        out[name] = res.select(["doc_id", "chunk_id", "score"]).to_pylist()
    assert out["jsonl"] == out["parquet"]
    # csv source lacks lang/source columns → same content, same ranking
    assert [r["doc_id"] for r in out["csv"]] == [r["doc_id"] for r in out["parquet"]]
    assert [round(r["score"], 6) for r in out["csv"]] == \
           [round(r["score"], 6) for r in out["parquet"]]
