"""Filesystem corpus source — the reference's codebase scan re-expressed
as a Ray Data source (``scanFiles`` / ``loadGitignore``,
``/root/reference/packages/core/src/utils.ts:100-230``).

Two phases, like the reference's memory-optimized indexer
(``indexer.ts:437-470``):

1. **metadata walk** (driver): recursive directory listing with the
   reference's default ignore set + ``.gitignore`` patterns and the
   max-file-size stat guard — paths and sizes only, no content.  The
   listing is driver-side metadata (what ``read_binary_files`` does
   internally too); content never touches the driver.
2. **distributed read** (:func:`read_files`, also callable on its own
   with an already-known path list): ``ray.data.read_binary_files``
   over the kept paths → ``map_batches`` decode (UTF-8; undecodable
   files are dropped like the reference's text-file guard) → the
   engine's input-hint schema ``(repo, path, commit, lang, content)``.

The gitignore matcher implements the subset the reference's default
patterns and ordinary ``.gitignore`` files use: comments/blanks,
``!``-negation (last match wins), leading-``/`` anchoring,
trailing-``/`` directory patterns, and ``*``/``?`` globs, matched
against every path suffix segment-prefix like the ``ignore`` npm
package does for unanchored patterns.  Each pattern compiles once to
one regular expression that covers the path and all its parent
directories, so a listing costs one match per pattern per path.
"""

from __future__ import annotations

import fnmatch
import os
import re

import pyarrow as pa

from coderag_ray.functions.language import detect_language, is_text_file

# utils.ts:104-127
DEFAULT_IGNORES = [
    "node_modules", ".git", ".svn", ".hg", ".DS_Store", ".idea", ".vscode",
    "*.suo", "*.ntvs*", "*.njsproj", "*.sln", "*.swp", ".cache", "dist",
    "build", "coverage", ".nyc_output", "*.log", "tmp", "temp", ".coderag",
]
DEFAULT_MAX_FILE_SIZE = 1024 * 1024  # 1 MiB, utils.ts:179
WORKDIR_COMMIT = "workdir"  # the commit label of a working-tree scan


class GitignoreFilter:
    """Ordered gitignore-style matcher (last matching pattern wins)."""

    def __init__(self, patterns: list[str] | None = None):
        rules = []
        for raw in patterns or []:
            p = raw.rstrip()
            if not p or p.startswith("#"):
                continue
            neg = p.startswith("!")
            if neg:
                p = p[1:]
            dir_only = p.endswith("/")
            p = p.rstrip("/")
            anchored = p.startswith("/") or "/" in p
            p = p.lstrip("/")
            if p:
                rules.append(_compile_rule(neg, anchored, dir_only, p))
        self._rules = rules[::-1]  # newest first: the first hit decides

    @classmethod
    def load(cls, root: str, extra_defaults: bool = True) -> "GitignoreFilter":
        pats = list(DEFAULT_IGNORES) if extra_defaults else []
        gi = os.path.join(root, ".gitignore")
        if os.path.isfile(gi):
            with open(gi, encoding="utf-8", errors="replace") as f:
                pats.extend(f.read().splitlines())
        return cls(pats)

    def ignores(self, rel: str, is_dir: bool = False) -> bool:
        """True if ``rel`` (posix relative path) is ignored; checks the
        path itself and every parent directory.  A dir-only pattern
        (``build/``) never matches a plain file named ``build``; files
        underneath are covered through their parent directories."""
        rel = rel.replace(os.sep, "/")
        parent = rel.rpartition("/")[0]
        for neg, dir_only, match, prefix in self._rules:
            # a dir-only rule sees only directories: the parents, and
            # ``rel`` itself when it is one
            if is_dir or not dir_only:
                hit = match(rel) or (prefix is not None and rel.startswith(prefix))
            else:
                hit = parent != "" and (match(rel, 0, len(parent)) or (
                    prefix is not None and parent.startswith(prefix)))
            if hit:
                return not neg
        return False


def _compile_rule(neg: bool, anchored: bool, dir_only: bool, pat: str):
    """One rule as ``(negated, dir_only, match, prefix)``.

    ``match(rel)`` is true iff the glob fully matches ``rel[i:j]`` for a
    segment start ``i`` (only ``0`` when anchored) and a segment end
    ``j``: a segment suffix of ``rel`` or of one of its parent
    directories, the candidates a rule tests.  With ``endpos=len(parent)``
    only the parents count.  An anchored rule also matches a candidate
    that starts with the literal ``pattern/`` (``prefix``).
    """
    glob = fnmatch.translate(pat)  # "(?s:...)" + an end-of-string anchor
    if glob[-2:] not in ("\\Z", "\\z"):
        raise ValueError(f"unexpected fnmatch.translate({pat!r}) = {glob!r}")
    head = "" if anchored else "(?s:.*/)?"
    match = re.compile(f"{head}{glob[:-2]}(?:/|\\Z)").match
    return neg, dir_only, match, pat + "/" if anchored else None


def list_files(root: str, *, max_file_size: int = DEFAULT_MAX_FILE_SIZE,
               use_gitignore: bool = True) -> list[str]:
    """Phase-1 metadata walk: relative paths of text files that pass the
    ignore filter and the size guard (``utils.ts:175-230``)."""
    ig = GitignoreFilter.load(root) if use_gitignore else GitignoreFilter(DEFAULT_IGNORES)
    out: list[str] = []
    for dirpath, dirnames, filenames in os.walk(root):
        rel_dir = os.path.relpath(dirpath, root)
        rel_dir = "" if rel_dir == "." else rel_dir.replace(os.sep, "/")
        dirnames[:] = sorted(
            d for d in dirnames
            if not ig.ignores(f"{rel_dir}/{d}" if rel_dir else d, is_dir=True)
        )
        for name in sorted(filenames):
            rel = f"{rel_dir}/{name}" if rel_dir else name
            if ig.ignores(rel):
                continue
            if not is_text_file(rel):
                continue
            try:
                if os.path.getsize(os.path.join(dirpath, name)) > max_file_size:
                    continue
            except OSError:
                continue
            out.append(rel)
    return out


def scan_directory(root: str, *, repo: str | None = None, commit: str = WORKDIR_COMMIT,
                   max_file_size: int = DEFAULT_MAX_FILE_SIZE,
                   use_gitignore: bool = True):
    """→ Ray Dataset with the engine's input-hint schema
    ``(repo, path, commit, lang, content)`` for a real directory tree.
    Feed straight into :func:`coderag_ray.index.build.build_index`."""
    rels = list_files(root, max_file_size=max_file_size, use_gitignore=use_gitignore)
    return read_files(root, rels, repo=repo, commit=commit)


def read_files(root: str, rels: list[str], *, repo: str | None = None,
               commit: str = WORKDIR_COMMIT):
    """Phase 2 alone: the :func:`scan_directory` Dataset over the given
    relative paths (already listed, e.g. by a watcher's snapshot)."""
    import ray.data

    root = os.path.abspath(root)
    repo = repo or os.path.basename(root)
    if not rels:
        return ray.data.from_arrow(pa.table({
            "repo": pa.array([], type=pa.string()),
            "path": pa.array([], type=pa.string()),
            "commit": pa.array([], type=pa.string()),
            "lang": pa.array([], type=pa.string()),
            "content": pa.array([], type=pa.string()),
        }))
    ds = ray.data.read_binary_files([os.path.join(root, r) for r in rels],
                                    include_paths=True)
    prefix = root.rstrip("/") + "/"

    def decode(t: pa.Table) -> pa.Table:
        repos, paths, commits, langs, contents = [], [], [], [], []
        for raw, full in zip(t["bytes"].to_pylist(), t["path"].to_pylist()):
            try:
                text = raw.decode("utf-8")
            except UnicodeDecodeError:
                continue  # binary content that slipped past the extension guard
            rel = full[len(prefix):] if full.startswith(prefix) else full
            repos.append(repo)
            paths.append(rel)
            commits.append(commit)
            langs.append(detect_language(rel) or "text")
            contents.append(text)
        return pa.table({
            "repo": pa.array(repos, type=pa.string()),
            "path": pa.array(paths, type=pa.string()),
            "commit": pa.array(commits, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "content": pa.array(contents, type=pa.string()),
        })

    return ds.map_batches(decode, batch_format="pyarrow")
