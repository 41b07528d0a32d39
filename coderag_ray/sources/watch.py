"""Live incremental indexing — ST7, the reference's file watcher
(``/root/reference/packages/core/src/indexer.ts:708-766`` ``startWatch``
+ ``:840-860`` ``handleFileChange``).

The reference subscribes to native FS events (@parcel/watcher) and
debounces each path for 500 ms before re-indexing it.  No native
watcher library exists in this container, so change DETECTION here is a
polling mtime/size snapshot diff over the gitignore-filtered tree;
everything downstream reproduces the reference's semantics:

- per-path debounce (default 500 ms, ``indexer.ts:855``): a path's
  timer resets on every further change, so a burst of writes triggers
  one refresh after the burst settles;
- adds / changes / deletes settled in one poll funnel into ONE
  incremental ``build_index`` — the reference's per-file
  add/update/remove collapsed into the partition-checkpoint model.  A
  doc's partition follows from its path alone
  (``part_id = splitmix64(stable_doc_id(repo, path, "workdir")) % P``),
  so the settled paths name the dirty partitions without a byte read:
  the refresh reads only the snapshot's files in those partitions
  (deleted paths dirty their partition and are not read) and rebuilds
  just them, with no fingerprint pass over the tree;
- the watcher's first refresh (the index may predate its snapshot), an
  index without a usable manifest (none, or another config or
  ``SCHEMA_VERSION``) and a clean partition missing on disk fall back
  to a full directory scan, where the manifest's content fingerprints
  find the dirty partitions (J5–J7);
- the ignore filter is the same gitignore loader the scan uses, so an
  ignored file's churn never schedules work.

The clock is injectable so tests drive debounce deterministically
without sleeping; ``start()``/``stop()`` run the poll loop in a daemon
thread for real use.
"""

from __future__ import annotations

import os
import threading
import time

from coderag_ray.config import IndexConfig
from coderag_ray.sources.files import DEFAULT_MAX_FILE_SIZE, WORKDIR_COMMIT, list_files
from coderag_ray.stages.ingest import doc_ids, part_ids


class DirectoryWatcher:
    """Debounced polling watcher driving incremental index refreshes."""

    def __init__(self, root: str, index_dir: str,
                 config: IndexConfig | None = None, *,
                 debounce_s: float = 0.5, poll_interval_s: float = 0.25,
                 max_file_size: int = DEFAULT_MAX_FILE_SIZE,
                 use_gitignore: bool = True,
                 clock=time.monotonic):
        self.root = os.path.abspath(root)
        self.repo = os.path.basename(self.root)  # scan_directory's default
        self.index_dir = index_dir
        self.config = config or IndexConfig()
        self.debounce_s = debounce_s
        self.poll_interval_s = poll_interval_s
        self.max_file_size = max_file_size
        self.use_gitignore = use_gitignore
        self._clock = clock
        self._snapshot = self._take_snapshot()
        self._pending: dict[str, float] = {}  # rel path → last-change time
        self._settled: list[str] = []  # paths the running refresh picks up
        self.refreshes = 0  # incremental builds triggered (observable)
        self._consecutive_failures = 0  # failed refreshes since last success
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- change detection -------------------------------------------------

    def _take_snapshot(self) -> dict[str, tuple[int, int]]:
        """{rel path: (size, mtime_ns)} of every indexable file."""
        out: dict[str, tuple[int, int]] = {}
        for rel in list_files(self.root, max_file_size=self.max_file_size,
                              use_gitignore=self.use_gitignore):
            try:
                st = os.stat(os.path.join(self.root, rel))
            except OSError:
                continue  # raced with a delete — next poll sees it gone
            out[rel] = (st.st_size, st.st_mtime_ns)
        return out

    def poll(self) -> list[str]:
        """One detection pass: diff the tree snapshot, (re)arm per-path
        debounce timers, and fire ONE incremental refresh for every
        SETTLED path (per-path timers, like the reference — a
        continuously-churning file must not starve other files'
        re-indexing).  Returns the paths that refreshed (empty while
        debouncing or idle).  If the refresh build fails, the settled
        paths stay pending and are retried on the next poll instead of
        being silently dropped."""
        now = self._clock()
        cur = self._take_snapshot()
        changed = [p for p, sig in cur.items() if self._snapshot.get(p) != sig]
        changed += [p for p in self._snapshot if p not in cur]  # deletions
        for p in changed:
            self._pending[p] = now  # reset the path's debounce timer
        self._snapshot = cur
        settled = sorted(p for p, t in self._pending.items()
                         if now - t >= self.debounce_s)
        if not settled:
            return []
        self._settled = settled
        try:
            self._refresh()
        except Exception:
            # keep `settled` pending (retried next poll) but NEVER
            # silently: log each failure and back off exponentially
            # after repeats so a persistently broken build (bad config,
            # disk full) is observable instead of a hot retry loop
            import logging

            self._consecutive_failures += 1
            logging.getLogger(__name__).warning(
                "watch refresh failed (%d consecutive)",
                self._consecutive_failures, exc_info=True)
            backoff = min(2.0 ** self._consecutive_failures, 60.0)
            for p in settled:
                self._pending[p] = now + backoff - self.debounce_s
            return []
        finally:
            self._settled = []
        self._consecutive_failures = 0
        for p in settled:
            self._pending.pop(p, None)
        return settled

    def _refresh(self) -> None:
        from coderag_ray.index.build import build_index
        from coderag_ray.sources.files import read_files, scan_directory

        dirty = self._dirty_partitions()
        if dirty is None:
            ds = scan_directory(self.root, repo=self.repo, commit=WORKDIR_COMMIT,
                                max_file_size=self.max_file_size,
                                use_gitignore=self.use_gitignore)
        else:
            # a partition is rebuilt whole: read every snapshot file in it
            paths = sorted(self._snapshot)
            ds = read_files(self.root, [p for p, part in zip(paths, self._partitions(paths))
                                        if part in dirty],
                            repo=self.repo, commit=WORKDIR_COMMIT)
        build_index(ds, self.index_dir, self.config, resume=True, dirty=dirty)
        self.refreshes += 1

    def _dirty_partitions(self) -> frozenset[int] | None:
        """The partitions of the settled paths, or None when only a full
        scan brings the index up to date: no settled paths (a direct
        call), this watcher's first refresh (the index may predate its
        snapshot), or an index that :func:`can_rebuild_only` rejects."""
        from coderag_ray.index.build import can_rebuild_only

        if self.refreshes == 0 or not self._settled:
            return None
        dirty = frozenset(self._partitions(self._settled))
        return dirty if can_rebuild_only(self.index_dir, self.config, dirty) else None

    def _partitions(self, paths: list[str]) -> list[int]:
        """Index partition of each path, routed as ingest routes its doc."""
        n = len(paths)
        return part_ids(doc_ids([self.repo] * n, paths, [WORKDIR_COMMIT] * n),
                        self.config.num_partitions).to_pylist()

    # -- background loop --------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.poll()
                self._stop.wait(self.poll_interval_s)

        self._thread = threading.Thread(target=loop, daemon=True,
                                        name="coderag-watch")
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=10)
        self._thread = None
