"""One scorer, one ordering: no parameter selects a second search path,
and the frozen tie-break ``(score DESC, doc_id, chunk_id)`` is sorted in
one place, :func:`coderag_ray.query.search.top_k`."""

from __future__ import annotations

import os
import re

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "coderag_ray")
_KNOBS = re.compile(r"\bpreload\s*[=:]|candidate_cap")
# a lexsort whose keys run (chunk ids, ..., -score)
_TIE_BREAK = re.compile(r"lexsort\(\(\s*[\w.\[\]]*chunk[^)]*,\s*-")


def _offenders(pattern: re.Pattern, allowed: set[str] = frozenset()) -> list[str]:
    out = []
    for d, _, files in os.walk(_ROOT):
        for f in files:
            rel = os.path.relpath(os.path.join(d, f), _ROOT)
            if not f.endswith(".py") or rel in allowed:
                continue
            for i, line in enumerate(open(os.path.join(d, f), encoding="utf-8"), 1):
                if pattern.search(line):
                    out.append(f"{rel}:{i}: {line.strip()}")
    return out


def test_no_path_selecting_knobs():
    """Residency is what the reader measures (PRELOAD_MAX_BYTES against
    the manifest's bytes_postings), not a parameter."""
    offenders = _offenders(_KNOBS)
    assert not offenders, "\n".join(offenders)


def test_tie_break_sorted_only_by_top_k():
    offenders = _offenders(_TIE_BREAK)
    assert len(offenders) == 1 and offenders[0].startswith(
        os.path.join("query", "search.py")), "\n".join(offenders)
    assert "rows[np.lexsort(" in offenders[0]  # the body of top_k

