"""Cleanup of scratch directories left behind by crashed builds.

Staging and spill directory names end in the building process's pid, so a
directory whose pid is no longer alive belongs to a build that died
before its own cleanup could run (e.g. SIGKILL)."""

from __future__ import annotations

import os
import re
import shutil


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False


def sweep_stale_staging(parent: str, prefix: str) -> None:
    """Remove ``parent/<prefix>...<pid>`` directories whose pid is no
    longer alive — a live concurrent build's directory is left alone
    (sweeping by prefix alone raced concurrent builds and could promote
    a half-deleted layout), and so is any name without a trailing pid."""
    try:
        names = os.listdir(parent)
    except OSError:
        return
    for name in names:
        m = re.search(r"(\d+)$", name) if name.startswith(prefix) else None
        if m and not pid_alive(int(m.group(1))):
            shutil.rmtree(os.path.join(parent, name), ignore_errors=True)
