"""Locate the checkout's ``src/dmono`` and describe the machine a run used.

The benchmark imports the package from the checkout it lives in, never
from an installed copy, so a run always measures the code beside it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"


class MissingPackage(RuntimeError):
    """The checkout holds no importable ``dmono`` package."""


def import_dmono():
    """Import ``dmono`` from ``<checkout>/src`` and return the package."""
    if not (SRC / "dmono" / "__init__.py").is_file():
        raise MissingPackage(f"no dmono package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dmono

    if Path(dmono.__file__).resolve().parent != SRC / "dmono":
        raise MissingPackage(f"dmono imported from {dmono.__file__}, not from {SRC}")
    return dmono


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(dmono) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": nproc(),
        "platform": platform.platform(),
        "dmono": getattr(dmono, "__version__", "unknown"),
        "commit": git_commit(),
    }
