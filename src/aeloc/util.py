"""Small shared helpers."""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

KM_S_TO_MM_S = 1e6


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via a temp file + rename in the same directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def fmt(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def parse_number(text: str, where: str, kind=float):
    """``kind(text)``; a malformed number raises ``ValueError`` prefixed with ``where``."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None

