"""Small shared helpers."""

from __future__ import annotations

import math
import os
import tempfile
from pathlib import Path

KM_S_TO_MM_S = 1e6


def atomic_write_bytes(path: str | Path, *chunks) -> Path:
    """Write the byte ``chunks`` one after another to ``path`` via a temp file + rename.

    The temp file sits in the same directory.  The file gets the mode
    ``open(path, "w")`` gives a new file, 0o666 less the process umask
    (``mkstemp`` alone would leave it owner-only).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    return atomic_write_bytes(path, text.encode())


def fmt(x: float) -> str:
    """Shortest decimal representation that round-trips the float exactly."""
    return repr(float(x))


def parse_number(text: str, where: str, kind=float):
    """``kind(text)``; a malformed or non-finite number raises ``ValueError`` led by ``where``.

    The database, manifest and calibration-summary readers parse their numbers
    here; with the pair reader's JSON grammar, no file format admits ``nan`` or
    ``inf``.
    """
    try:
        value = kind(text)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: number must be finite, got {text!r}")
    return value
