"""Small shared helpers."""

from __future__ import annotations

import math
import os
from pathlib import Path

KM_S_TO_MM_S = 1e6


def atomic_write_bytes(path: str | Path, chunks) -> Path:
    """Write the iterable of byte ``chunks`` one after another to ``path`` via a temp file
    + rename; a lazy iterable is drawn one chunk at a time as the file is written.

    The temp file sits in the same directory under a fresh random name.  It is
    created with mode 0o666, so the kernel applies the process umask as it does
    for ``open(path, "w")``; the umask itself is never read or changed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """:func:`atomic_write_bytes` of ``text`` encoded as UTF-8."""
    return atomic_write_bytes(path, [text.encode()])


def fmt(x: float | int) -> str:
    """Shortest decimal representation that round-trips the float exactly; an int stays one."""
    return str(x) if isinstance(x, int) else repr(float(x))


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


def key_value_fields(path, lines) -> dict[str, tuple[int, str]]:
    """``{key: (line, value)}`` of the blank-separated ``key=value`` tokens of ``(line, text)``
    items, a leading ``#`` dropped: the database, manifest and calibration-summary fields.
    A key given twice raises ``ValueError`` led by ``<path>:<line>:``."""
    fields: dict[str, tuple[int, str]] = {}
    for ln, text in lines:
        for token in text.lstrip().lstrip("#").split():
            key, _, value = token.partition("=")
            if key in fields:
                raise ValueError(f"{path}:{ln}: header field {key!r} appears twice")
            fields[key] = (ln, value)
    return fields


def positive_field(path, fields: dict[str, tuple[int, str]], key: str, remedy: str, kind=float):
    """``fields[key]`` of :func:`key_value_fields` as a positive finite ``kind``.  A missing key
    raises ``ValueError`` led by ``<path>:`` that ends in ``remedy``; a malformed, non-finite or
    non-positive value one led by ``<path>:<line>: <key>``."""
    if key not in fields:
        raise ValueError(f"{path}: {key!r} is missing; {remedy}")
    ln, text = fields[key]
    if (value := parse_number(text, f"{path}:{ln}: {key}", kind)) <= 0:
        raise ValueError(f"{path}:{ln}: {key} must be positive, got {text!r}")
    return value
