"""Prototype-based conditional-average regression (a general regression neural network).

A prototype database stores vectors split into an observed part ``given``
and a hidden part ``hidden``.  Estimation completes a truncated observation
by averaging the stored hidden parts with normalized Gaussian basis weights
centred on the stored given parts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .util import atomic_write_text, fmt, key_value_fields, parse_number

def compute_sigmas(given) -> np.ndarray:
    """Per-prototype smoothing width: half the distance to the nearest distinct neighbor.

    Exact duplicates never count as neighbors; a prototype whose every
    neighbor is a duplicate is an error.
    """
    g = _as_columns(given)
    if len(g) < 2:
        raise ValueError("sigma undefined for a single prototype; supply sigma explicitly")
    diff = g[:, np.newaxis] - g[np.newaxis]
    dist = np.sqrt((diff * diff).sum(axis=2))
    dist[dist == 0.0] = np.inf  # a prototype itself and its duplicates are no neighbors
    nearest = dist.min(axis=1)
    if (alone := np.flatnonzero(~np.isfinite(nearest))).size:
        raise ValueError(f"prototype {alone[0]} has no distinct neighbor (duplicated given "
                         "vector); sigma undefined")
    return 0.5 * nearest


def _as_columns(arr) -> np.ndarray:
    """Coerce per-prototype data to shape (N, dim); 1-D input is one component per prototype.

    Always copies so freezing the result never freezes caller-owned arrays.
    """
    a = np.array(arr, dtype=np.float64, copy=True)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ValueError(f"expected 1-D or 2-D prototype data, got shape {a.shape}")
    return a


@dataclass(frozen=True, eq=False)
class PrototypeSet:
    """Immutable database of (given, hidden) prototype vectors with per-prototype sigmas.

    Extending the database means building a new set from concatenated data.
    """

    given: np.ndarray   # (N, S)
    hidden: np.ndarray  # (N, D)
    sigmas: np.ndarray  # (N,)
    header: dict = field(default_factory=dict)  # the file's key=value fields as text; read-only

    def __post_init__(self) -> None:
        given = _as_columns(self.given)
        hidden = _as_columns(self.hidden)
        sigmas = np.array(self.sigmas, dtype=np.float64, copy=True).reshape(-1)
        if given.shape[0] < 1:
            raise ValueError("prototype set needs at least one prototype")
        if hidden.shape[0] != given.shape[0]:
            raise ValueError("given and hidden must hold the same number of prototypes")
        if sigmas.shape[0] != given.shape[0]:
            raise ValueError("one sigma per prototype required")
        if not (np.all(np.isfinite(given)) and np.all(np.isfinite(hidden))):
            raise ValueError("prototype components must be finite")
        if not np.all(sigmas > 0.0):
            raise ValueError("all sigmas must be positive")
        for name, arr in (("given", given), ("hidden", hidden), ("sigmas", sigmas)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "header", MappingProxyType(dict(self.header)))

    def __len__(self) -> int:
        return int(self.given.shape[0])

    @property
    def given_dim(self) -> int:
        return int(self.given.shape[1])

    @property
    def hidden_dim(self) -> int:
        return int(self.hidden.shape[1])

    @classmethod
    def from_data(cls, given, hidden, header=None) -> "PrototypeSet":
        """Build a set whose sigmas follow the half-nearest-neighbor rule."""
        return cls(given, hidden, compute_sigmas(given), header or {})


@dataclass(frozen=True, eq=False)
class Estimate:
    """Completed hidden vector with the basis weights that produced it."""

    hidden: np.ndarray
    weights: np.ndarray
    extrapolated: bool  # set when every kernel underflowed and nearest-neighbor fallback fired


def _query_vector(pset: PrototypeSet, query) -> np.ndarray:
    q = np.asarray(query, dtype=np.float64).reshape(-1)
    if q.size != pset.given_dim:
        raise ValueError(f"query has dimension {q.size}, prototypes have {pset.given_dim}")
    if not np.all(np.isfinite(q)):
        raise ValueError("query components must be finite")
    return q


def basis_weights(pset: PrototypeSet, query) -> tuple[np.ndarray, bool]:
    """Normalized Gaussian basis weights of the query against every prototype.

    Each kernel uses its own prototype's sigma in both the numerator and the
    normalizing sum.  If the query is so far from all prototypes that every
    kernel underflows to zero, falls back to a one-hot weight on the nearest
    prototype (lowest index on ties) and reports the fallback.
    """
    q = _query_vector(pset, query)
    diff = pset.given - q
    with np.errstate(over="ignore", under="ignore"):
        d2 = (diff * diff).sum(axis=1)
        raw = np.exp(-d2 / (2.0 * pset.sigmas * pset.sigmas))
        total = raw.sum()
        if total <= 0.0 or not np.isfinite(total):
            # d2 may have overflowed to inf everywhere; in units of the largest
            # |diff| the squared distances stay finite and keep their order
            scaled = diff / np.abs(diff).max()
            weights = np.zeros(len(pset))
            weights[int(np.argmin((scaled * scaled).sum(axis=1)))] = 1.0
            return weights, True
    return raw / total, False


def estimate(pset: PrototypeSet, query) -> Estimate:
    """Complete the hidden part of a truncated observation by conditional averaging."""
    weights, fell_back = basis_weights(pset, query)
    hidden = weights @ pset.hidden
    return Estimate(hidden=hidden, weights=weights, extrapolated=fell_back)


_DB_HEADER = re.compile(r"^#\s*given_dim=\d+\s+hidden_dim=\d+(?:\s+\w+=\S+)*\s*$")


def save_prototypes(path: str | Path, pset: PrototypeSet) -> Path:
    """Write the database as delimited text: floats round-trip exactly, header text verbatim."""
    for key, text in pset.header.items():  # one _DB_HEADER token: a word, "=", no blank
        if key in ("given_dim", "hidden_dim") or not (
            isinstance(text, str) and re.fullmatch(r"\w+=\S+", f"{key}={text}")
        ):
            raise ValueError(f"{path}: header field {key}={text!r} would not read back")
    head = dict(given_dim=pset.given_dim, hidden_dim=pset.hidden_dim, **pset.header)
    lines = ["# " + " ".join(f"{k}={v}" for k, v in head.items())]
    rows = np.column_stack([pset.given, pset.hidden, pset.sigmas])
    lines += [",".join(map(fmt, row)) for row in rows]
    return atomic_write_text(path, "\n".join(lines) + "\n")


def load_prototypes(path: str | Path) -> PrototypeSet:
    """The database at ``path``; every header field but the two dimensions stays its text."""
    path = Path(path)
    with open(path) as fh:
        if not _DB_HEADER.match(first := fh.readline()):
            raise ValueError(f"{path}: first line must be '# given_dim=S hidden_dim=D ...'")
        fields = key_value_fields(path, [(1, first)])
        s_dim, d_dim = (int(fields.pop(key)[1]) for key in ("given_dim", "hidden_dim"))
        header = {key: text for key, (_, text) in fields.items()}
        rows = []
        for ln, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != s_dim + d_dim + 1:
                raise ValueError(
                    f"{path}:{ln}: expected {s_dim + d_dim + 1} fields, got {len(fields)}"
                )
            rows.append([parse_number(x, f"{path}:{ln}") for x in fields])
            if not rows[-1][-1] > 0.0:
                raise ValueError(
                    f"{path}:{ln}: sigma must be positive, got {fields[-1].strip()!r}"
                )
    if not rows:
        raise ValueError(f"{path}: database holds no prototypes")
    data = np.asarray(rows, dtype=np.float64)
    return PrototypeSet(
        given=data[:, :s_dim],
        hidden=data[:, s_dim : s_dim + d_dim],
        sigmas=data[:, -1],
        header=header,
    )
