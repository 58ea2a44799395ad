"""LibSVM-format parsing and dataset statistics.

The on-disk convention is the standard LibSVM text format for binary
classification: one sample per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing feature indices and labels in {+1, -1}.  In memory the
indices are 0-based and rows live in a CSR matrix.  Files ending in ``.gz``
are transparently decompressed.  Parsing is strict: malformed input raises
:class:`DataFormatError` with the offending line number rather than being
silently skipped.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp


class DataFormatError(ValueError):
    """Raised for malformed LibSVM input; carries the 1-based line number."""

    def __init__(self, line_no: Optional[int], detail: str):
        self.line_no = line_no
        self.detail = detail
        where = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{where}{detail}")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sparse labeled samples: labels in {-1, +1}, features in CSR layout."""

    X: sp.csr_matrix
    labels: np.ndarray
    n: int = field(default=0)
    dim: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.X.shape[0]))
        object.__setattr__(self, "dim", int(self.X.shape[1]))
        if self.n == 0:
            raise DataFormatError(None, "empty dataset")
        if self.labels.shape != (self.n,):
            raise DataFormatError(None, "label count does not match sample count")
        if not np.isin(self.labels, (-1.0, 1.0)).all():
            raise DataFormatError(None, "labels must be +1 or -1")

    def __eq__(self, other):
        if not isinstance(other, Dataset):
            return NotImplemented
        parts = [(d.labels, d.X.indptr, d.X.indices, d.X.data)
                 for d in (self, other)]
        return (self.n, self.dim) == (other.n, other.dim) and all(
            np.array_equal(a, b) for a, b in zip(*parts))

    def content_hash(self) -> str:
        """Hex digest of the structural content (labels, indices, values, shape)."""
        h = hashlib.sha256()
        h.update(f"{self.n},{self.dim};".encode())
        h.update(self.labels.astype(np.float64).tobytes())
        h.update(self.X.indptr.astype(np.int64).tobytes())
        h.update(self.X.indices.astype(np.int64).tobytes())
        h.update(self.X.data.astype(np.float64).tobytes())
        return h.hexdigest()


class DatasetStats(NamedTuple):
    n: int
    dim: int
    max_row_norm_sq: float
    mean_row_norm_sq: float


# The parser reads about this many bytes of whole lines at a time, so its
# scratch arrays do not grow with the file.
_SLICE_BYTES = 1 << 18
# 0-based column indices are stored as int32.
_INDEX_LIMIT = 2 ** 31
# Longer index tokens (leading zeros, say) take the per-line path.
_INDEX_DIGITS = 10
# Every integer of at most 15 decimal digits is exact in float64.
_VALUE_DIGITS = 15
# The ASCII bytes that str.split() and str.strip() treat as whitespace.
_WHITESPACE = np.zeros(256, dtype=bool)
_WHITESPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


class _Rows(NamedTuple):
    """The rows of one slice: labels, feature counts, 1-based indices, values,
    and the first ``(line_no, index)`` whose index exceeds ``_INDEX_LIMIT``."""

    labels: np.ndarray
    counts: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    too_big: Optional[Tuple[int, int]]


def parse_libsvm(source, declared_dim: Optional[int] = None) -> Dataset:
    """Parse LibSVM text into a Dataset.

    ``source`` may be a str/bytes blob or a text/binary file object.  When
    ``declared_dim`` is given it fixes the feature dimension and any larger
    index is an error; otherwise the dimension is the largest index seen.
    Blank lines are skipped and ``#`` starts a comment.  A str or bytes blob
    splits into lines at ``\\n`` only; a binary file object uses universal
    newlines (``\\r``, ``\\r\\n`` and ``\\n`` each end a line); a text
    file object yields its own lines.  Bytes are UTF-8.
    """
    if declared_dim is not None and declared_dim < 1:
        raise DataFormatError(None, f"declared dimension must be positive, got {declared_dim}")
    read, universal, errors = _reader(source)

    labels, counts, indices, values = [], [], [], []
    line0, max_idx, too_big = 0, 0, None
    for buf in _slices(read, universal):
        rows = _parse_slice(buf, line0, declared_dim, errors)
        line0 += buf.count(b"\n")
        labels.append(rows.labels)
        counts.append(rows.counts)
        indices.append((rows.indices - 1).astype(np.int32))
        values.append(rows.values)
        if rows.indices.size:
            max_idx = max(max_idx, int(rows.indices.max()))
        too_big = too_big or rows.too_big

    n = sum(len(part) for part in labels)
    if not n:
        raise DataFormatError(None, "empty dataset")
    if too_big is not None:
        raise DataFormatError(
            too_big[0], f"feature index {too_big[1]} exceeds {_INDEX_LIMIT}, "
                        f"the largest index int32 columns can hold")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    dim = declared_dim if declared_dim is not None else max_idx
    x = sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                      shape=(n, dim))
    return Dataset(X=x, labels=np.concatenate(labels))


def _reader(source):
    """``(read, universal newlines, UTF-8 error handler)`` for a source.  A
    str is encoded with ``surrogatepass`` so that every str round-trips."""
    if isinstance(source, bytes):
        return io.BytesIO(source).read, False, "strict"
    if isinstance(source, str):
        blob = source.encode("utf-8", "surrogatepass")
        return io.BytesIO(blob).read, False, "surrogatepass"
    if hasattr(source, "read"):
        first = source.read(0)
        if isinstance(first, bytes):
            return source.read, True, "strict"
        # one line per line the object yields; a newline inside one of them
        # (possible with newline="\r") is whitespace, as str.split() sees it
        text = "".join(line.removesuffix("\n").replace("\n", " ") + "\n"
                       for line in source)
        return io.BytesIO(text.encode("utf-8", "surrogatepass")).read, False, "surrogatepass"
    raise TypeError(f"unsupported source type {type(source)!r}")


def _slices(read, universal: bool):
    """Yield the stream in slices of whole lines, about ``_SLICE_BYTES`` each.
    With ``universal``, a lone ``\\r`` or ``\\r\\n`` ends a line and is
    rewritten to ``\\n``; a ``\\r`` that ends a read waits for the next one."""
    pending = []  # reads since the last line end
    while True:
        chunk = read(_SLICE_BYTES)
        if not chunk:
            break
        cut = chunk.rfind(b"\n")
        if universal:
            cut = max(cut, chunk.rfind(b"\r", 0, len(chunk) - 1))
        if cut < 0:
            pending.append(chunk)
            continue
        yield _newlines(b"".join(pending) + chunk[:cut + 1], universal)
        pending = [chunk[cut + 1:]]
    rest = b"".join(pending)
    if rest:
        yield _newlines(rest, universal)


def _newlines(buf: bytes, universal: bool) -> bytes:
    if universal and b"\r" in buf:
        return buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return buf


def _parse_slice(buf: bytes, line0: int, declared_dim, errors: str) -> _Rows:
    """Parse whole lines (``buf``'s first line is line ``line0 + 1``).

    Array predicates accept the lines made of ASCII, an exact ``+1``/``1``/
    ``-1`` label and ``digits:value`` features whose indices are in range and
    strictly increase.  Short digit-only values are decoded here; any other
    value goes through ``float()``.  Every other line, in order, goes through
    ``_parse_line``, which accepts it or raises its error.
    """
    b = np.frombuffer(buf, dtype=np.uint8)
    size = b.size
    nl = np.flatnonzero(b == 10)
    text = b > 32
    if np.count_nonzero(b < 32) != nl.size:  # control bytes besides \n
        text = ~_WHITESPACE[b]
    if b"#" in buf:
        text &= ~_comments(b, nl)
    edges = np.zeros(size + 2, dtype=bool)
    edges[1:-1] = text
    edges = np.flatnonzero(edges[1:] != edges[:-1])
    starts, stops = edges[0::2], edges[1::2]
    first_tok = np.searchsorted(starts, np.append(0, nl + 1))  # of each line
    line = np.repeat(np.arange(first_tok.size), np.diff(first_tok, append=starts.size))
    first = _run_starts(line)
    bad = np.zeros(nl.size + 1, dtype=bool)  # lines for the per-line path
    if size and b.max() >= 128:
        bad[np.searchsorted(nl, np.flatnonzero(b >= 128))] = True

    row_line, lo, width = line[first], starts[first], stops[first] - starts[first]
    c0, c1 = b[lo], b[np.minimum(lo + 1, size - 1)]
    label_ok = (((width == 1) & (c0 == ord("1")))
                | ((width == 2) & (c1 == ord("1")) & ((c0 == ord("+")) | (c0 == ord("-")))))
    bad[row_line[~label_ok]] = True
    row_label = np.where(c0 == ord("-"), -1.0, 1.0)

    tok_line, lo, hi = line[~first], starts[~first], stops[~first]
    colon = np.flatnonzero((b == ord(":")) & text)
    if not (colon.size == lo.size and (colon >= lo).all() and (colon < hi).all()):
        # not one colon per feature token: find each token's first
        colon = np.minimum(np.append(colon, size)[np.searchsorted(colon, lo)], hi)
    idx, idx_ok = _digits(b, lo, colon, _INDEX_DIGITS)
    val, val_ok = _digits(b, colon + 1, hi, _VALUE_DIGITS)
    val = val.astype(np.float64)
    prev = np.zeros_like(idx)
    prev[1:] = idx[:-1]
    prev[_run_starts(tok_line)] = 0
    tok_bad = (colon == hi) | ~idx_ok | (idx < 1) | (idx <= prev)
    if declared_dim is not None:
        tok_bad |= idx > declared_dim
    bad[tok_line[tok_bad]] = True
    other = np.flatnonzero(~val_ok & ~bad[tok_line])
    for t, a, z in zip(other.tolist(), (colon[other] + 1).tolist(), hi[other].tolist()):
        try:
            val[t] = float(buf[a:z])
        except ValueError:
            bad[tok_line[t]] = True

    keep_row, keep_tok = ~bad[row_line], ~bad[tok_line]
    row_line, row_label = row_line[keep_row], row_label[keep_row]
    counts = np.bincount(tok_line[keep_tok], minlength=bad.size)[row_line]
    tok_line, idx, val = tok_line[keep_tok], idx[keep_tok], val[keep_tok]
    over = np.flatnonzero(idx > _INDEX_LIMIT)
    too_big = (line0 + int(tok_line[over[0]]) + 1, int(idx[over[0]])) if over.size else None

    bad_lines = np.flatnonzero(bad).tolist()
    if not bad_lines:
        return _Rows(row_label, counts, idx, val, too_big)
    ends = np.append(nl, size).tolist()
    s_line, s_label, s_count, s_tok_line, s_idx, s_val = [], [], [], [], [], []
    for i in bad_lines:
        line_no = line0 + i + 1
        row = _parse_line(buf[ends[i - 1] + 1 if i else 0:ends[i]], line_no,
                          declared_dim, errors)
        if row is None:
            continue
        label, row_idx, row_val = row
        if row_idx and row_idx[-1] > _INDEX_LIMIT:
            if too_big is None or line_no < too_big[0]:
                too_big = (line_no, next(j for j in row_idx if j > _INDEX_LIMIT))
            row_idx = [min(j, _INDEX_LIMIT + 1) for j in row_idx]
        s_line.append(i)
        s_label.append(label)
        s_count.append(len(row_idx))
        s_tok_line += [i] * len(row_idx)
        s_idx += row_idx
        s_val += row_val
    rows = np.argsort(np.concatenate([row_line, np.asarray(s_line, dtype=row_line.dtype)]),
                      kind="stable")
    toks = np.argsort(np.concatenate([tok_line, np.asarray(s_tok_line, dtype=tok_line.dtype)]),
                      kind="stable")
    return _Rows(
        np.concatenate([row_label, np.asarray(s_label, dtype=np.float64)])[rows],
        np.concatenate([counts, np.asarray(s_count, dtype=counts.dtype)])[rows],
        np.concatenate([idx, np.asarray(s_idx, dtype=np.int64)])[toks],
        np.concatenate([val, np.asarray(s_val, dtype=np.float64)])[toks],
        too_big)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key differs from the previous entry's."""
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


def _comments(b: np.ndarray, nl: np.ndarray) -> np.ndarray:
    """Mask of the bytes from the first ``#`` of each line to its end."""
    hashes = np.flatnonzero(b == ord("#"))
    line = np.searchsorted(nl, hashes)
    first = _run_starts(line)
    marks = np.zeros(b.size + 1, dtype=np.int8)
    marks[hashes[first]] = 1
    marks[np.append(nl, b.size)[line[first]]] = -1
    return np.cumsum(marks[:-1], dtype=np.int8).view(bool)


def _digits(b: np.ndarray, lo: np.ndarray, hi: np.ndarray, most: int):
    """Value of each byte range ``b[lo:hi]`` read as a decimal integer, and
    whether the range is 1 to ``most`` ASCII digits (the value is only
    meaningful where it is)."""
    width = hi - lo
    ok = (width >= 1) & (width <= most)
    value = np.zeros(lo.size, dtype=np.int64)
    for k in range(int(width.max(initial=0, where=ok)), 0, -1):
        at = hi - k
        digit = np.where(at >= lo, b[at] - np.uint8(ord("0")), np.uint8(0))
        ok &= digit <= 9  # other bytes wrap past 9 in uint8
        value = value * 10 + digit
    return value, ok


def _parse_line(raw: bytes, line_no: int, declared_dim, errors: str):
    """The LibSVM grammar for one line, and the one place its errors are
    written.  Returns None for a blank or comment line, else ``(label,
    1-based indices, values)``."""
    try:
        text = raw.decode("utf-8", errors)
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            line_no, f"invalid UTF-8 at byte {exc.start + 1}: {exc.reason}") from None
    line = text.split("#", 1)[0].strip()
    if not line:
        return None
    toks = line.split()
    label_tok = toks[0]
    if label_tok in ("+1", "1"):
        label = 1.0
    elif label_tok == "-1":
        label = -1.0
    else:
        raise DataFormatError(line_no, f"label must be +1 or -1, got {label_tok!r}")
    indices, values = [], []
    prev = 0
    for tok in toks[1:]:
        idx_s, sep, val_s = tok.partition(":")
        if not sep:
            raise DataFormatError(line_no, f"malformed feature token {tok!r}")
        try:
            idx = int(idx_s)
        except ValueError:
            raise DataFormatError(line_no, f"malformed feature index {idx_s!r}") from None
        try:
            val = float(val_s)
        except ValueError:
            raise DataFormatError(line_no, f"malformed feature value {val_s!r}") from None
        if idx < 1:
            raise DataFormatError(line_no, f"feature index must be >= 1, got {idx}")
        if idx <= prev:
            raise DataFormatError(
                line_no, f"feature indices must be strictly increasing ({idx} after {prev})"
            )
        if declared_dim is not None and idx > declared_dim:
            raise DataFormatError(
                line_no, f"feature index {idx} exceeds declared dimension {declared_dim}"
            )
        prev = idx
        indices.append(idx)
        values.append(val)
    return label, indices, values


def load_dataset(path: str, declared_dim: Optional[int] = None) -> Dataset:
    """Read a LibSVM file from disk; ``.gz`` suffix triggers decompression."""
    if not os.path.exists(path):
        raise DataFormatError(None, f"no such file: {path}")
    opener = gzip.open if path.endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return parse_libsvm(fh, declared_dim)
    except (EOFError, zlib.error) as exc:
        raise DataFormatError(None, f"{path}: truncated or corrupt gzip data ({exc})") from None


def dataset_stats(ds: Dataset) -> DatasetStats:
    """Sample count, dimension, and max/mean squared row norms.

    Empty datasets cannot be constructed (parse and the Dataset initializer
    both reject them), so the n == 0 case is unreachable here.
    """
    row_sq = row_norms_sq(ds.X)
    return DatasetStats(ds.n, ds.dim, float(row_sq.max()), float(row_sq.mean()))


def row_norms_sq(x: sp.csr_matrix) -> np.ndarray:
    """Squared Euclidean norm of each row of a sparse matrix."""
    return np.asarray(x.multiply(x).sum(axis=1)).ravel()
