"""LibSVM-format parsing and dataset statistics.

The on-disk convention is the standard LibSVM text format for binary
classification: one sample per line, ``<label> <idx>:<val> ...`` with 1-based,
strictly increasing feature indices and labels in {+1, -1}.  In memory the
indices are 0-based and rows live in a CSR matrix.  Files ending in ``.gz``
are transparently decompressed.  Parsing is strict: malformed input raises
:class:`DataFormatError` with the offending line number rather than being
silently skipped, and the first error in the file is the one raised.

Input is parsed in slices of about ``_SLICE_BYTES`` of whole lines, one
decision per slice: a slice whose every line is plain is parsed by numpy
array operations (``_array_rows``), any other slice line by line by
``_parse_line``, the one home of the grammar and its error messages.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import zlib
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
# A longer index token (leading zeros, say) sends its slice line by line.
_INDEX_DIGITS = 10
# Every integer of at most 15 decimal digits is exact in float64.
_VALUE_DIGITS = 15
# The ASCII bytes that str.split() and str.strip() treat as whitespace.
_WHITESPACE = np.zeros(256, dtype=bool)
_WHITESPACE[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = True


class _Rows(NamedTuple):
    """The rows of one slice: labels, feature counts, 1-based indices, values."""

    labels: np.ndarray
    counts: np.ndarray
    indices: np.ndarray
    values: np.ndarray


def parse_libsvm(source, declared_dim: Optional[int] = None) -> Dataset:
    """Parse LibSVM text into a Dataset.

    ``source`` may be a str/bytes blob or a text/binary file object.  When
    ``declared_dim`` is given it fixes the feature dimension and any larger
    index is an error; otherwise the dimension is the largest index seen.
    Blank lines are skipped and ``#`` starts a comment.  Every source is read
    as UTF-8 bytes with universal newlines (``\\n``, ``\\r\\n`` and a lone
    ``\\r`` each end a line).  A str, or what a text file object reads, is
    encoded with ``surrogatepass``, so a lone surrogate is invalid UTF-8 on
    its own line, as a bad byte is.
    """
    if declared_dim is not None and declared_dim < 1:
        raise DataFormatError(None, f"declared dimension must be positive, got {declared_dim}")
    labels, counts, indices, values = [], [], [], []
    line0, max_idx = 0, 0
    for buf in _slices(_reader(source)):
        if b"\r" in buf:  # replace() scans for b"\r\n" far slower than `in` for b"\r"
            buf = buf.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        rows = _parse_slice(buf, line0, declared_dim)
        line0 += buf.count(b"\n")
        labels.append(rows.labels)
        counts.append(rows.counts)
        indices.append((rows.indices - 1).astype(np.int32))
        values.append(rows.values)
        if rows.indices.size:
            max_idx = max(max_idx, int(rows.indices.max()))

    n = sum(len(part) for part in labels)
    if not n:
        raise DataFormatError(None, "empty dataset")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    dim = declared_dim if declared_dim is not None else max_idx
    x = sp.csr_matrix((np.concatenate(values), np.concatenate(indices), indptr),
                      shape=(n, dim))
    return Dataset(X=x, labels=np.concatenate(labels))


def _reader(source):
    """``read(size)`` for a source, returning its UTF-8 bytes."""
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        return io.BytesIO(source).read
    if hasattr(source, "read"):
        if isinstance(source.read(0), bytes):
            return source.read
        return lambda size: source.read(size).encode("utf-8", "surrogatepass")
    raise TypeError(f"unsupported source type {type(source)!r}")


def _slices(read):
    """Yield the stream in slices of whole lines, about ``_SLICE_BYTES`` each.
    A ``\\n`` or a ``\\r`` ends a line; a ``\\r`` that ends a read waits
    for the next one, which may start with the ``\\n`` of a ``\\r\\n``."""
    pending = []  # reads since the last line end
    while True:
        chunk = read(_SLICE_BYTES)
        if not chunk:
            break
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1))
        if cut < 0:
            pending.append(chunk)
            continue
        yield b"".join(pending) + chunk[:cut + 1]
        pending = [chunk[cut + 1:]]
    rest = b"".join(pending)
    if rest:
        yield rest


def _parse_slice(buf: bytes, line0: int, declared_dim) -> _Rows:
    """Parse whole ``\\n``-ended lines (``buf``'s first line is line
    ``line0 + 1``): by ``_array_rows`` when every line is plain, else each
    line in order by ``_parse_line``, which accepts it or raises its error."""
    rows = _array_rows(buf, declared_dim)
    if rows is not None:
        return rows
    labels, counts, indices, values = [], [], [], []
    for line_no, raw in enumerate(buf.removesuffix(b"\n").split(b"\n"), line0 + 1):
        row = _parse_line(raw, line_no, declared_dim)
        if row is None:
            continue
        label, row_idx, row_val = row
        labels.append(label)
        counts.append(len(row_idx))
        indices += row_idx
        values += row_val
    return _Rows(np.array(labels, dtype=float), np.array(counts, dtype=int),
                 np.array(indices, dtype=int), np.array(values, dtype=float))


def _array_rows(buf: bytes, declared_dim) -> Optional[_Rows]:
    """The slice's rows by numpy array operations, or None unless every line
    is plain: ASCII without ``#``, an exact ``+1``/``1``/``-1`` label and
    ``digits:value`` features whose indices have at most ``_INDEX_DIGITS``
    digits, are in range and strictly increase.  A value of at most
    ``_VALUE_DIGITS`` digits is decoded here; any other goes through
    ``float()``."""
    if b"#" in buf or not buf.isascii():
        return None
    b = np.frombuffer(buf, dtype=np.uint8)
    nl = np.flatnonzero(b == 10)
    text = b > 32
    if np.count_nonzero(b < 32) != nl.size:  # control bytes besides \n
        text = ~_WHITESPACE[b]
    edges = np.flatnonzero(np.diff(text, prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    first_tok = np.searchsorted(starts, np.append(0, nl + 1))  # of each line
    line = np.repeat(np.arange(first_tok.size), np.diff(first_tok, append=starts.size))
    first = _run_starts(line)

    lo, width = starts[first], stops[first] - starts[first]
    c0, c1 = b[lo], b[np.minimum(lo + 1, b.size - 1)]
    if not ((width == 1) & (c0 == ord("1"))
            | (width == 2) & (c1 == ord("1")) & ((c0 == ord("+")) | (c0 == ord("-")))).all():
        return None
    tok_line, lo, hi = line[~first], starts[~first], stops[~first]
    colon = np.flatnonzero(b == ord(":"))  # one per feature token, inside it
    if colon.size != lo.size or not ((colon > lo) & (colon < hi)).all():
        return None
    idx, idx_ok = _digits(b, lo, colon, _INDEX_DIGITS)
    val, val_ok = _digits(b, colon + 1, hi, _VALUE_DIGITS)
    prev = np.zeros_like(idx)
    prev[1:] = idx[:-1]
    prev[_run_starts(tok_line)] = 0
    bad = ~idx_ok | (idx <= prev) | (idx > _INDEX_LIMIT)
    if declared_dim is not None:
        bad |= idx > declared_dim
    if bad.any():
        return None
    val = val.astype(np.float64)
    other = np.flatnonzero(~val_ok)
    for t, a, z in zip(other.tolist(), (colon[other] + 1).tolist(), hi[other].tolist()):
        try:
            val[t] = float(buf[a:z])
        except ValueError:
            return None
    counts = np.bincount(tok_line, minlength=first_tok.size)[line[first]]
    return _Rows(np.where(c0 == ord("-"), -1.0, 1.0), counts, idx, val)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries whose key differs from the previous entry's."""
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    return starts


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


def _parse_line(raw: bytes, line_no: int, declared_dim):
    """The LibSVM grammar for one line, and the one place its errors are
    written.  Returns None for a blank or comment line, else ``(label,
    1-based indices, values)``."""
    try:
        text = raw.decode("utf-8")
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
        if idx > _INDEX_LIMIT:
            raise DataFormatError(line_no, f"feature index {idx} exceeds {_INDEX_LIMIT}, "
                                           f"the largest index int32 columns can hold")
        prev = idx
        indices.append(idx)
        values.append(val)
    return label, indices, values


def load_dataset(path, declared_dim: Optional[int] = None) -> Dataset:
    """Read a LibSVM file (a str or path-like) from disk; a ``.gz`` suffix
    triggers decompression.  A file that cannot be opened or read (missing,
    a directory, not gzip, truncated or corrupt gzip data) raises
    :class:`DataFormatError` naming the path, with no line number."""
    path = os.fspath(path)
    gz = path.endswith(".gz")
    try:
        with (gzip.open if gz else open)(path, "rb") as fh:
            return parse_libsvm(fh, declared_dim)
    except (OSError, EOFError, zlib.error) as exc:  # gzip.BadGzipFile is an OSError
        reason = getattr(exc, "strerror", None) or exc
        raise DataFormatError(None, f"cannot read {'gzip ' * gz}file {path}: {reason}") from None


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
