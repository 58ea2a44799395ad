"""Tests for LibSVM parsing and dataset statistics.

``reference_parse`` is the token-at-a-time parser the array parser replaced.
The equivalence tests hold the two to the same datasets and the same errors,
from every kind of source.
``serialize_libsvm`` and ``row_pairs`` are reference code for the round-trip
and per-row checks.
"""

import gzip
import io

import numpy as np
import pytest
import scipy.sparse as sp

from fedsim import dataio
from fedsim.dataio import (
    DataFormatError,
    Dataset,
    dataset_stats,
    load_dataset,
    parse_libsvm,
    row_norms_sq,
)


def row_pairs(ds: Dataset, i: int):
    """Sorted (index, value) pairs of sample i, 0-based indices."""
    lo, hi = ds.X.indptr[i], ds.X.indptr[i + 1]
    return list(zip(ds.X.indices[lo:hi].tolist(), ds.X.data[lo:hi].tolist()))


def serialize_libsvm(ds: Dataset) -> str:
    """Canonical text form: label then space-joined ``i+1:value`` pairs.

    Values use shortest round-trip float formatting, so
    ``parse_libsvm(serialize_libsvm(ds))`` reproduces the dataset exactly.
    """
    out = []
    for i in range(ds.n):
        parts = ["+1" if ds.labels[i] > 0 else "-1"]
        lo, hi = ds.X.indptr[i], ds.X.indptr[i + 1]
        for j in range(lo, hi):
            parts.append(f"{ds.X.indices[j] + 1}:{float(ds.X.data[j])!r}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def test_basic_row():
    ds = parse_libsvm("+1 1:0.5 3:1\n")
    assert ds.n == 1
    assert ds.dim == 3
    assert ds.labels.tolist() == [1.0]
    assert row_pairs(ds, 0) == [(0, 0.5), (2, 1.0)]


def test_featureless_row_is_legal():
    ds = parse_libsvm("-1\n")
    assert ds.n == 1
    assert ds.labels.tolist() == [-1.0]
    assert row_pairs(ds, 0) == []
    assert ds.dim == 0


def test_label_spellings():
    ds = parse_libsvm("1 1:1\n+1 1:2\n-1 1:3\n")
    assert ds.labels.tolist() == [1.0, 1.0, -1.0]


def test_declared_dim_pads_dimension():
    ds = parse_libsvm("+1 1:1\n", declared_dim=10)
    assert ds.dim == 10


def test_blank_lines_and_comments_skipped():
    text = "\n# leading comment\n+1 1:1  # trailing\n\n-1 2:2\n"
    ds = parse_libsvm(text)
    assert ds.n == 2
    assert row_pairs(ds, 0) == [(0, 1.0)]
    assert row_pairs(ds, 1) == [(1, 2.0)]


def test_order_stable():
    text = "+1 1:10\n-1 1:20\n+1 1:30\n"
    ds = parse_libsvm(text)
    for k, val in enumerate([10.0, 20.0, 30.0]):
        assert row_pairs(ds, k) == [(0, val)]


def test_bad_label_reports_line():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 1:1\n2 1:1\n")
    assert ei.value.line_no == 2
    assert "label" in str(ei.value)


def test_malformed_token_reports_line():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 1:1\n-1 oops\n")
    assert ei.value.line_no == 2


def test_malformed_value_reports_line():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 1:abc\n")
    assert ei.value.line_no == 1


def test_nonincreasing_indices_rejected():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 3:1 3:2\n")
    assert ei.value.line_no == 1
    with pytest.raises(DataFormatError):
        parse_libsvm("+1 3:1 2:2\n")


def test_index_exceeding_declared_dim_rejected():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 5:1\n", declared_dim=4)
    assert "exceeds" in str(ei.value)


def test_zero_index_rejected():
    with pytest.raises(DataFormatError):
        parse_libsvm("+1 0:1\n")


def test_empty_input_rejected():
    with pytest.raises(DataFormatError):
        parse_libsvm("")
    with pytest.raises(DataFormatError):
        parse_libsvm("# only a comment\n")


def test_bytes_input():
    ds = parse_libsvm(b"+1 1:1.5\n")
    assert row_pairs(ds, 0) == [(0, 1.5)]


def test_round_trip_identity():
    text = "+1 1:0.5 3:1\n-1\n+1 2:0.1 5:-2.25 7:1e-3\n"
    ds = parse_libsvm(text)
    again = parse_libsvm(serialize_libsvm(ds))
    assert again == ds


def test_round_trip_preserves_awkward_floats():
    ds = parse_libsvm("+1 1:0.1 2:0.30000000000000004 3:123456789.123456\n")
    again = parse_libsvm(serialize_libsvm(ds))
    np.testing.assert_array_equal(again.X.data, ds.X.data)


def test_stats_single_row():
    ds = parse_libsvm("+1 1:2\n")
    st = dataset_stats(ds)
    assert st == (1, ds.dim, 4.0, 4.0)


def test_stats_multiple_rows():
    ds = parse_libsvm("+1 1:1 2:1\n-1 1:3\n")
    st = dataset_stats(ds)
    assert st.n == 2
    assert st.dim == 2
    assert st.max_row_norm_sq == 9.0
    assert st.mean_row_norm_sq == pytest.approx((2.0 + 9.0) / 2)


def test_load_plain_and_gzip(tmp_path):
    text = "+1 1:1 4:0.25\n-1 2:2\n"
    plain = tmp_path / "toy.libsvm"
    plain.write_text(text)
    packed = tmp_path / "toy.libsvm.gz"
    with gzip.open(packed, "wt") as fh:
        fh.write(text)
    a = load_dataset(str(plain))
    b = load_dataset(str(packed))
    assert a == b
    assert a.n == 2


def test_load_by_path_object(tmp_path):
    text = "+1 1:1 4:0.25\n-1 2:2\n"
    plain = tmp_path / "toy.libsvm"
    plain.write_text(text)
    packed = tmp_path / "toy.libsvm.gz"
    packed.write_bytes(gzip.compress(text.encode()))
    assert load_dataset(plain) == load_dataset(packed) == parse_libsvm(text)


def test_load_missing_file():
    with pytest.raises(DataFormatError):
        load_dataset("/nonexistent/nowhere.libsvm")


@pytest.mark.parametrize("name", ["data", "data.gz"])
def test_a_directory_is_a_data_error_naming_it(name, tmp_path):
    path = tmp_path / name
    path.mkdir()
    with pytest.raises(DataFormatError) as ei:
        load_dataset(path)
    assert ei.value.line_no is None
    assert str(path) in ei.value.detail


def test_content_hash_tracks_content():
    a = parse_libsvm("+1 1:1\n-1 2:2\n")
    b = parse_libsvm("+1 1:1\n-1 2:2\n")
    c = parse_libsvm("+1 1:1\n-1 2:2.5\n")
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_dataset_equality_is_structural():
    a = parse_libsvm("+1 1:1\n")
    b = parse_libsvm("+1 1:1\n")
    c = parse_libsvm("-1 1:1\n")
    assert a == b
    assert a != c


def test_dataset_rejects_bad_labels():
    good = parse_libsvm("+1 1:1\n")
    with pytest.raises(DataFormatError):
        Dataset(X=good.X, labels=np.array([2.0]))


def test_row_norms_sq_matches_dense_rows():
    ds = parse_libsvm("+1 1:1 2:-2\n-1\n+1 3:0.5\n")
    dense = ds.X.toarray()
    np.testing.assert_array_equal(row_norms_sq(ds.X), (dense * dense).sum(axis=1))


# ---------------------------------------------------------------------------
# the array parser against the per-token reference


def reference_parse(source, declared_dim=None):
    """One Python call per token: the parser before the array parser.  Every
    source is read whole as UTF-8 bytes (a str is encoded with
    ``surrogatepass``) and split by ``bytes.splitlines``, whose line ends are
    ``\\n``, ``\\r\\n`` and a lone ``\\r``."""
    if declared_dim is not None and declared_dim < 1:
        raise DataFormatError(None, f"declared dimension must be positive, got {declared_dim}")
    if not isinstance(source, (str, bytes)):
        source = source.read()
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    labels, indptr, indices, data = [], [0], [], []
    max_idx = 0
    for line_no, raw in enumerate(source.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataFormatError(
                line_no, f"invalid UTF-8 at byte {exc.start + 1}: {exc.reason}") from None
        line = text.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        label_tok = toks[0]
        if label_tok in ("+1", "1"):
            labels.append(1.0)
        elif label_tok == "-1":
            labels.append(-1.0)
        else:
            raise DataFormatError(line_no, f"label must be +1 or -1, got {label_tok!r}")
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
            if idx > 2 ** 31:
                raise DataFormatError(line_no, f"feature index {idx} exceeds {2 ** 31}, "
                                               f"the largest index int32 columns can hold")
            prev = idx
            indices.append(idx - 1)
            data.append(val)
            max_idx = max(max_idx, idx)
        indptr.append(len(indices))
    if not labels:
        raise DataFormatError(None, "empty dataset")
    dim = declared_dim if declared_dim is not None else max_idx
    x = sp.csr_matrix(
        (np.asarray(data, dtype=np.float64), np.asarray(indices, dtype=np.int32),
         np.asarray(indptr, dtype=np.int64)),
        shape=(len(labels), dim),
    )
    return Dataset(X=x, labels=np.asarray(labels, dtype=np.float64))


def outcome(parse, *args):
    """What a parse produced: the dataset's hash, dtypes and shape, or the
    error's line number and detail."""
    try:
        ds = parse(*args)
    except DataFormatError as exc:
        return ("rejected", exc.line_no, exc.detail)
    return ("accepted", ds.content_hash(), ds.labels.dtype, ds.X.indptr.dtype,
            ds.X.indices.dtype, ds.X.data.dtype, ds.X.shape)


CORPUS = [
    "+1 1:0.5 3:1\n-1\n+1 2:0.1 5:-2.25 7:1e-3\n",
    "\n# leading comment\n+1 1:1  # trailing\n\n-1 2:2\n   \n#\n",
    "+1 1:1#2:2\n-1 3:1 # 4:x\n",
    "+1 1:1\r\n-1 2:2\r\n\r\n+1 3:3\r\n",
    "+1 1:1\r-1 2:2\n",
    "+1 1:1\r\r-1 2:2\r",
    "+1\t1:1\x0b2:2\x0c3:3\x1c4:4\x1d5:5\x1e6:6\x1f7:7 \n",
    "-1\n+1\n1 3:1\n-1   \n",
    "+1 007:0010 08:00.5\n",
    "+1 000000000001:1 0000000000002:2\n",
    "+1 +5:1\n",
    "+1 1_0:1_0\n",
    "-1 1:-0 2:nan 3:1e-3 4:1234567890123456 5:123456789012345 6:inf 7:-INF 8:+3\n",
    "+1 1:0.30000000000000004 2:123456789.123456 3:.5 4:5.\n",
    "+1 1:1\n-1 2:2",
    "+1 \u0661:1 2:\u0663\n",
    "+1 1:1\u00a02:2\u20033:3\u20284:4\n",
    "+1 1:1 # caf\u00e9\n-1 2:1\n",
    "\ufeff+1 1:1\n",
    "+1 2147483648:1\n",
    # rejected
    "",
    "# only a comment\n\n",
    "+1 1:1\n2 1:1\n",
    "+1 1:1\n-1 oops\n",
    "+1 1:abc\n",
    "+1 3:1 3:2\n",
    "+1 3:1 2:2\n",
    "+1 0:1\n",
    "+1 -1:1\n",
    "+1 1:1:1\n",
    "+1 :1\n",
    "+1 1:\n",
    "+1 1:1\x00\n",
    "1:1 2:2\n",
    "1.0 1:1\n",
    "+1 2:1 1:1_\n",
    "\n\n# x\n+1 1:1\r\n+1 2:1 1:1\n",
    "+1 1:1\r2 2:1\n",
    "+1 9:1\n-1 1:1 2:1 9:1\n",
    "+1 \u0661:1 1:1\n",
]


def _sources(tmp_path, text):
    """``(name, run)`` pairs, where ``run(dim)`` parses ``text`` with the
    package's parser from one kind of source: a str, bytes, text and binary
    file objects, and a plain and a gzip file."""
    blob = text.encode("utf-8")
    plain = tmp_path / "corpus.libsvm"
    plain.write_bytes(blob)
    packed = tmp_path / "corpus.libsvm.gz"
    packed.write_bytes(gzip.compress(blob))

    def file_object(mode, **kwargs):
        def run(dim):
            with open(plain, mode, **kwargs) as fh:
                return parse_libsvm(fh, dim)
        return run

    return [
        ("str", lambda dim: parse_libsvm(text, dim)),
        ("bytes", lambda dim: parse_libsvm(blob, dim)),
        *[(f"text-file-newline={newline!r}",
           file_object("r", encoding="utf-8", newline=newline))
          for newline in (None, "", "\r", "\n")],
        ("binary-file", file_object("rb")),
        ("plain-file", lambda dim: load_dataset(str(plain), dim)),
        ("gzip-file", lambda dim: load_dataset(str(packed), dim)),
    ]


@pytest.mark.parametrize("text", CORPUS, ids=[f"corpus{i}" for i in range(len(CORPUS))])
def test_array_parser_matches_reference(text, tmp_path, monkeypatch):
    """Every kind of source gives the reference's outcome on the text's
    UTF-8 bytes, at every slice size."""
    sources = _sources(tmp_path, text)
    for dim in (None, 8):
        expected = outcome(reference_parse, text.encode("utf-8"), dim)
        for slice_bytes in (1, 5, 64, dataio._SLICE_BYTES):
            monkeypatch.setattr(dataio, "_SLICE_BYTES", slice_bytes)
            for name, run in sources:
                assert outcome(run, dim) == expected, (name, slice_bytes)


def test_each_slice_takes_one_path(monkeypatch):
    """One irregular line sends its whole slice, and no other, through
    ``_parse_line``; a plain slice makes no ``_parse_line`` call."""
    lines_seen = []
    per_line = dataio._parse_line

    def counted(raw, line_no, *args):
        lines_seen.append(line_no)
        return per_line(raw, line_no, *args)

    monkeypatch.setattr(dataio, "_parse_line", counted)
    monkeypatch.setattr(dataio, "_SLICE_BYTES", 4 * 24)  # four lines a slice
    lines = [f"{'+1' if i % 2 else '-1'} {i % 5 + 1}:0.5 {i % 5 + 7}:{i}".encode()
             for i in range(32)]
    plain = b"".join(line.ljust(23) + b"\n" for line in lines)
    assert outcome(parse_libsvm, plain) == outcome(reference_parse, plain)
    assert lines_seen == []

    lines[5] = b"# a header comment"
    lines[14] = "+1 1:1\u00a02:2".encode()  # a non-ASCII space
    lines[16] = b"+1 +2:1"
    lines[27] = b"+1 00000000001:1"  # 11 digits
    text = b"".join(line.ljust(23) + b"\n" for line in lines)
    assert outcome(parse_libsvm, text) == outcome(reference_parse, text)
    assert lines_seen == [*range(5, 9), *range(13, 21), *range(25, 29)]


@pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
def test_every_line_end_bounds_a_slice(end, monkeypatch):
    """A lone ``\\r`` ends a slice as ``\\n`` does, so a file whose lines
    end in ``\\r`` is not read as one slice."""
    monkeypatch.setattr(dataio, "_SLICE_BYTES", 64)
    sizes = []
    per_slice = dataio._parse_slice

    def counted(buf, *args):
        sizes.append(len(buf))
        return per_slice(buf, *args)

    monkeypatch.setattr(dataio, "_parse_slice", counted)
    text = "".join(f"+1 {i % 9 + 1}:{i}{end}" for i in range(200))
    assert outcome(parse_libsvm, text) == outcome(reference_parse, text)
    assert len(sizes) > 20 and max(sizes) <= 2 * 64


def test_negative_zero_keeps_its_sign():
    ds = parse_libsvm("+1 1:-0 2:0\n")
    assert np.signbit(ds.X.data).tolist() == [True, False]


def test_array_parser_matches_reference_across_slices(tmp_path):
    rows = [f"{'+1' if i % 3 else '-1'} {i % 50 + 1}:1 {i % 50 + 60}:0.25 "
            f"{i % 7 + 120}:{i}" for i in range(30000)]
    rows[7000] += "  # a comment"
    rows[25000] = "+1 ١:1 3:2"
    text = "\n".join(rows) + "\n"
    assert len(text) > 2 * dataio._SLICE_BYTES
    path = tmp_path / "big.libsvm"
    path.write_text(text)
    assert outcome(load_dataset, str(path), None) == outcome(reference_parse, text)
    assert outcome(parse_libsvm, text) == outcome(reference_parse, text)
    late_error = text + "+1 5:1 4:1\n"
    assert outcome(parse_libsvm, late_error) == outcome(reference_parse, late_error)
    assert outcome(parse_libsvm, late_error)[1] == 30001


def test_invalid_utf8_reports_its_line():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm(b"+1 1:1\n# caf\xe9\n-1 2:\xff\n")
    assert ei.value.line_no == 2
    assert "UTF-8" in ei.value.detail


def test_index_beyond_int32_reports_its_line():
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 1:1\n-1 3000000000:1\n")
    assert ei.value.line_no == 2
    assert "3000000000" in ei.value.detail
    with pytest.raises(DataFormatError) as ei:
        parse_libsvm("+1 1:1\n-1 00000000003000000000:1\n")  # per-line path
    assert ei.value.line_no == 2
    assert "3000000000" in ei.value.detail


def test_lone_surrogate_is_invalid_utf8_on_its_line():
    text = "+1 1:1\n-1 \ud800:1\n"
    rejected = ("rejected", 2, "invalid UTF-8 at byte 4: invalid continuation byte")
    assert outcome(parse_libsvm, text) == outcome(parse_libsvm, io.StringIO(text)) == \
        outcome(parse_libsvm, b"+1 1:1\n-1 \xed\xa0\x80:1\n") == rejected


@pytest.mark.parametrize("slice_bytes", [1, dataio._SLICE_BYTES])
def test_the_first_error_in_the_file_wins(slice_bytes, monkeypatch):
    """An index above 2**31 is an error on its own line, like any other,
    whether its slice (one line each at ``slice_bytes=1``) is plain or not,
    and whether its index has 10 digits or more."""
    monkeypatch.setattr(dataio, "_SLICE_BYTES", slice_bytes)
    for big in ("3000000000", "00000000003000000000"):
        big_line, bad_label = f"+1 {big}:1", "2 1:1"
        for lines, first in (((big_line, bad_label), "exceeds"),
                             ((bad_label, big_line), "label")):
            text = "+1 1:1\n" + "\n".join(lines) + "\n"
            got = outcome(parse_libsvm, text)
            assert got == outcome(reference_parse, text)
            assert got[:2] == ("rejected", 2) and first in got[2]


@pytest.mark.parametrize("damage", ["truncated", "corrupt", "not-gzip"])
def test_damaged_gzip_is_a_data_error(damage, tmp_path):
    text = "".join(f"+1 {i % 100 + 1}:1 {i % 100 + 2}:0.5\n" for i in range(2000))
    blob = bytearray(gzip.compress(text.encode(), mtime=0))
    if damage == "truncated":
        blob = blob[:len(blob) // 2]
    elif damage == "corrupt":
        blob[40:60] = b"\xff" * 20
    else:
        blob = text.encode()
    path = tmp_path / "damaged.libsvm.gz"
    path.write_bytes(bytes(blob))
    with pytest.raises(DataFormatError) as ei:
        load_dataset(str(path))
    assert ei.value.line_no is None
    assert str(path) in ei.value.detail
    assert "gzip" in ei.value.detail.replace(str(path), "")
