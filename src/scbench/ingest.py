"""File ingestion: count matrices, annotations, and per-(method, replicate) splitting.

Matrix Market coordinate files are parsed strictly: the header must declare
``matrix coordinate integer|real general``, real values must be integral, and
duplicate coordinates are rejected. Every file scbench reads, here, in `cli`
and in `report`, is opened by `_open_text` under one rule.
"""
from __future__ import annotations

import contextlib
import csv
import gzip
import zlib
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DataError, FormatError
from .matrix import COUNT_MAX, DIM_MAX, CountMatrix

MM_BANNER = "%%MatrixMarket"


class CellAnnotation(NamedTuple):
    cell_id: str
    method: str
    replicate: str
    cell_type: str | None = None


@contextlib.contextmanager
def _open_text(path):
    """The file as text: the one way scbench opens a file it reads.

    The file is gunzipped if it starts with the gzip magic and decoded as
    UTF-8 past a byte-order mark if it has one (Excel's "CSV UTF-8" writes
    one). It is opened with newline="", as the csv module asks: a line may
    end in LF, CRLF or CR and keeps its ending. Text that is not UTF-8,
    corrupt or truncated gzip data, and text the csv module cannot parse,
    such as a field above its size limit, raise FormatError naming the file.
    """
    with open(path, "rb") as fh:
        gz = fh.read(2) == b"\x1f\x8b"
    with (gzip.open if gz else open)(path, "rt", encoding="utf-8-sig", newline="") as fh:
        try:
            yield fh
        except EOFError:
            raise FormatError(f"{path}: gzip stream ends early; the file is truncated") from None
        except (UnicodeDecodeError, zlib.error, csv.Error) as exc:
            raise FormatError(f"{path}: {exc}") from None


def _parse_count(token: str, field: str, lineno: int) -> int:
    if field == "integer":
        try:
            return int(token)
        except ValueError:
            raise FormatError(f"line {lineno}: bad integer value {token!r}") from None
    try:
        value = float(token)
    except ValueError:
        raise FormatError(f"line {lineno}: bad numeric value {token!r}") from None
    if not np.isfinite(value) or value != int(value):
        raise FormatError(f"line {lineno}: non-integral count {token!r}")
    return int(value)


def _read_header(fh) -> tuple[str, int, int, int, int]:
    """Parse the banner and size line.

    Returns the field type, the declared rows, columns and entry count, and
    the number of the last line read.
    """
    header = fh.readline()
    if not header.startswith(MM_BANNER):
        raise FormatError("missing MatrixMarket banner")
    tokens = header.split()
    if len(tokens) != 5:
        raise FormatError(f"malformed header: {header.strip()!r}")
    _, obj, fmt, field, symmetry = (t.lower() for t in tokens)
    if obj != "matrix" or fmt != "coordinate":
        raise FormatError(f"unsupported layout: {obj} {fmt}")
    if field not in ("integer", "real"):
        raise FormatError(f"unsupported field type: {field}")
    if symmetry != "general":
        raise FormatError(f"unsupported symmetry: {symmetry}")

    size_line = None
    lineno = 1
    for line in fh:
        lineno += 1
        if line.startswith("%") or not line.strip():
            continue
        size_line = line
        break
    if size_line is None:
        raise FormatError("missing size line")
    parts = size_line.split()
    if len(parts) != 3:
        raise FormatError(f"malformed size line: {size_line.strip()!r}")
    try:
        n_rows, n_cols, nnz = (int(p) for p in parts)
    except ValueError:
        raise FormatError(f"malformed size line: {size_line.strip()!r}") from None
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise FormatError("negative size")
    if max(n_rows, n_cols, nnz) > np.iinfo(np.int64).max:
        raise FormatError(f"size line {size_line.strip()!r} overflows 64-bit range")
    if max(n_rows, n_cols) > DIM_MAX:
        raise FormatError(f"size line {size_line.strip()!r} declares a dimension above {DIM_MAX}")
    return field, n_rows, n_cols, nnz, lineno


def _load_entries(fh, field: str, nnz: int):
    """Whole-array parse of the entry body: 0-based (nnz, 3) int64 triplets.

    Each column is contiguous and read-only, so the matrix keeps them as
    they are. Indices are not checked here: CountMatrix checks them once.
    Returns None when the body does not parse as nnz integral entries, holds
    a count above COUNT_MAX, or holds a line that the per-line scanner
    treats specially (a `%` comment); the caller then re-reads the file with
    `_scan_matrix_market`, which names the offending line.
    """
    import warnings

    if nnz == 0:
        if any(line.strip() and not line.startswith("%") for line in fh):
            return None
        return np.empty((0, 3), dtype=np.int64)
    real = field == "real"
    dtype = [("r", np.int64), ("c", np.int64), ("v", np.float64 if real else np.int64)]
    try:
        with warnings.catch_warnings():
            # "input contained no data" and the like mean a short body
            warnings.simplefilter("error")
            body = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    if body.shape != (nnz,):
        return None
    vals = body["v"]
    # a real count must be finite, integral and non-negative, so that with
    # the bound below the cast to int64 is exact
    if real and not (
        np.isfinite(vals).all() and (np.trunc(vals) == vals).all() and 0 <= vals.min()
    ):
        return None
    if vals.max() > COUNT_MAX:
        return None
    columns = np.stack([body["r"], body["c"], vals.astype(np.int64, copy=False)])
    columns[:2] -= 1
    columns.flags.writeable = False
    return columns.T


def _scan_matrix_market(path) -> CountMatrix:
    """Per-line parse of a Matrix Market file; names the first bad line.

    `read_matrix_market` falls back to this when its whole-array pass
    rejects the body, so every FormatError comes from here.
    """
    with _open_text(path) as fh:
        field, n_rows, n_cols, nnz, lineno = _read_header(fh)
        # grown as entries arrive: the size line may declare far more
        entries = []
        for line in fh:
            lineno += 1
            if line.startswith("%") or not line.strip():
                continue
            if len(entries) >= nnz:
                raise FormatError(f"more than {nnz} entries in file")
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'row col value'")
            try:
                r, c = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad coordinate") from None
            v = _parse_count(parts[2], field, lineno)
            if not (1 <= r <= n_rows and 1 <= c <= n_cols):
                raise FormatError(f"line {lineno}: coordinate ({r},{c}) out of range")
            if v < 0:
                raise FormatError(f"line {lineno}: negative count {v}")
            if v > COUNT_MAX:
                raise FormatError(f"line {lineno}: count {v} overflows 32-bit range")
            entries.append((r - 1, c - 1, v))
        if len(entries) != nnz:
            raise FormatError(f"expected {nnz} entries, found {len(entries)}")
    try:
        return CountMatrix.from_triplets(np.array(entries, dtype=np.int64).reshape(-1, 3), n_rows, n_cols)
    except DataError as exc:
        raise FormatError(f"invalid matrix content: {exc}") from exc


def read_matrix_market(path) -> CountMatrix:
    """Parse a Matrix Market coordinate file into a CountMatrix.

    File rows map to cells and columns to genes, exactly as stored; callers
    handle orientation. Ids are synthetic, cell_i for the rows and gene_j for
    the columns, until split_by_method_replicate names them. The entry body
    is read and checked as whole arrays; a body that fails any check is
    re-read line by line for the error message.
    """
    with _open_text(path) as fh:
        field, n_rows, n_cols, nnz, _ = _read_header(fh)
        entries = _load_entries(fh, field, nnz)
    if entries is not None:
        try:
            return CountMatrix.from_triplets(entries, n_rows, n_cols)
        except DataError:
            pass  # the per-line scan below names the fault
    return _scan_matrix_market(path)


# entries formatted per write call
_WRITE_CHUNK_ROWS = 1 << 14


def _digit_rows(values) -> np.ndarray:
    """b"%d" of each value, NUL-padded to one width, as raw fixed-size items."""
    text = np.array([b"%d" % v for v in values], dtype=bytes)
    return text.view(np.dtype((np.void, text.itemsize)))


def write_matrix_market(m: CountMatrix, path) -> None:
    """Emit a coordinate-format integer Matrix Market file (1-based indices).

    Lines are assembled from tables of digit strings, one over each axis's
    1-based indices and one over the distinct counts: a chunk of entries at
    a time, as NUL-padded records that are written without the NULs.
    """
    values, value_of = np.unique(m.counts, return_inverse=True)
    cells = _digit_rows(range(1, m.n_cells + 1))
    genes = _digit_rows(range(1, m.n_genes + 1))
    counts = _digit_rows(values.tolist())
    lines = np.empty(min(m.nnz, _WRITE_CHUNK_ROWS), dtype=[
        ("cell", cells.dtype), ("sep1", "S1"), ("gene", genes.dtype), ("sep2", "S1"),
        ("count", counts.dtype), ("end", "S1"),
    ])
    lines["sep1"] = lines["sep2"] = b" "
    lines["end"] = b"\n"
    with open(path, "wb") as fh:
        fh.write(b"%%MatrixMarket matrix coordinate integer general\n")
        fh.write(b"%d %d %d\n" % (m.n_cells, m.n_genes, m.nnz))
        for start in range(0, m.nnz, _WRITE_CHUNK_ROWS):
            stop = min(start + _WRITE_CHUNK_ROWS, m.nnz)
            block = lines[: stop - start]
            block["cell"] = cells[m.cell_idx[start:stop]]
            block["gene"] = genes[m.gene_idx[start:stop]]
            block["count"] = counts[value_of[start:stop]]
            text = block.view(np.uint8)
            fh.write(np.compress(text != 0, text).tobytes())


def _annotation_rows(fh, kind: str, names: Sequence[str], optional: int = 0):
    """Header positions of the columns `names` of a `kind` annotation CSV,
    and its rows as (id, fields) pairs.

    The first name is the id column, and all but the last `optional` names
    must be in the header. A row's id is stripped, and an empty or repeated
    id raises FormatError when the row is reached. Read as csv.DictReader
    reads: a name given twice in the header is its last column, blank rows
    are skipped and a short row's missing fields are empty.
    """
    reader = csv.reader(fh)
    where = {name: i for i, name in enumerate(next(reader, []))}
    cols = [where.get(name) for name in names]
    for name, col in zip(names[: len(names) - optional], cols):
        if col is None:
            raise FormatError(f"{kind} annotation file lacks column {name!r}")
    width = max(c for c in cols if c is not None) + 1

    def rows():
        seen: set[str] = set()
        for row in filter(None, reader):  # blank rows are empty lists
            row += [""] * (width - len(row))
            row_id = row[cols[0]].strip()
            if not row_id:
                raise FormatError(f"empty {names[0]}")
            if row_id in seen:
                raise FormatError(f"duplicate {names[0]} {row_id!r}")
            seen.add(row_id)
            yield row_id, row

    return cols, rows()


def read_cell_annotations(path) -> list[CellAnnotation]:
    """Read the cell annotation CSV (cell_id, method, replicate[, cell_type])."""
    names = ("cell_id", "method", "replicate", "cell_type")
    with _open_text(path) as fh:
        (_, method_col, replicate_col, type_col), rows = _annotation_rows(fh, "cell", names, 1)
        out: list[CellAnnotation] = []
        for cell_id, row in rows:
            method = row[method_col].strip()
            replicate = row[replicate_col].strip()
            if not method or not replicate:
                raise FormatError(f"cell {cell_id!r}: empty method or replicate")
            cell_type = row[type_col].strip() if type_col is not None else ""
            out.append(CellAnnotation(cell_id, method, replicate, cell_type or None))
    return out


def write_cell_annotations(annotations: Sequence[CellAnnotation], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell_id", "method", "replicate", "cell_type"])
        for a in annotations:
            writer.writerow([a.cell_id, a.method, a.replicate, a.cell_type or ""])


def read_gene_annotations(path) -> list[str]:
    """Read the gene annotation CSV; returns gene ids in file order."""
    with _open_text(path) as fh:
        _, rows = _annotation_rows(fh, "gene", ("gene_id",))
        return [gene_id for gene_id, _ in rows]


def write_gene_annotations(gene_ids: Sequence[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene_id"])
        for gid in gene_ids:
            writer.writerow([gid])


def split_by_method_replicate(
    m: CountMatrix,
    annotations: Sequence[CellAnnotation],
    gene_ids: Sequence[str] | None = None,
    join_by_id: bool = False,
) -> dict[tuple[str, str], tuple[CountMatrix, list[CellAnnotation]]]:
    """Name the matrix's cells (and genes) and partition the cells by
    (method, replicate), in sorted key order.

    Positional mode (default) pairs annotation row i with matrix row i, and
    the cells take the annotations' ids. join_by_id instead matches the
    annotations to the matrix's own cell ids, so a reordered annotation file
    still lines up. gene_ids, if given, name the genes. Each split gets its
    sub-matrix (all genes kept) and its annotations, both in matrix row order.
    """
    if join_by_id:
        by_id = {a.cell_id: a for a in annotations}
        if len(by_id) != len(annotations):
            raise DataError("duplicate cell_id in annotations")
        missing = [cid for cid in m.cell_ids if cid not in by_id]
        if missing:
            raise DataError(
                f"{len(missing)} matrix cells missing from annotations, "
                f"first: {missing[0]!r}"
            )
        annotations = [by_id[cid] for cid in m.cell_ids]
    elif len(annotations) != m.n_cells:
        raise DataError(
            f"annotation rows ({len(annotations)}) do not match matrix cells ({m.n_cells})"
        )
    if gene_ids is not None and len(gene_ids) != m.n_genes:
        raise DataError(
            f"gene annotations ({len(gene_ids)}) do not match matrix genes ({m.n_genes})"
        )
    # joined annotations are in the order of the matrix's own ids
    m = m.with_ids(None if join_by_id else [a.cell_id for a in annotations], gene_ids)
    groups: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(annotations):
        groups.setdefault((a.method, a.replicate), []).append(i)
    keys = sorted(groups)
    # each cell's split and its row within the split
    split_of = np.empty(m.n_cells, dtype=np.min_scalar_type(max(len(keys) - 1, 0)))
    row_in_split = np.empty(m.n_cells, dtype=np.int64)
    for k, key in enumerate(keys):
        split_of[groups[key]] = k
        row_in_split[groups[key]] = np.arange(len(groups[key]))
    # a stable sort on the split keeps each split's entries gene-major
    entry_split = split_of[m.cell_idx]
    order = np.argsort(entry_split, kind="stable")
    cuts = np.cumsum(np.bincount(entry_split, minlength=len(keys)))[:-1]
    cells = np.split(row_in_split[m.cell_idx[order]], cuts)
    genes = np.split(m.gene_idx[order], cuts)
    counts = np.split(m.counts[order], cuts)
    out = {}
    for key, cell, gene, cnt in zip(keys, cells, genes, counts):
        rows = groups[key]
        sub = CountMatrix._derived(
            len(rows), m.n_genes, cell, gene, cnt, tuple(m.cell_ids[i] for i in rows), m.gene_ids
        )
        out[key] = (sub, [annotations[i] for i in rows])
    return out
