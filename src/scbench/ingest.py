"""File ingestion: count matrices, annotations, and per-(method, replicate) splitting.

Matrix Market coordinate files are parsed strictly: the header must declare
``matrix coordinate integer|real general``, real values must be integral, and
duplicate coordinates are rejected. Gzipped files are detected by magic bytes.
"""
from __future__ import annotations

import csv
import gzip
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DataError, FormatError
from .matrix import COUNT_MAX, CountMatrix

MM_BANNER = "%%MatrixMarket"


@dataclass(frozen=True)
class CellAnnotation:
    cell_id: str
    method: str
    replicate: str
    cell_type: str | None = None


def _open_text(path):
    with open(path, "rb") as fh:
        magic = fh.read(2)
    if magic == b"\x1f\x8b":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


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
    return field, n_rows, n_cols, nnz, lineno


def _load_entries(fh, field: str, n_rows: int, n_cols: int, nnz: int):
    """Whole-array pass over the entry body: 0-based (nnz, 3) int64 triplets.

    Returns None when anything in the body fails a check, or when the body
    holds a line that the per-line scanner treats specially (a `%` comment);
    the caller then re-reads the file with `_scan_matrix_market`, which names
    the offending line.
    """
    import warnings

    if nnz == 0:
        if any(line.strip() and not line.startswith("%") for line in fh):
            return None
        return np.empty((0, 3), dtype=np.int64)
    integer = field == "integer"
    dtype = np.int64 if integer else [("r", np.int64), ("c", np.int64), ("v", np.float64)]
    try:
        with warnings.catch_warnings():
            # "input contained no data" and the like mean a short body
            warnings.simplefilter("error")
            body = np.loadtxt(fh, dtype=dtype, comments=None, ndmin=2 if integer else 1)
    except (ValueError, OverflowError, Warning):
        return None
    if integer:
        if body.shape != (nnz, 3):
            return None
        rows, cols, vals = body[:, 0], body[:, 1], body[:, 2]
    else:
        if body.shape != (nnz,):
            return None
        rows, cols, vals = body["r"], body["c"], body["v"]
        if not (np.isfinite(vals).all() and (np.trunc(vals) == vals).all()):
            return None
    if not (
        1 <= rows.min() and rows.max() <= n_rows
        and 1 <= cols.min() and cols.max() <= n_cols
        and 0 <= vals.min() and vals.max() <= COUNT_MAX
    ):
        return None
    if integer:
        body[:, :2] -= 1
        return body
    return np.column_stack([rows - 1, cols - 1, vals.astype(np.int64)])


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
    return _count_matrix(np.array(entries, dtype=np.int64).reshape(-1, 3), n_rows, n_cols)


def _count_matrix(entries: np.ndarray, n_rows: int, n_cols: int) -> CountMatrix:
    try:
        return CountMatrix.from_triplets(entries, n_rows, n_cols)
    except DataError as exc:
        raise FormatError(f"invalid matrix content: {exc}") from exc


def read_matrix_market(path) -> CountMatrix:
    """Parse a Matrix Market coordinate file into a CountMatrix.

    File rows map to cells and columns to genes, exactly as stored; callers
    handle orientation. Ids are synthetic until attach_annotations runs. The
    entry body is read and checked as whole arrays; a body that fails any
    check is re-read line by line for the error message.
    """
    with _open_text(path) as fh:
        field, n_rows, n_cols, nnz, _ = _read_header(fh)
        entries = _load_entries(fh, field, n_rows, n_cols, nnz)
    if entries is None:
        return _scan_matrix_market(path)
    return _count_matrix(entries, n_rows, n_cols)


# entries formatted per write call
_WRITE_CHUNK_ROWS = 1 << 14


def write_matrix_market(m: CountMatrix, path) -> None:
    """Emit a coordinate-format integer Matrix Market file (1-based indices)."""
    entries = m.triplets()
    entries[:, :2] += 1  # 1-based coordinates
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{m.n_cells} {m.n_genes} {m.nnz}\n")
        for start in range(0, m.nnz, _WRITE_CHUNK_ROWS):
            block = entries[start : start + _WRITE_CHUNK_ROWS]
            fh.write(("%d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


def read_cell_annotations(path) -> list[CellAnnotation]:
    """Read the cell annotation CSV (cell_id, method, replicate[, cell_type])."""
    with _open_text(path) as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for required in ("cell_id", "method", "replicate"):
            if required not in fields:
                raise FormatError(f"cell annotation file lacks column {required!r}")
        has_type = "cell_type" in fields
        out: list[CellAnnotation] = []
        ids: set[str] = set()
        for row in reader:
            cell_id = (row["cell_id"] or "").strip()
            method = (row["method"] or "").strip()
            replicate = (row["replicate"] or "").strip()
            if not cell_id:
                raise FormatError("empty cell_id")
            if cell_id in ids:
                raise FormatError(f"duplicate cell_id {cell_id!r}")
            if not method or not replicate:
                raise FormatError(f"cell {cell_id!r}: empty method or replicate")
            ids.add(cell_id)
            cell_type = (row.get("cell_type") or "").strip() if has_type else ""
            out.append(
                CellAnnotation(cell_id, method, replicate, cell_type or None)
            )
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
        reader = csv.DictReader(fh)
        if "gene_id" not in (reader.fieldnames or []):
            raise FormatError("gene annotation file lacks column 'gene_id'")
        out: list[str] = []
        seen: set[str] = set()
        for row in reader:
            gene_id = (row["gene_id"] or "").strip()
            if not gene_id:
                raise FormatError("empty gene_id")
            if gene_id in seen:
                raise FormatError(f"duplicate gene_id {gene_id!r}")
            seen.add(gene_id)
            out.append(gene_id)
    return out


def write_gene_annotations(gene_ids: Sequence[str], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["gene_id"])
        for gid in gene_ids:
            writer.writerow([gid])


def attach_annotations(
    m: CountMatrix,
    cell_annotations: Sequence[CellAnnotation],
    gene_ids: Sequence[str] | None = None,
    join_by_id: bool = False,
) -> tuple[CountMatrix, list[CellAnnotation]]:
    """Attach ids from annotation records to a matrix.

    Positional mode (default) pairs annotation row i with matrix row i.
    join_by_id instead matches annotations to the matrix's existing cell ids,
    so a reordered annotation file still lines up.

    Returns the re-identified matrix and the annotations in matrix row order.
    """
    if join_by_id:
        by_id = {a.cell_id: a for a in cell_annotations}
        if len(by_id) != len(cell_annotations):
            raise DataError("duplicate cell_id in annotations")
        missing = [cid for cid in m.cell_ids if cid not in by_id]
        if missing:
            raise DataError(
                f"{len(missing)} matrix cells missing from annotations, "
                f"first: {missing[0]!r}"
            )
        ordered = [by_id[cid] for cid in m.cell_ids]
    else:
        if len(cell_annotations) != m.n_cells:
            raise DataError(
                f"annotation rows ({len(cell_annotations)}) do not match "
                f"matrix cells ({m.n_cells})"
            )
        ordered = list(cell_annotations)
    if gene_ids is not None and len(gene_ids) != m.n_genes:
        raise DataError(
            f"gene annotations ({len(gene_ids)}) do not match matrix genes ({m.n_genes})"
        )
    annotated = m.with_ids(
        cell_ids=[a.cell_id for a in ordered],
        gene_ids=gene_ids,
    )
    return annotated, ordered


def split_by_method_replicate(
    m: CountMatrix, annotations: Sequence[CellAnnotation]
) -> dict[tuple[str, str], tuple[CountMatrix, list[CellAnnotation]]]:
    """Partition cells by (method, replicate), in sorted key order.

    Each split gets its sub-matrix (all genes kept) and its annotations, both
    in matrix row order.
    """
    if len(annotations) != m.n_cells:
        raise DataError(
            f"annotation rows ({len(annotations)}) do not match matrix cells ({m.n_cells})"
        )
    groups: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(annotations):
        groups.setdefault((a.method, a.replicate), []).append(i)
    out = {}
    gene_mask = np.ones(m.n_genes, dtype=bool)
    for key in sorted(groups):
        cell_mask = np.zeros(m.n_cells, dtype=bool)
        cell_mask[groups[key]] = True
        out[key] = (m.submatrix(cell_mask, gene_mask), [annotations[i] for i in groups[key]])
    return out
