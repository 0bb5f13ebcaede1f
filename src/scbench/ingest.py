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


def read_matrix_market(path) -> CountMatrix:
    """Parse a Matrix Market coordinate file into a CountMatrix.

    File rows map to cells and columns to genes, exactly as stored; callers
    handle orientation. Ids are synthetic until attach_annotations runs.
    """
    with _open_text(path) as fh:
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

        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.int64)
        seen = 0
        for line in fh:
            lineno += 1
            if line.startswith("%") or not line.strip():
                continue
            if seen >= nnz:
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
            rows[seen], cols[seen], vals[seen] = r - 1, c - 1, v
            seen += 1
        if seen != nnz:
            raise FormatError(f"expected {nnz} entries, found {seen}")

    try:
        return CountMatrix.from_triplets(
            np.column_stack([rows, cols, vals]), n_rows, n_cols
        )
    except DataError as exc:
        raise FormatError(f"invalid matrix content: {exc}") from exc


def write_matrix_market(m: CountMatrix, path) -> None:
    """Emit a coordinate-format integer Matrix Market file (1-based indices)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix coordinate integer general\n")
        fh.write(f"{m.n_cells} {m.n_genes} {m.nnz}\n")
        for cell, gene, cnt in zip(m.cell_idx, m.gene_idx, m.counts):
            fh.write(f"{cell + 1} {gene + 1} {cnt}\n")


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
) -> dict[tuple[str, str], CountMatrix]:
    """Partition cells into one sub-matrix per (method, replicate); genes are kept."""
    if len(annotations) != m.n_cells:
        raise DataError(
            f"annotation rows ({len(annotations)}) do not match matrix cells ({m.n_cells})"
        )
    groups: dict[tuple[str, str], list[int]] = {}
    for i, a in enumerate(annotations):
        groups.setdefault((a.method, a.replicate), []).append(i)
    out: dict[tuple[str, str], CountMatrix] = {}
    gene_mask = np.ones(m.n_genes, dtype=bool)
    for key in sorted(groups):
        cell_mask = np.zeros(m.n_cells, dtype=bool)
        cell_mask[groups[key]] = True
        out[key] = m.submatrix(cell_mask, gene_mask)
    return out


def split_annotations(
    annotations: Sequence[CellAnnotation],
) -> dict[tuple[str, str], list[CellAnnotation]]:
    """Group annotations by (method, replicate) in the split order."""
    groups: dict[tuple[str, str], list[CellAnnotation]] = {}
    for a in annotations:
        groups.setdefault((a.method, a.replicate), []).append(a)
    return {key: groups[key] for key in sorted(groups)}


def write_dense_csv(em, path, comment: str | None = None) -> None:
    """Dense expression matrix as CSV: cell_id column plus one column per gene.

    Floats carry 17 significant digits so the file reads back exactly.
    """
    from ._util import fmt_float

    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# config: {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cell_id", *em.gene_ids])
        for cid, row in zip(em.cell_ids, em.values):
            writer.writerow([cid, *(fmt_float(v) for v in row)])


def read_dense_csv(path):
    """Read back a dense expression CSV written by write_dense_csv."""
    from .matrix import ExpressionMatrix

    with _open_text(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError(f"{path}: empty expression file") from None
    if not header or header[0] != "cell_id":
        raise FormatError(f"{path}: first column must be cell_id")
    gene_ids = header[1:]
    cell_ids, rows = [], []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise FormatError(f"{path}:{lineno}: wrong field count")
        cell_ids.append(row[0])
        try:
            rows.append([float(v) for v in row[1:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from None
    values = np.array(rows, dtype=np.float64).reshape(len(cell_ids), len(gene_ids))
    return ExpressionMatrix(values, tuple(cell_ids), tuple(gene_ids))
