"""File parsing, annotation joins, and per-(method, replicate) splitting."""
import gzip
import json
import warnings

import numpy as np
import pytest
from conftest import random_dense, random_matrix, same_entries, same_matrix
from oracles import naive_write_matrix_market

import scbench.ingest
from scbench import (
    CellAnnotation,
    DataError,
    FormatError,
    attach_annotations,
    preprocess_pipeline,
    read_cell_annotations,
    read_gene_annotations,
    read_matrix_market,
    read_table,
    split_by_method_replicate,
    write_cell_annotations,
    write_gene_annotations,
    write_matrix_market,
)
from scbench.cli import cli_main
from scbench.ingest import _WRITE_CHUNK_ROWS, _scan_matrix_market
from scbench.matrix import default_cell_ids, default_gene_ids, from_dense

PROTOCOLS = [
    "10x-Chromium-v2",
    "10x-Chromium-v3",
    "inDrops",
    "Drop-seq",
    "sci-RNA-seq",
    "Smart-seq2",
    "CEL-Seq2",
]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_read_matrix_market_basic(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n"
        "% a comment\n"
        "3 2 2\n"
        "1 1 5\n"
        "3 2 1\n",
    )
    m = read_matrix_market(p)
    assert (m.n_cells, m.n_genes, m.nnz) == (3, 2, 2)
    assert m.to_dense().values.tolist() == [[5, 0], [0, 0], [0, 1]]


def test_read_matrix_market_real_field_accepts_integral(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 3.0\n",
    )
    assert read_matrix_market(p).counts.tolist() == [3]


def test_read_matrix_market_rejects_non_integral(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\n",
    )
    with pytest.raises(FormatError, match="non-integral"):
        read_matrix_market(p)


def test_read_matrix_market_rejects_bad_header(tmp_path):
    with pytest.raises(FormatError, match="banner"):
        read_matrix_market(write(tmp_path / "a.mtx", "not a matrix\n1 1 0\n"))
    with pytest.raises(FormatError, match="layout"):
        read_matrix_market(
            write(tmp_path / "b.mtx", "%%MatrixMarket matrix array integer general\n")
        )
    with pytest.raises(FormatError, match="symmetry"):
        read_matrix_market(
            write(
                tmp_path / "c.mtx",
                "%%MatrixMarket matrix coordinate integer symmetric\n1 1 0\n",
            )
        )


def test_read_matrix_market_rejects_duplicates(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 1\n1 1 2\n",
    )
    with pytest.raises(FormatError, match="duplicate"):
        read_matrix_market(p)


def test_read_matrix_market_rejects_negative_and_overflow(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 -2\n",
    )
    with pytest.raises(FormatError, match="negative"):
        read_matrix_market(p)
    p2 = write(
        tmp_path / "m2.mtx",
        f"%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 {2**31}\n",
    )
    with pytest.raises(FormatError, match="overflow"):
        read_matrix_market(p2)


def test_read_matrix_market_rejects_out_of_range(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1\n3 1 1\n",
    )
    with pytest.raises(FormatError, match="out of range"):
        read_matrix_market(p)


def test_read_matrix_market_checks_entry_count(tmp_path):
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n2 2 3\n1 1 1\n",
    )
    with pytest.raises(FormatError, match="expected 3 entries"):
        read_matrix_market(p)


def test_oversized_entry_count_gets_the_json_envelope(tmp_path, capsys):
    # the per-line scanner must not allocate what the size line declares
    p = write(
        tmp_path / "m.mtx",
        "%%MatrixMarket matrix coordinate integer general\n2 2 1000000000000\n1 1 1\n",
    )
    assert cli_main(["qc", "--matrix", str(p), "-o", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "FormatError",
        "message": "expected 1000000000000 entries, found 1",
    }


def test_size_line_beyond_int64_gets_the_json_envelope(tmp_path, capsys):
    big = "99999999999999999999"
    p = write(
        tmp_path / "m.mtx",
        f"%%MatrixMarket matrix coordinate integer general\n{big} 2 1\n{big} 1 1\n",
    )
    assert cli_main(["qc", "--matrix", str(p), "-o", str(tmp_path / "out")]) == 1
    assert json.loads(capsys.readouterr().err) == {
        "error": "FormatError",
        "message": f"size line '{big} 2 1' overflows 64-bit range",
    }


def test_matrix_market_round_trip(tmp_path):
    for seed in range(5):
        m = random_matrix(seed, 13, 9, density=0.3)
        path = tmp_path / f"rt{seed}.mtx"
        write_matrix_market(m, path)
        assert same_entries(read_matrix_market(path), m)


def test_matrix_market_gzip_sniffing(tmp_path):
    m = random_matrix(20, 6, 5)
    plain = tmp_path / "m.mtx"
    write_matrix_market(m, plain)
    gz = tmp_path / "m.mtx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    assert same_entries(read_matrix_market(gz), m)


INT_HEADER = "%%MatrixMarket matrix coordinate integer general\n"
REAL_HEADER = "%%MatrixMarket matrix coordinate real general\n"

# name -> (file text, whether the whole-array pass accepts it as it stands)
READER_CORPUS = {
    "plain": (INT_HEADER + "3 2 3\n1 1 5\n3 1 2\n2 2 7\n", True),
    "comment before size": (INT_HEADER + "% c\n\n3 2 1\n1 1 5\n", True),
    "comment in body": (INT_HEADER + "3 2 2\n1 1 5\n% note\n3 2 1\n", False),
    "trailing comment": (INT_HEADER + "3 2 2\n1 1 5\n3 2 1 % note\n", False),
    "indented comment": (INT_HEADER + "3 2 1\n  % note\n1 1 5\n", False),
    "blank lines in body": (INT_HEADER + "3 2 2\n1 1 5\n\n   \n3 2 1\n\n", True),
    "crlf": ((INT_HEADER + "3 2 2\n1 1 5\n3 2 1\n").replace("\n", "\r\n"), True),
    "lone cr": (INT_HEADER + "3 2 2\n1 1 5\r3 2 1\n", True),
    "tabs": (INT_HEADER + "3 2 2\n1\t1\t5\n 3 2\t1 \n", True),
    "unicode spaces": (INT_HEADER + "3 2 2\n1\xa01 5\n3\u20032 1\n", True),
    "plus sign": (INT_HEADER + "3 2 2\n+1 1 +5\n3 2 1\n", True),
    "leading zeros": (INT_HEADER + "3 2 1\n003 01 0005\n", True),
    "underscore": (INT_HEADER + "3 2 1\n1 1 1_0\n", False),
    "unicode digits": (INT_HEADER + "3 2 1\n1 1 \u0665\n", False),
    "zero count": (INT_HEADER + "3 2 2\n1 1 0\n2 2 4\n", True),
    "minus zero": (INT_HEADER + "3 2 1\n1 1 -0\n", True),
    "float in integer field": (INT_HEADER + "3 2 1\n1 1 3.0\n", False),
    "hex in integer field": (INT_HEADER + "3 2 1\n1 1 0x10\n", False),
    "real integral": (REAL_HEADER + "3 2 3\n1 1 3.0\n2 2 1e2\n3 1 +.7e1\n", True),
    "real zero": (REAL_HEADER + "3 2 2\n1 1 -0.0\n2 2 1e-400\n", True),
    "real coordinate": (REAL_HEADER + "3 2 1\n1.0 1 3\n", False),
    "real non-integral": (REAL_HEADER + "3 2 1\n1 1 2.5\n", False),
    "real negative non-integral": (REAL_HEADER + "3 2 1\n1 1 -2.5\n", False),
    "real negative": (REAL_HEADER + "3 2 1\n1 1 -2\n", False),
    "real nan": (REAL_HEADER + "3 2 1\n1 1 nan\n", False),
    "real inf": (REAL_HEADER + "3 2 1\n1 1 -inf\n", False),
    "real huge": (REAL_HEADER + "3 2 1\n1 1 1e400\n", False),
    "real underscore": (REAL_HEADER + "3 2 1\n1 1 1_0.0\n", False),
    "real count max": (REAL_HEADER + f"3 2 1\n1 1 {2**31 - 1}.0\n", True),
    "real over count max": (REAL_HEADER + f"3 2 1\n1 1 {2**31}.0\n", False),
    "count max": (INT_HEADER + f"3 2 1\n1 1 {2**31 - 1}\n", True),
    "2^31": (INT_HEADER + f"3 2 1\n1 1 {2**31}\n", False),
    "20 digits": (INT_HEADER + "3 2 1\n1 1 12345678901234567890\n", False),
    "20-digit coordinate": (INT_HEADER + "3 2 1\n12345678901234567890 1 1\n", False),
    "negative": (INT_HEADER + "3 2 1\n1 1 -2\n", False),
    "row out of range": (INT_HEADER + "3 2 1\n4 1 1\n", False),
    "zero column": (INT_HEADER + "3 2 1\n1 0 1\n", False),
    "too few": (INT_HEADER + "3 2 3\n1 1 1\n2 2 1\n", False),
    "too many": (INT_HEADER + "3 2 1\n1 1 1\n2 2 1\n", False),
    "only comments in body": (INT_HEADER + "3 2 2\n% only a comment\n\n", False),
    "empty body": (INT_HEADER + "3 2 2\n", False),
    "no entries": (INT_HEADER + "3 2 0\n", True),
    "no entries with comments": (INT_HEADER + "3 2 0\n% c\n\n", True),
    "no entries but one": (INT_HEADER + "3 2 0\n1 1 1\n", False),
    "four columns": (INT_HEADER + "3 2 1\n1 1 1 1\n", False),
    "two columns": (INT_HEADER + "3 2 1\n1 1\n", False),
    "ragged": (INT_HEADER + "3 2 2\n1 1 1\n2 2 1 7\n", False),
    "single column": (INT_HEADER + "3 2 3\n1\n1\n1\n", False),
    "duplicate": (INT_HEADER + "3 2 2\n1 1 1\n1 1 2\n", False),
    "unsorted": (INT_HEADER + "3 2 3\n3 2 1\n1 1 5\n2 1 2\n", True),
    "nul byte": (INT_HEADER + "3 2 1\n1 1 1\x00\n", False),
    "missing size": (INT_HEADER + "% c\n", False),
    "bad size": (INT_HEADER + "3 2\n", False),
}


def outcome(read, path):
    """Dimensions and triplets, or the FormatError message."""
    try:
        m = read(path)
    except FormatError as exc:
        return "error", str(exc)
    return "matrix", (m.n_cells, m.n_genes, m.triplets().tolist())


@pytest.mark.parametrize("name", sorted(READER_CORPUS))
@pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
def test_reader_matches_per_line_scanner(tmp_path, monkeypatch, name, compress):
    text, whole_array = READER_CORPUS[name]
    data = text.encode("utf-8")
    path = tmp_path / "m.mtx"
    path.write_bytes(gzip.compress(data) if compress else data)
    expected = outcome(_scan_matrix_market, path)
    scans = []

    def counting_scan(p):
        scans.append(p)
        return _scan_matrix_market(p)

    monkeypatch.setattr(scbench.ingest, "_scan_matrix_market", counting_scan)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(read_matrix_market, path)
    assert got == expected
    if expected[0] == "matrix":
        assert len(scans) == (0 if whole_array else 1)


def test_reader_corpus_errors_name_their_line(tmp_path):
    expected = {
        "trailing comment": "line 4: expected 'row col value'",
        "float in integer field": "line 3: bad integer value '3.0'",
        "real coordinate": "line 3: bad coordinate",
        "real nan": "line 3: non-integral count 'nan'",
        "2^31": f"line 3: count {2**31} overflows 32-bit range",
        "too few": "expected 3 entries, found 2",
        "too many": "more than 1 entries in file",
        "empty body": "expected 2 entries, found 0",
        "duplicate": "invalid matrix content: duplicate entry at cell 0, gene 0",
    }
    for name, message in expected.items():
        path = write(tmp_path / "m.mtx", READER_CORPUS[name][0])
        with pytest.raises(FormatError) as err:
            read_matrix_market(path)
        assert str(err.value) == message, name


def test_writer_matches_per_entry_writer_byte_for_byte(tmp_path):
    rng = np.random.default_rng(37)
    cases = [random_matrix(seed, 13, 9, density=0.3) for seed in range(3)]
    cases.append(from_dense(np.zeros((4, 3), dtype=np.int64)))
    big = from_dense(random_dense(None, 300, 200, density=0.6, max_count=10**6, rng=rng))
    assert big.nnz > 2 * _WRITE_CHUNK_ROWS
    cases.append(big)
    for i, m in enumerate(cases):
        write_matrix_market(m, tmp_path / f"fast{i}.mtx")
        naive_write_matrix_market(m, tmp_path / f"naive{i}.mtx")
        fast = (tmp_path / f"fast{i}.mtx").read_bytes()
        assert fast == (tmp_path / f"naive{i}.mtx").read_bytes()
        assert same_entries(read_matrix_market(tmp_path / f"fast{i}.mtx"), m)


def test_read_cell_annotations_order_and_fields(tmp_path):
    p = write(
        tmp_path / "cells.csv",
        "cell_id,method,replicate,cell_type,extra\n"
        "c1,Smart-seq2,r1,neuron,junk\n"
        "c2,Drop-seq,r2,,junk\n",
    )
    anns = read_cell_annotations(p)
    assert [a.cell_id for a in anns] == ["c1", "c2"]
    assert anns[0].cell_type == "neuron" and anns[1].cell_type is None
    assert anns[1].method == "Drop-seq"


def test_read_cell_annotations_accepts_all_protocol_names(tmp_path):
    rows = "".join(f"c{i},{m},r1\n" for i, m in enumerate(PROTOCOLS))
    p = write(tmp_path / "cells.csv", "cell_id,method,replicate\n" + rows)
    anns = read_cell_annotations(p)
    assert [a.method for a in anns] == PROTOCOLS


def test_read_cell_annotations_rejects_duplicates(tmp_path):
    p = write(
        tmp_path / "cells.csv",
        "cell_id,method,replicate\nc1,m,r\nc1,m,r\n",
    )
    with pytest.raises(FormatError, match="duplicate"):
        read_cell_annotations(p)


def test_read_cell_annotations_requires_columns(tmp_path):
    p = write(tmp_path / "cells.csv", "cell_id,method\nc1,m\n")
    with pytest.raises(FormatError, match="replicate"):
        read_cell_annotations(p)


def test_cell_annotation_round_trip(tmp_path):
    anns = [
        CellAnnotation("a", "m1", "r1", "t1"),
        CellAnnotation("b", "m2", "r2", None),
    ]
    path = tmp_path / "cells.csv"
    write_cell_annotations(anns, path)
    assert read_cell_annotations(path) == anns


def test_read_gene_annotations(tmp_path):
    p = write(tmp_path / "genes.csv", "gene_id,gene_name\ng1,A\ng2,B\ng3,C\n")
    assert read_gene_annotations(p) == ["g1", "g2", "g3"]


def test_read_gene_annotations_rejects_duplicates(tmp_path):
    p = write(tmp_path / "genes.csv", "gene_id\ng1\ng1\n")
    with pytest.raises(FormatError, match="duplicate"):
        read_gene_annotations(p)


def test_read_gene_annotations_requires_column(tmp_path):
    p = write(tmp_path / "genes.csv", "name\nx\n")
    with pytest.raises(FormatError, match="gene_id"):
        read_gene_annotations(p)


def test_gene_annotation_round_trip(tmp_path):
    ids = [f"g{i}" for i in range(7)]
    path = tmp_path / "genes.csv"
    write_gene_annotations(ids, path)
    assert read_gene_annotations(path) == ids


def test_attach_annotations_positional():
    m = random_matrix(30, 3, 4)
    anns = [CellAnnotation(f"x{i}", "m", "r") for i in range(3)]
    annotated, ordered = attach_annotations(m, anns, gene_ids=list("abcd"))
    assert annotated.cell_ids == ("x0", "x1", "x2")
    assert annotated.gene_ids == ("a", "b", "c", "d")
    assert ordered == anns
    with pytest.raises(DataError, match="do not match"):
        attach_annotations(m, anns[:2])


def test_attach_annotations_join_by_id():
    m = random_matrix(31, 3, 2).with_ids(cell_ids=("a", "b", "c"))
    anns = [
        CellAnnotation("c", "m", "r3"),
        CellAnnotation("a", "m", "r1"),
        CellAnnotation("b", "m", "r2"),
    ]
    annotated, ordered = attach_annotations(m, anns, join_by_id=True)
    assert [a.replicate for a in ordered] == ["r1", "r2", "r3"]
    assert annotated.cell_ids == ("a", "b", "c")
    with pytest.raises(DataError, match="missing"):
        attach_annotations(m, anns[:2], join_by_id=True)


def test_split_partitions_cells():
    m = random_matrix(32, 10, 6)
    anns = [
        CellAnnotation(m.cell_ids[i], f"m{i % 2}", f"r{(i // 2) % 2}")
        for i in range(10)
    ]
    splits = split_by_method_replicate(m, anns)
    assert len(splits) == 4
    subs = [sub for sub, _ in splits.values()]
    assert sum(s.n_cells for s in subs) == 10
    assert all(s.n_genes == 6 for s in subs)
    assert sum(s.nnz for s in subs) == m.nnz
    seen = [cid for s in subs for cid in s.cell_ids]
    assert sorted(seen) == sorted(m.cell_ids)


def test_split_single_group_is_identity():
    m = random_matrix(33, 5, 4)
    anns = [CellAnnotation(cid, "only", "r1") for cid in m.cell_ids]
    splits = split_by_method_replicate(m, anns)
    assert list(splits) == [("only", "r1")]
    sub, sub_anns = splits[("only", "r1")]
    assert same_matrix(sub, m) and sub_anns == anns


def test_split_membership_matches_annotation_filter():
    rng = np.random.default_rng(34)
    n = 40
    m = from_dense(random_dense(None, n, 8, rng=rng))
    anns = [
        CellAnnotation(
            m.cell_ids[i],
            PROTOCOLS[rng.integers(len(PROTOCOLS))],
            f"r{rng.integers(2)}",
        )
        for i in range(n)
    ]
    splits = split_by_method_replicate(m, anns)
    assert list(splits) == sorted(splits)
    for key, (sub, sub_anns) in splits.items():
        expected = [a for a in anns if (a.method, a.replicate) == key]
        assert sub_anns == expected
        assert list(sub.cell_ids) == [a.cell_id for a in expected]
    with pytest.raises(DataError, match="do not match"):
        split_by_method_replicate(m, anns[:-1])


def test_dense_csv_round_trip(tmp_path):
    # the normalize stage's CSV reads back to the in-memory matrix exactly
    m = random_matrix(36, 40, 12, density=0.7)
    write_matrix_market(m.transpose(), tmp_path / "m.mtx")
    assert cli_main(["normalize", "--matrix", str(tmp_path / "m.mtx"), "-o", str(tmp_path)]) == 0
    ids = default_cell_ids(m.n_cells), default_gene_ids(m.n_genes)
    expected, _ = preprocess_pipeline(m.with_ids(*ids))
    header, rows = read_table(tmp_path / "normalized_all_r1.csv")
    assert header == ["cell_id", *expected.gene_ids]
    assert tuple(r["cell_id"] for r in rows) == expected.cell_ids
    got = np.array([[float(r[g]) for g in expected.gene_ids] for r in rows])
    assert np.array_equal(got, expected.values)


def test_dense_csv_rejects_garbage(tmp_path):
    # read_table checks every row's field count against the header
    p = write(tmp_path / "short.csv", "# config: {}\ncell_id,g1,g2\nc1,1,2\nc2,3\n")
    with pytest.raises(FormatError, match=r"short\.csv:4: wrong field count"):
        read_table(p)
    p2 = write(tmp_path / "long.csv", "cell_id,g1\nc1,1\nc2,1,2\n")
    with pytest.raises(FormatError, match=r"long\.csv:3: wrong field count"):
        read_table(p2)
    p3 = write(tmp_path / "empty.csv", "# config: {}\n")
    with pytest.raises(FormatError, match="no header line"):
        read_table(p3)
