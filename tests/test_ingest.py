"""File parsing, annotation joins, and per-(method, replicate) splitting."""
import gzip

import numpy as np
import pytest
from conftest import random_dense, random_matrix

from scbench import (
    CellAnnotation,
    DataError,
    FormatError,
    attach_annotations,
    read_cell_annotations,
    read_dense_csv,
    read_gene_annotations,
    read_matrix_market,
    split_by_method_replicate,
    write_cell_annotations,
    write_dense_csv,
    write_gene_annotations,
    write_matrix_market,
)
from scbench.matrix import from_dense

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


def test_matrix_market_round_trip(tmp_path):
    for seed in range(5):
        m = random_matrix(seed, 13, 9, density=0.3)
        path = tmp_path / f"rt{seed}.mtx"
        write_matrix_market(m, path)
        assert read_matrix_market(path).same_entries(m)


def test_matrix_market_gzip_sniffing(tmp_path):
    m = random_matrix(20, 6, 5)
    plain = tmp_path / "m.mtx"
    write_matrix_market(m, plain)
    gz = tmp_path / "m.mtx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    assert read_matrix_market(gz).same_entries(m)


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
    assert sub.equals(m) and sub_anns == anns


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
    rng = np.random.default_rng(36)
    em = random_matrix(36, 9, 5).to_dense()
    em = em.with_values(em.values + rng.random(em.values.shape))
    path = tmp_path / "expr.csv"
    write_dense_csv(em, path, comment='{"seed": 1}')
    back = read_dense_csv(path)
    assert back.cell_ids == em.cell_ids and back.gene_ids == em.gene_ids
    assert np.array_equal(back.values, em.values)


def test_dense_csv_rejects_garbage(tmp_path):
    p = write(tmp_path / "bad.csv", "cell_id,g1\nc1,notanumber\n")
    with pytest.raises(FormatError):
        read_dense_csv(p)
    p2 = write(tmp_path / "bad2.csv", "wrong,g1\nc1,1\n")
    with pytest.raises(FormatError, match="cell_id"):
        read_dense_csv(p2)
