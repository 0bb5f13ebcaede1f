"""Tests of the benchmark's own logic: inputs, span algebra, statistics, checks."""
from __future__ import annotations

import json
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    "tiny",
    "two small splits",
    60,
    (
        workloads.SplitShape("plate", "r1", 2, 10, 0.3),
        workloads.SplitShape("droplet", "r1", 2, 12, 0.6),
    ),
    "pipeline",
)


def _files(inputs):
    return [p.read_bytes() for p in (inputs.matrix, inputs.cells, inputs.genes)]


def test_inputs_repeat_for_a_seed_and_change_with_it(tmp_path):
    a = workloads.generate_inputs(TINY, 5, tmp_path / "a")
    b = workloads.generate_inputs(TINY, 5, tmp_path / "b")
    c = workloads.generate_inputs(TINY, 6, tmp_path / "c")
    assert _files(a) == _files(b)
    assert a.nnz == b.nnz and a.truth == b.truth
    assert _files(a)[0] != _files(c)[0]
    assert a.split_cells == {"plate/r1": 20, "droplet/r1": 24}


def _span(i, parent, start, end, layer="cli", thread=1, name=None, cpu=0.0):
    return {"id": i, "parent": parent, "name": name or f"s{i}", "layer": layer,
            "thread": thread, "split": None, "facts": {}, "start": start, "end": end,
            "cpu": cpu}


def test_self_time_subtracts_the_union_of_overlapping_children():
    # root [0, 10]; two children on two threads overlap on [3, 5];
    # a third child sticks out past the root's end and is clipped
    recorded = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 5.0, "embed", thread=2),
        _span(2, 0, 3.0, 7.0, "cluster", thread=3),
        _span(3, 0, 9.0, 12.0, "report", thread=1),
        _span(4, 1, 2.0, 3.0, "cluster", thread=2),
    ]
    selfs = spans.self_times(recorded)
    assert selfs[0] == 10.0 - (6.0 + 1.0)
    assert selfs[1] == 4.0 - 1.0
    assert selfs[2] == 4.0
    assert selfs[4] == 1.0


def test_tracer_parents_worker_spans_under_the_pool_call():
    tracer = spans.Tracer()

    def job(key):
        with tracer.span("_compute_split", "cli", split=key):
            with tracer.span("tsne", "embed"):
                time.sleep(0.05)

    with tracer.span("cli_main", "cli"):
        with tracer.span("_parallel_map", "cli"):
            workers = [threading.Thread(target=job, args=(k,)) for k in ("a/r1", "b/r1")]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)
    pool = by_name["_parallel_map"][0]
    assert all(s["parent"] == pool["id"] for s in by_name["_compute_split"])
    assert {s["split"] for s in by_name["tsne"]} == {"a/r1", "b/r1"}
    selfs = spans.self_times(tracer.spans)
    # the two jobs ran at once, so the pool's self time is far below either job
    assert selfs[pool["id"]] < 0.5 * min(
        s["end"] - s["start"] for s in by_name["_compute_split"]
    )


def test_split_overlap_counts_split_cpu_time_against_pool_wall_time():
    recorded = [
        _span(0, None, 0.0, 10.0, name="cli_main"),
        _span(1, 0, 1.0, 9.0, name="_parallel_map"),
        # two splits open for the whole phase; one computed throughout, the
        # other waited for the GIL half the time
        _span(2, 1, 1.0, 9.0, name="_compute_split", thread=2, cpu=8.0),
        _span(3, 1, 1.0, 9.0, name="_compute_split", thread=3, cpu=4.0),
    ]
    recorded[2]["split"], recorded[3]["split"] = "a/r1", "b/r1"
    m = metrics.layer_metrics([recorded], 0, 0)
    assert m["cli.split_overlap"] == 1.5
    assert m["cli.self_s"] == 2.0 + 0.0 + 8.0 + 8.0


def test_summary_reports_median_quartiles_and_count():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 5.0, 4.0, 9.0, 6.0, 8.0]
    s = metrics.summarize(values)
    assert s == {"median": 5.5, "q1": 2.75, "q3": 8.25, "n": 10}
    assert [s["q1"], s["q3"]] == statistics.quantiles(values, n=4)[::2]
    assert metrics.summarize([4.5]) == {"median": 4.5, "q1": 4.5, "q3": 4.5, "n": 1}


def _write_pipeline_outputs(outdir: Path, n_cells: dict):
    outdir.mkdir(parents=True)
    for name in workloads.PIPELINE_TABLES + workloads.PIPELINE_FIGURES:
        (outdir / name).write_text(name)
    splits = [{"method": k.split("/")[0], "replicate": k.split("/")[1], "n_cells": n}
              for k, n in n_cells.items()]
    (outdir / "summary.json").write_text(json.dumps({"splits": splits}))


def test_error_rate_counts_a_failed_output_check(tmp_path):
    inputs = workloads.Inputs(tmp_path / "m", tmp_path / "c", tmp_path / "g", 0,
                              {"plate/r1": 20, "droplet/r1": 24}, {})
    ctx = {"workload": TINY, "inputs": inputs, "workdir": tmp_path, "reference": None}
    ok = [{"tag": "op0-pipeline", "code": 0}]
    ops = []

    good = tmp_path / "op0"
    _write_pipeline_outputs(good, inputs.split_cells)
    ops.append({"failures": checks.check_operation(ctx, good, ok)})

    missing = tmp_path / "op1"
    _write_pipeline_outputs(missing, inputs.split_cells)
    (missing / "silhouette.svg").unlink()
    ops.append({"failures": checks.check_operation(ctx, missing, ok)})

    changed = tmp_path / "op2"
    _write_pipeline_outputs(changed, inputs.split_cells)
    (changed / "clusters.csv").write_text("different bytes")
    ops.append({"failures": checks.check_operation(ctx, changed, ok)})

    wrong_cells = tmp_path / "op3"
    _write_pipeline_outputs(wrong_cells, {"plate/r1": 20, "droplet/r1": 23})
    ops.append({"failures": checks.check_operation(ctx, wrong_cells, ok)})

    crashed = tmp_path / "op4"
    _write_pipeline_outputs(crashed, inputs.split_cells)
    ops.append({"failures": checks.check_operation(
        ctx, crashed, [{"tag": "op4-pipeline", "code": 1}])})

    assert ops[0]["failures"] == []
    assert all(op["failures"] for op in ops[1:])
    assert metrics.error_count(ops) == (4, 5)


def test_benchmark_file_names_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER_UNITS
