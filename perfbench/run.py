"""scbench benchmark: end-to-end run cost, per-module layer times and quality.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. The workload's inputs are generated from --seed
with scbench.synth. An operation is one or two scbench CLI processes; the
load is a closed loop with one client, so each operation starts when the
previous one has exited, and operations repeat until --seconds have passed.

--trace 0 runs each operation as fresh child processes and reports the
end-to-end metrics (median over operations). --trace 1 runs one such
operation as the untraced reference, then traced operations whose child
instruments every scbench module boundary in-process, and reports the
per-layer metrics and the tracing overhead. `--workload all` runs both modes
on every workload and prints everything.

Every operation's outputs are checked; a failed check counts the operation
as failed, and the run exits 1. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. Details,
including machine facts, go to .perfbench_out/ and spans to
.perfbench_out/spans-*.jsonl.
"""
from __future__ import annotations

import os

# pinned before numpy loads, here and in every child (inherited environment)
CORES = len(os.sched_getaffinity(0))
THREAD_ENV = {
    "SCBENCH_THREADS": str(CORES),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
# a child still running this long after its mode started is killed, so a
# run always ends within three minutes, with the operation counted as failed
RUN_LIMIT_S = 140
# extra start-ups per untraced run, so setup_s is a median of several samples
# even when only two operations fit in the run
SETUP_PROBES = 6

if not (SRC / "scbench" / "cli.py").is_file():
    sys.stderr.write(f"perfbench: no scbench sources under {SRC}; run from a repository checkout\n")
    sys.exit(2)
sys.path.insert(0, str(SRC))

import checks  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def host_steal_s() -> float | None:
    """CPU time the hypervisor gave to others while this guest wanted it."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if fields[0] != "cpu" or len(fields) < 9:
        return None
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def steal_share(since_s: float | None, started: float) -> float | None:
    """Stolen share of the cores' time since `started`; None where unknown."""
    now_s = host_steal_s()
    if since_s is None or now_s is None:
        return None
    return (now_s - since_s) / ((time.monotonic() - started) * CORES)


def machine_facts() -> dict:
    import numpy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cores_available": CORES,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
        "program_seed": workloads.PROGRAM_SEED,
    }


# --------------------------------------------------------------- processes


def run_process(ctx: dict, cli_args: list[str], tag: str, spans: Path | None = None) -> dict:
    """Spawn one CLI child and reap it with its own rusage."""
    workdir = ctx["workdir"]
    timeout = max(1.0, ctx["kill_at"] - time.monotonic())
    stamp = workdir / f"{tag}.stamp.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--stamp", str(stamp)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", *cli_args]
    with open(workdir / f"{tag}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exited = time.monotonic()
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        entry = json.loads(stamp.read_text())
    except (OSError, ValueError):
        entry = {"entered": exited, "cpu": usage.ru_utime + usage.ru_stime}
    return {
        "tag": tag,
        "code": proc.returncode,
        "wall_s": exited - spawned,
        # start-up CPU time: unlike start-up wall time it does not count
        # waiting for a core, which other tenants of a shared host vary
        "setup_s": entry["cpu"],
        "setup_wall_s": entry["entered"] - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


# -------------------------------------------------------------- operations


def run_operation(ctx: dict, traced: bool) -> dict:
    wl, inputs, workdir = ctx["workload"], ctx["inputs"], ctx["workdir"]
    index = ctx["ops_started"]
    ctx["ops_started"] += 1
    outdir = workdir / f"op{index:03d}"
    processes, span_files = [], []
    for cli_args in workloads.command_lines(wl, inputs, outdir):
        tag = f"op{index:03d}-{cli_args[0]}"
        spans = workdir / f"{tag}.spans.jsonl" if traced else None
        processes.append(run_process(ctx, cli_args, tag, spans))
        span_files.append(spans)
        if processes[-1]["code"] != 0:
            break
    op = {
        "index": index,
        "traced": traced,
        "outdir": outdir,
        "wall_s": sum(p["wall_s"] for p in processes),
        "setup_s": sum(p["setup_s"] for p in processes),
        "setup_wall_s": sum(p["setup_wall_s"] for p in processes),
        "cpu_s": sum(p["cpu_s"] for p in processes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in processes),
        "failures": checks.check_operation(ctx, outdir, processes),
    }
    op["cells_per_s"] = wl.n_cells / op["wall_s"]
    if traced and not op["failures"]:
        op["spans"] = [
            [json.loads(line) for line in path.read_text().splitlines()]
            for path in span_files
        ]
    return op


def once_checks(ctx: dict, first: dict) -> list[str]:
    """Checks run once per invocation, outside the timed loop."""
    from scbench.ingest import read_cell_annotations, read_matrix_market

    wl, inputs, workdir = ctx["workload"], ctx["inputs"], ctx["workdir"]
    outdir = first["outdir"]
    failures = []
    if wl.kind == "pipeline":
        redraw = workdir / "redraw"
        p = run_process(ctx, ["report", "--input-dir", str(outdir), "--output-dir", str(redraw)],
                        "report-redraw")
        if p["code"] != 0:
            failures.append(f"report exited {p['code']}: {checks.log_tail(workdir, 'report-redraw')}")
        elif checks.digests(redraw, list(workloads.PIPELINE_FIGURES)) != checks.digests(
            outdir, list(workloads.PIPELINE_FIGURES)
        ):
            failures.append("report --input-dir does not redraw the pipeline's SVGs byte-identically")
        splits = json.loads((outdir / "summary.json").read_text())["splits"]
        ctx["ari"] = {f"{s['method']}/{s['replicate']}": s.get("ari") for s in splits}
        if None in ctx["ari"].values():
            failures.append("summary.json lacks an ari for a split with known cell types")
        return failures

    entries = 0
    for key, n_cells in inputs.split_cells.items():
        stem = workloads.split_stem(key)
        m = read_matrix_market(outdir / "split" / f"matrix_{stem}.mtx")
        entries += m.nnz
        if m.n_genes != n_cells:  # the file is genes x cells
            failures.append(f"{key}: split matrix has {m.n_genes} cells, expected {n_cells}")
        written = read_cell_annotations(outdir / "split" / f"cells_{stem}.csv")
        if [a.cell_type for a in written] != inputs.truth[key]:
            failures.append(f"{key}: split cell types differ from the generated ones")
    if entries != inputs.nnz:
        failures.append(f"split outputs hold {entries} entries, input has {inputs.nnz}")
    return failures


# -------------------------------------------------------------------- runs


def prepare(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    started = time.monotonic()
    inputs = workloads.generate_inputs(wl, seed, workdir / "input")
    ctx = {
        "workload": wl,
        "inputs": inputs,
        "workdir": workdir,
        "seed": seed,
        "generate_s": time.monotonic() - started,
        "reference": None,
        "ops_started": 0,
        "kill_at": time.monotonic() + RUN_LIMIT_S,
    }
    # compiles and caches the modules so no operation pays for it
    run_process(ctx, ["--help"], "warmup")
    return ctx


def finish_ops(ctx: dict, ops: list[dict]) -> None:
    """Run the once-per-invocation checks; a failure fails the first operation."""
    first = ops[0]
    if not first["failures"]:
        first["failures"] += once_checks(ctx, first)


def setup_probes(ctx: dict, first: dict) -> list[float]:
    """Start-up samples from CLI children that only print help.

    Each sample sums one start-up per process of an operation, like an
    operation's own setup_s; a probe that exits non-zero fails the first
    operation.
    """
    wl, inputs, workdir = ctx["workload"], ctx["inputs"], ctx["workdir"]
    n_processes = len(workloads.command_lines(wl, inputs, workdir))
    samples = []
    for i in range(SETUP_PROBES):
        probes = [run_process(ctx, ["--help"], f"setup{i}-{j}") for j in range(n_processes)]
        for p in probes:
            if p["code"] != 0:
                first["failures"].append(f"{p['tag']} exited {p['code']}")
        samples.append(sum(p["setup_s"] for p in probes))
    return samples


def untraced_run(ctx: dict, seconds: float) -> dict:
    started, steal = time.monotonic(), host_steal_s()
    ctx["kill_at"] = started + RUN_LIMIT_S
    ops = []
    deadline = started + seconds
    while not ops or time.monotonic() < deadline:
        ops.append(run_operation(ctx, traced=False))
        if len(ops) > 1:
            shutil.rmtree(ops[-1]["outdir"], ignore_errors=True)
    stolen = steal_share(steal, started)
    finish_ops(ctx, ops)
    samples = {name: [op[name] for op in ops if not op["failures"]]
               for name in metrics.END_TO_END_UNITS}
    samples["setup_s"] += setup_probes(ctx, ops[0])
    summary = {name: metrics.summarize(v) for name, v in samples.items() if v}
    return {"ops": ops, "summary": summary, "units": metrics.END_TO_END_UNITS,
            "ari": ctx.get("ari"), "host_steal_share": stolen}


def traced_run(ctx: dict, seconds: float, untraced_wall: float | None = None) -> dict:
    ctx["kill_at"] = time.monotonic() + RUN_LIMIT_S
    deadline = time.monotonic() + seconds
    ops = [run_operation(ctx, traced=False)]
    while len(ops) < 2 or time.monotonic() < deadline:
        ops.append(run_operation(ctx, traced=True))
    finish_ops(ctx, ops)
    traced = [op for op in ops if op["traced"] and not op["failures"]]
    per_op = []
    for op in traced:
        files = [p for p in op["outdir"].rglob("*") if p.is_file()]
        per_op.append(metrics.layer_metrics(op["spans"], len(files), sum(p.stat().st_size for p in files)))
    baseline = untraced_wall if untraced_wall is not None else ops[0]["wall_s"]
    summary, design = {}, []
    if per_op:
        for name in metrics.PER_LAYER_UNITS:
            if name == "bench.trace_overhead_ratio":
                values = [op["wall_s"] / baseline for op in traced]
            else:
                values = [m[name] for m in per_op]
            summary[name] = metrics.summarize(values)
        design = metrics.design_checks(ctx["workload"].name, per_op[0])
        write_spans(ctx, traced)
    result = {"ops": ops, "summary": summary, "units": metrics.PER_LAYER_UNITS, "design": design}
    if traced:
        walls = metrics.summarize([op["wall_s"] for op in traced])
        result["overhead"] = {"traced_s": walls["median"], "n": walls["n"], "untraced_s": baseline}
    return result


def write_spans(ctx: dict, traced: list[dict]) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{ctx['workload'].name}-seed{ctx['seed']}.jsonl"
    with open(path, "w") as fh:
        for op in traced:
            for proc, spans in enumerate(op["spans"]):
                for s in spans:
                    fh.write(json.dumps({"op": op["index"], "process": proc, **s}) + "\n")


# ---------------------------------------------------------------- printing


def print_table(title: str, result: dict) -> None:
    failed, attempted = metrics.error_count(result["ops"])
    print(f"== {title}: error_rate {failed}/{attempted} operations failed")
    for op in result["ops"]:
        for reason in op["failures"]:
            print(f"   FAILED op {op['index']}: {reason}")
    print(f"   {'metric':34} {'unit':8} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, s in result["summary"].items():
        unit = result["units"][name]
        print(f"   {name:34} {unit:8} {s['n']:>3} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}")
    if result.get("host_steal_share") is not None:
        print(f"   host steal during the operations: {result['host_steal_share']:.1%} of core time")
    if result.get("ari"):
        print(f"   ari per split (from summary.json): {result['ari']}")
    if "overhead" in result:
        o = result["overhead"]
        print(f"   tracing overhead: traced wall {o['traced_s']:.3f} s (median of {o['n']}) vs "
              f"untraced {o['untraced_s']:.3f} s, ratio {o['traced_s'] / o['untraced_s']:.4f}")
    for text, ok in result.get("design", []):
        print(f"   design {'ok ' if ok else 'NOT'} {text}")


def result_line(results: list[tuple[str, dict]], prefix: bool) -> dict:
    failed = attempted = 0
    values = {}
    for workload, result in results:
        f, a = metrics.error_count(result["ops"])
        failed, attempted = failed + f, attempted + a
        for name, s in result["summary"].items():
            key = f"{workload}/{name}" if prefix else name
            values[key] = {"value": s["median"], "unit": result["units"][name]}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": values}


def save(record: dict, name: str) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / name, "w") as fh:
        json.dump(record, fh, indent=1, default=str)


def strip(result: dict) -> dict:
    ops = [{k: v for k, v in op.items() if k != "spans"} for op in result["ops"]]
    return {**result, "ops": ops}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    facts = machine_facts()
    print("machine " + json.dumps(facts, sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)
    results = []
    for name in names:
        ctx = prepare(name, args.seed)
        try:
            wl = ctx["workload"]
            print(f"workload {name}: {wl.n_cells} cells x {wl.n_genes} genes, "
                  f"{len(wl.splits)} splits, {ctx['inputs'].nnz} entries, "
                  f"inputs generated in {ctx['generate_s']:.2f} s")
            untraced_wall = None
            for mode in modes:
                if mode == 0:
                    result = untraced_run(ctx, args.seconds)
                    untraced_wall = result["summary"].get("wall_s", {}).get("median")
                else:
                    result = traced_run(ctx, args.seconds, untraced_wall)
                title = f"{name} seed {args.seed} trace {mode}"
                print_table(title, result)
                save({"workload": name, "seed": args.seed, "trace": mode, "seconds": args.seconds,
                      "machine": facts, "shape": str(wl), **strip(result)},
                     f"result-{name}-seed{args.seed}-trace{mode}.json")
                results.append((name, result))
        finally:
            shutil.rmtree(ctx["workdir"], ignore_errors=True)
    line = result_line(results, prefix=args.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
