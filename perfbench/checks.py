"""Output checks of one operation: exit codes, artifacts, cell counts, bytes."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import workloads


def log_tail(workdir: Path, tag: str) -> str:
    try:
        lines = (workdir / f"{tag}.log").read_text(errors="replace").splitlines()
    except OSError:
        return ""
    return " | ".join(lines[-3:])


def digests(base: Path, names: list[str]) -> dict:
    out = {}
    for name in names:
        path = base / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return out


def check_operation(ctx: dict, outdir: Path, processes: list[dict]) -> list[str]:
    """Every reason the operation counts as failed; empty when it passed."""
    wl, inputs, workdir = ctx["workload"], ctx["inputs"], ctx["workdir"]
    for p in processes:
        if p["code"] != 0:
            return [f"{p['tag']} exited {p['code']}: {log_tail(workdir, p['tag'])}"]
    expected = workloads.expected_artifacts(wl, inputs)
    missing = [name for name in expected if not (outdir / name).is_file()]
    if missing:
        return [f"missing artifacts: {missing}"]
    failures = []
    counts = written_cell_counts(wl, outdir)
    if counts != inputs.split_cells:
        failures.append(f"per-split n_cells {counts} != generated {inputs.split_cells}")
    got = digests(outdir, expected)
    if ctx.get("reference") is None:
        ctx["reference"] = got
    elif got != ctx["reference"]:
        differ = sorted(n for n in expected if got[n] != ctx["reference"][n])
        failures.append(f"artifacts differ from the first operation: {differ}")
    return failures


def written_cell_counts(wl, outdir: Path) -> dict:
    if wl.kind == "pipeline":
        summary = json.loads((outdir / "summary.json").read_text())
        return {f"{s['method']}/{s['replicate']}": s["n_cells"] for s in summary["splits"]}
    from scbench.report import read_table

    _, rows = read_table(outdir / "split" / "split_summary.csv")
    return {f"{r['method']}/{r['replicate']}": int(r["n_cells"]) for r in rows}
