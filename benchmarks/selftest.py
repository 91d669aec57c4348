#!/usr/bin/env python3
"""Self-test of the benchmark harness on tiny inputs (about a minute).

    python3 benchmarks/selftest.py

Checks, for every workload, that an untraced and a traced run print as
their last line the result object with exactly its four keys, emit every
metric ``BENCHMARK.json`` names for that mode with its declared unit and a
finite value, and fail no command; that two traced runs with the same seed
give identical counts; that spans of a traced command nest and their self
times add up to the command's duration; that uninstalling the tracer
restores the program; and that the benchmark refuses to run without the
program's sources.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import bench

ROOT = bench.ROOT
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "benchmarks" / "bench.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]  # fmt: skip
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_outputs(spec: dict) -> None:
    for w in spec["workloads"]:
        name = w["name"]
        counts = []
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"]), (1, None)):
            proc = run_bench(name, trace)
            expect(proc.returncode == 0, f"{name} trace={trace}: exit 0 ({proc.stderr[-300:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} trace={trace}: result keys",
            )
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{name} trace={trace}: every command correct",
            )
            metrics = result["metrics"]
            if declared is not None:
                want = {m["name"]: m["unit"] for m in declared}
                got = {k: v["unit"] for k, v in metrics.items()}
                expect(got == want, f"{name} trace={trace}: metric names and units match")
                expect(
                    all(
                        isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                        for v in metrics.values()
                    ),
                    f"{name} trace={trace}: values are finite numbers",
                )
            if trace:
                units = bench.PER_LAYER
                counts.append(
                    {k: v["value"] for k, v in metrics.items() if units[k] in ("count", "bytes")}
                )
        if len(counts) == 2:
            expect(counts[0] == counts[1], f"{name}: counts repeat between traced runs")


def check_spans() -> None:
    import tracer as tr
    import workloads

    bench.pin_blas_threads()
    bench.import_redlab()
    os.chdir(ROOT)
    import redlab.background
    import redlab.detect

    plan = workloads.prepare("detect-many-offsets", bench.WORK / "selftest", 5, tiny=True)
    runner = bench.Runner("detect-many-offsets")
    tracer = tr.Tracer()
    tracer.install()
    try:
        out = runner.run(plan.cycle[0])
        spans = tracer.take()
    finally:
        tracer.uninstall()
    expect(not out.problems, "traced command passes its checks")
    expect(tr.nesting_errors(spans) == [], "spans nest inside their parents")
    roots = [s for s in spans if s[3] == -1]
    expect(len(roots) == 1 and roots[0][0] == "cli.main", "one cli.main root per command")
    summary = tr.summarize(spans)
    total_self = sum(row["self_s"] for row in summary.values())
    root_s = roots[0][2] - roots[0][1]
    expect(abs(total_self - root_s) <= 1e-6 * root_s, "self times add up to the root span")
    names = {s[0] for s in spans}
    expect(
        {"background.cumulants", "quadform.fit", "detect.offset_laws", "detect.cdf_map",
         "grid.as_map", "imgio.read_pgm", "imgio.write_pfm"} <= names,
        "spans cover every layer of detect",
    )  # fmt: skip
    parents = {spans[s[3]][0] for s in spans if s[0] == "background.cumulants"}
    expect(parents == {"detect.offset_laws"}, "cumulants spans sit under offset_laws")
    expect(
        redlab.detect.cumulants is redlab.background.cumulants
        and not hasattr(redlab.detect.cumulants, "__wrapped__")
        and not hasattr(redlab.detect.OffsetLawTable.cdf_map, "__wrapped__"),
        "uninstall restores the program",
    )
    bad = [("cli.main", 0.0, 1.0, -1), ("grid.as_map", 0.5, 1.5, 0), ("quadform.fit", 0, 1, -1)]
    expect(len(tr.nesting_errors(bad)) == 2, "nesting check flags a bad tree")


def check_bare_directory() -> None:
    bare = ROOT / bench.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(path, bare / "benchmarks")
    proc = run_bench("detect-many-offsets", 0, cwd=bare)
    expect(
        proc.returncode != 0 and not proc.stdout.strip(),
        "without the program's sources: nonzero exit, no result",
    )
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        {m["name"] for m in spec["per_layer"]} == set(bench.PER_LAYER)
        and {m["name"] for m in spec["end_to_end"]} == set(bench.END_TO_END)
        and [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
        "BENCHMARK.json names the harness's workloads and metrics",
    )
    check_outputs(spec)
    check_bare_directory()
    check_spans()
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
