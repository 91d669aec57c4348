#!/usr/bin/env python3
"""Benchmark of the ``redlab`` command line.

One workload per process, driven closed loop by a single client: the next
command starts when the previous one returns.  Commands go through
``redlab.cli.main`` in this process, on seeded PGM inputs the benchmark
writes first; every command's outputs are checked against oracles that do
not use redlab's code, outside the timed span.

Run one workload (the last stdout line is the JSON result)::

    python3 benchmarks/bench.py --workload detect-many-offsets --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the workload's command cycle and reports
the per-layer metrics of one cycle.  Run every workload, untraced and
traced, and print a table (``--quick`` measures for one second a run and
finishes in a few minutes)::

    python3 benchmarks/bench.py --all [--quick] [--seed 1]

Reported times are wall times scaled to a reference machine speed by the
calibration loop of ``calibrate.py``; the raw wall times are printed as
``wall.*`` and kept in the report.  BLAS runs on one thread.  Each run
writes a report with run metadata, per-command times and the sha256 of
every output file to ``benchmarks/_out/``.  The harness checks itself
with ``python3 benchmarks/selftest.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Paths handed to the CLI are relative to ROOT, so manifests repeat.
WORK = Path("benchmarks") / "_work"
OUT = Path("benchmarks") / "_out"
WORKLOADS = ("detect-many-offsets", "rank-paper", "denoise-large")
SETUP_REPS = 3

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "background.cumulants.calls": "count",
    "background.cumulants.s": "s",
    "background.cumulants.us_per_call": "us",
    "quadform.fit.calls": "count",
    "quadform.fit.s": "s",
    "detect.offset_laws.s": "s",
    "detect.offset_laws.self_s": "s",
    "detect.offset_laws.offsets_evaluated": "count",
    "detect.offset_laws.offsets_per_s": "1/s",
    "detect.laws.wood_f": "count",
    "detect.laws.gamma_two_moment": "count",
    "detect.laws.point_mass": "count",
    "detect.n_detected": "count",
    "detect.cdf_map.s": "s",
    "detect.quantile_map.s": "s",
    "grid.as_map.calls": "count",
    "grid.as_map.s": "s",
    "lattice.build_graph.calls": "count",
    "lattice.build_graph.s": "s",
    "lattice.alternate_minimization.calls": "count",
    "lattice.alternate_minimization.s": "s",
    "lattice.anchor_success_ratio": "ratio",
    "lattice.inf_scores": "count",
    "denoise.nlmeans_threshold.s": "s",
    "denoise.nlmeans_a_priori_threshold.s": "s",
    "quadform.quantile.calls": "count",
    "quadform.quantile.s": "s",
    "imgio.read_s": "s",
    "imgio.write_s": "s",
    "imgio.bytes_written": "bytes",
    "trace.overhead_frac": "ratio",
}


def pin_blas_threads() -> None:
    """Run BLAS on one thread, whatever the machine's core count.  A
    second BLAS thread contends with other tenants of a shared machine and
    makes n=400 products erratic; one thread keeps numbers comparable
    across machines.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_redlab() -> float:
    """Import the CLI from this checkout's sources; return the seconds it
    took (numpy, scipy and every redlab module load here)."""
    src = ROOT / "src"
    if not (src / "redlab" / "__init__.py").is_file():
        raise SystemExit(f"bench: no redlab sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import redlab.cli  # noqa: F401

    seconds = time.perf_counter() - start
    found = Path(sys.modules["redlab"].__file__).resolve().parent
    if found != (src / "redlab").resolve():
        raise SystemExit(f"bench: imported redlab from {found}, not {src}")
    return seconds


def blas_info() -> dict:
    """BLAS build name and the thread count each loaded BLAS library
    reports (read from the library itself)."""
    import ctypes

    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": build.get("name"), "version": build.get("version")}
    except (TypeError, KeyError):
        info = {"name": None, "version": None}
    with open("/proc/self/maps") as fh:
        libs = sorted(
            {
                p[-1]
                for p in (line.split() for line in fh)
                if len(p) >= 6 and Path(p[-1]).name.startswith("lib") and "blas" in p[-1].lower()
            }
        )
    threads = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
            "MKL_Get_Max_Threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(lib).name] = int(fn())
                break
    info["threads"] = threads
    return info


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git;
    None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_sha256(src: Path) -> str:
    """Digest of the program's sources, which identifies the code even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def reset_caches() -> None:
    """Empty redlab's in-process caches, as a fresh ``redlab`` process
    starts, so every command pays what a CLI invocation pays."""
    for name, mod in list(sys.modules.items()):
        if name != "redlab" and not name.startswith("redlab."):
            continue
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") and "cache" in attr and isinstance(obj, dict):
                obj.clear()
            elif callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@dataclass
class Outcome:
    label: str
    seconds: float  # wall time
    problems: list[str]
    stats: dict = field(default_factory=dict)


class Runner:
    """Runs commands through ``redlab.cli.main``, times them, checks them,
    and keeps every outcome."""

    def __init__(self, workload: str):
        self.workload = workload
        self.outcomes: list[Outcome] = []
        self.first_digests: dict[str, dict] = {}
        self.last_seconds = 0.0  # wall time of the previous command
        self.pass_times: list[float] = []  # calibration passes, see calibrate.py

    def speed_factor(self) -> float:
        """Factor from this run's wall times to reference-speed times."""
        from calibrate import speed_factor

        return speed_factor(self.workload, self.pass_times)

    def run(self, cmd) -> Outcome:
        from calibrate import passes_for, run_passes

        cli = sys.modules["redlab.cli"]
        self.pass_times += run_passes(self.workload, passes_for(self.workload, self.last_seconds))
        shutil.rmtree(cmd.outdir, ignore_errors=True)
        reset_caches()
        gc.collect()
        problems: list[str] = []
        start = time.perf_counter()
        try:
            status = cli.main(list(cmd.argv))  # looked up now: may be the traced wrapper
        except SystemExit as exc:
            status = exc.code
        except Exception:  # the loop goes on; the failure is counted
            status = None
            problems.append(traceback.format_exc(limit=3))
        seconds = time.perf_counter() - start
        self.pass_times += run_passes(self.workload, passes_for(self.workload, seconds))
        self.last_seconds = seconds
        stats = {}
        if status == 0:
            try:
                problems, stats = cmd.check()
            except Exception:  # missing or malformed output
                problems = [traceback.format_exc(limit=3)]
        elif status is not None:
            problems.append(f"exit status {status}")
        digests = {
            name: hashlib.sha256((cmd.outdir / name).read_bytes()).hexdigest()
            for name in cmd.digested
            if (cmd.outdir / name).is_file()
        }
        if digests != self.first_digests.setdefault(cmd.label, digests):
            problems.append("outputs differ from an earlier run of the same command")
        out = Outcome(cmd.label, seconds, problems, stats)
        self.outcomes.append(out)
        return out


def setup(name: str, seed: int, tiny: bool, runner: Runner, import_s: float):
    """Generate inputs and run the warm-up command ``SETUP_REPS`` times;
    set-up time is the import plus the median repetition."""
    import workloads

    reps = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        plan = workloads.prepare(name, WORK / name, seed, tiny)
        generate_s = time.perf_counter() - start
        reps.append(generate_s + runner.run(plan.warmup).seconds)
    return plan, import_s + statistics.median(reps), reps


def measure_end_to_end(plan, seconds: float, runner: Runner) -> list[Outcome]:
    """Closed loop over the command cycle.  A new command starts only if
    the median command so far still fits in ``seconds``; at least one runs."""
    timed = []
    start = time.perf_counter()
    for cmd in itertools.cycle(plan.cycle):
        timed.append(runner.run(cmd))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(o.seconds for o in timed) > seconds:
            return timed
    raise AssertionError("unreachable")


def _cycle_layers(spans: dict, extra: dict, overhead: float, speed: float) -> dict:
    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    cum_calls, cum_s = get("background.cumulants", "calls"), get("background.cumulants", "s")
    laws_s = get("detect.offset_laws", "s")
    m = {
        "background.cumulants.calls": cum_calls,
        "background.cumulants.s": cum_s,
        "background.cumulants.us_per_call": 1e6 * cum_s / cum_calls if cum_calls else 0.0,
        "quadform.fit.calls": get("quadform.fit", "calls"),
        "quadform.fit.s": get("quadform.fit", "s"),
        "detect.offset_laws.s": laws_s,
        "detect.offset_laws.self_s": get("detect.offset_laws", "self_s"),
        "detect.offset_laws.offsets_evaluated": extra["offsets_evaluated"],
        "detect.offset_laws.offsets_per_s": extra["offsets_evaluated"] / laws_s if laws_s else 0.0,
        "detect.laws.wood_f": extra["wood_f"],
        "detect.laws.gamma_two_moment": extra["gamma_two_moment"],
        "detect.laws.point_mass": extra["point_mass"],
        "detect.n_detected": extra["n_detected"],
        "detect.cdf_map.s": get("detect.cdf_map", "s"),
        "detect.quantile_map.s": get("detect.quantile_map", "s"),
        "grid.as_map.calls": get("grid.as_map", "calls"),
        "grid.as_map.s": get("grid.as_map", "s"),
        "lattice.build_graph.calls": get("lattice.build_graph", "calls"),
        "lattice.build_graph.s": get("lattice.build_graph", "s"),
        "lattice.alternate_minimization.calls": get("lattice.alternate_minimization", "calls"),
        "lattice.alternate_minimization.s": get("lattice.alternate_minimization", "s"),
        "lattice.anchor_success_ratio": (
            extra["n_success"] / extra["n_anchors"] if extra["n_anchors"] else 0.0
        ),
        "lattice.inf_scores": extra["inf_scores"],
        "denoise.nlmeans_threshold.s": get("denoise.nlmeans_threshold", "s"),
        "denoise.nlmeans_a_priori_threshold.s": get("denoise.nlmeans_a_priori_threshold", "s"),
        "quadform.quantile.calls": get("quadform.quantile", "calls"),
        "quadform.quantile.s": get("quadform.quantile", "s"),
        "imgio.read_s": get("imgio.read_pgm", "self_s") + get("imgio.read_pfm", "self_s"),
        "imgio.write_s": get("imgio.write_pgm", "self_s") + get("imgio.write_pfm", "self_s"),
        "imgio.bytes_written": extra["bytes_written"],
        "trace.overhead_frac": overhead,
    }
    assert m.keys() == PER_LAYER.keys()
    for name, unit in PER_LAYER.items():
        if unit in ("s", "us"):
            m[name] *= speed
        elif unit == "1/s":
            m[name] /= speed
    return m


def _merge(into: dict, summary: dict) -> None:
    for name, row in summary.items():
        acc = into.setdefault(name, dict.fromkeys(row, 0))
        for key, value in row.items():
            acc[key] += value


def measure_layers(plan, seconds: float, runner: Runner):
    """Alternate an untraced and a traced pass over the command cycle
    until the next pair would not fit in ``seconds`` (at least one pair).
    Returns the per-layer metrics of one cycle and the span summaries.

    Counts must repeat exactly from cycle to cycle; times are medians over
    the traced cycles, at reference speed; the tracing overhead compares
    the wall time of the two passes.
    """
    import tracer as tr

    tables, written = [], []
    tracer = tr.Tracer(
        observers={
            "detect.offset_laws": lambda a, k, result: tables.append(result),
            "imgio.write_pgm": lambda a, k, result: written.append(a[0] if a else k["path"]),
            "imgio.write_pfm": lambda a, k, result: written.append(a[0] if a else k["path"]),
        }
    )
    cycles, plain_s, traced_s = [], 0.0, 0.0
    start = time.perf_counter()
    while True:
        plain_s += sum(runner.run(cmd).seconds for cmd in plan.cycle)
        spans_by_name: dict = {}
        extra = dict.fromkeys(
            ("offsets_evaluated", "wood_f", "gamma_two_moment", "point_mass", "n_detected",
             "n_success", "n_anchors", "inf_scores", "bytes_written"), 0,
        )  # fmt: skip
        tracer.install()
        try:
            for cmd in plan.cycle:
                out = runner.run(cmd)
                spans = tracer.take()
                out.problems += tr.nesting_errors(spans)[:5]
                traced_s += out.seconds
                _merge(spans_by_name, tr.summarize(spans))
                extra["bytes_written"] += sum(os.path.getsize(p) for p in written)
                written.clear()
                for key in ("n_detected", "n_success", "n_anchors", "inf_scores"):
                    extra[key] += out.stats.get(key, 0)
        finally:
            tracer.uninstall()
        for table in tables:  # read after uninstall: these calls stay untraced
            for key, count in table.fallback_counts().items():
                extra[key] += count
            extra["offsets_evaluated"] += int(
                table.mask.sum() if table.mask is not None else table.kind.size
            )
        tables.clear()
        cycles.append((spans_by_name, extra))
        elapsed = time.perf_counter() - start
        if elapsed * (len(cycles) + 1) / len(cycles) > seconds:
            break
    overhead = traced_s / plain_s - 1.0
    per_cycle = [_cycle_layers(s, e, overhead, runner.speed_factor()) for s, e in cycles]
    metrics, problems = {}, []
    for name, unit in PER_LAYER.items():
        values = [m[name] for m in per_cycle]
        exact = unit in ("count", "bytes")
        if exact and len(set(values)) != 1:
            problems.append(f"{name} differs between cycles: {values}")
        metrics[name] = values[0] if exact else statistics.median(values)
    return metrics, [s for s, _ in cycles], problems


def run_one(args) -> int:
    pin_blas_threads()
    import_s = import_redlab()
    os.chdir(ROOT)
    runner = Runner(args.workload)
    plan, setup_wall, setup_reps = setup(args.workload, args.seed, args.tiny, runner, import_s)
    report = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "tiny": args.tiny,
            "git_sha": git_sha(ROOT),
            "src_sha256": src_sha256(ROOT / "src"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
            "blas": blas_info(),
            "machine": platform.machine(),
        },
        "setup": {"import_s": import_s, "reps_s": setup_reps, "wall_s": setup_wall},
    }
    harness_problems: list[str] = []
    if args.trace:
        metrics, span_cycles, harness_problems = measure_layers(plan, args.seconds, runner)
        units = PER_LAYER
        report["spans_per_cycle"] = span_cycles
    else:
        timed = measure_end_to_end(plan, args.seconds, runner)
        ok = sum(1 for o in timed if not o.problems)
        wall = {
            "ops_per_s": ok / sum(o.seconds for o in timed),
            "op_p50_s": statistics.median(o.seconds for o in timed),
            "setup_s": setup_wall,
        }
        speed = runner.speed_factor()
        metrics = {
            "ops_per_s": wall["ops_per_s"] / speed,
            "op_p50_s": wall["op_p50_s"] * speed,
            "setup_s": wall["setup_s"] * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        report["op_samples"] = len(timed)
        report["wall"] = wall
    failed = sum(1 for o in runner.outcomes if o.problems)
    attempted = len(runner.outcomes)
    report["commands"] = [
        {"label": o.label, "seconds": o.seconds, "ok": not o.problems} for o in runner.outcomes
    ]
    report["digests"] = runner.first_digests
    report["problems"] = harness_problems + [
        f"{o.label}: {p}" for o in runner.outcomes for p in o.problems
    ][:50]
    report["error_rate"] = failed / attempted
    report["speed_factor"] = runner.speed_factor()
    report["calibration_pass_s"] = runner.pass_times
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    (ROOT / OUT).mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (ROOT / path).write_text(json.dumps(report, indent=1, default=str) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} blas={report['meta']['blas']}")
    for problem in report["problems"][:10]:
        print(f"! {problem.strip()}")
    print(f"{args.workload} error_rate {report['error_rate']!r} ({failed}/{attempted} commands)")
    print(f"{args.workload} speed_factor {report['speed_factor']!r}")
    if not args.trace:
        print(f"{args.workload} op_samples {report['op_samples']}")
        for name, value in wall.items():
            print(f"{args.workload} wall.{name} {value!r} {units[name]}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    print(f"# report: {path}")
    result = {
        "correct": failed == 0 and not harness_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; one table."""
    seconds = 1 if args.quick else args.seconds
    rows, bad = {}, False
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            bad |= not result["correct"]
            rows.setdefault(name, {})[trace] = result
            report = json.loads((ROOT / OUT / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            rows[name]["meta"] = report["meta"]
            rows[name].setdefault("error_rate", {})[trace] = report["error_rate"]
            rows[name].setdefault("digests", {}).update(report["digests"])
    for name in WORKLOADS:
        r = rows[name]
        print(f"== {name}  error_rate {r['error_rate']}")
        for trace in (0, 1):
            for metric, v in r[trace]["metrics"].items():
                print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
    path = ROOT / OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"# report: {path.relative_to(ROOT)}")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    ap.add_argument("--quick", action="store_true", help="with --all: one second a run")
    ap.add_argument("--tiny", action="store_true", help="tiny inputs (harness self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("give --workload or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
