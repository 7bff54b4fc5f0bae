"""End-to-end and per-layer benchmark of the biomeval CLI.

    python3 perfbench/run.py --workload id-maxscore --seed 1 --seconds 56 --trace 0

Run from the root of a checkout. The benchmark generates the workload's
inputs from --seed, then runs the real CLI (from the checkout's src/) as
one fresh child process per invocation, one at a time, for --seconds
seconds. Between invocations it times fresh interpreters that only import
biomeval.cli. Every invocation's outputs are checked against the
independent reference in reference.py. With --trace 1 every other
invocation runs under trace_child.py, which records a span per layer call.

The last line of standard output is one JSON object: "correct",
"attempted", "failed" and "metrics" (the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1). NOTES.md explains the workloads and
what each metric should move.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference
import trace_child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_ONLY = "import biomeval.cli"
RUN_CLI = "import sys; from biomeval.cli import main; sys.exit(main())"
# A child still running after this many seconds is killed and counts as failed.
CHILD_TIMEOUT_S = 60.0
MIB = float(1 << 20)


@dataclass(frozen=True)
class Workload:
    kind: str  # "id" or "det"
    aggregate: str = "mean"
    rank_cap: int | None = None


WORKLOADS = {
    "id-maxscore": Workload("id", "max_score", 20),
    "det": Workload("det"),
}

# Span names whose total (.s) and self (.self_s) times are per-layer metrics.
SPAN_METRICS = tuple(name for _, _, name in trace_child.WRAPPED)
# (metric, span, count key) for counts the wrapped calls report.
COUNT_METRICS = (
    ("io.load_embeddings.records", "io.load_embeddings", "records"),
    ("io.load_embeddings.bytes", "io.load_embeddings", "bytes"),
    ("stores.validate_protocol.probes", "stores.validate_protocol", "probes"),
    ("identify.build_gallery_templates.templates", "identify.build_gallery_templates", "templates"),
    ("identify.score.cells", "identify.score", "cells"),
    ("identify.roc_curve.points", "identify.roc_curve", "points"),
    ("identify.fnir_fpir.points", "identify.fnir_fpir", "points"),
    ("io.load_detections.records", "io.load_detections", "records"),
    ("io.load_ground_truth.records", "io.load_ground_truth", "records"),
)


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    exit_code: int
    digest: str | None
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], env: dict[str, str], stderr_path: Path) -> tuple[float, float, float, int]:
    """Run one child to completion; (wall s, user+sys s, peak RSS MiB, exit code).

    The child's own rusage comes from wait4, so each figure belongs to that
    one process and not to a running maximum over all children.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr_path.read_bytes()[-2000:].decode("utf-8", "replace")
        sys.stderr.write(f"perfbench: child exited {proc.returncode}: {tail}\n")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def output_digest(out_dir: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs_dir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs_dir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int, sizes: dict) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    llc = None
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            llc = Path(index, "size").read_text().strip()
        except OSError:
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "last_level_cache": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": blas_threads()},
        "seed": seed,
        "inputs": sizes,
    }


def layer_metrics(trace: dict) -> dict[str, dict]:
    """Totals, self times and counts per span name for one traced invocation."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out: dict[str, dict] = {}
    top = 0.0
    for i, span in enumerate(spans):
        dur = span["end"] - span["start"]
        entry = out.setdefault(span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})
        entry["s"] += dur
        entry["self_s"] += dur - child_time[i]
        entry["calls"] += 1
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
        if span["parent"] is None:
            top += dur
    out["cli"] = {"self_s": trace["main_s"] - top}
    return out


def per_layer(traced: list[Invocation], untraced: list[Invocation], setup: list[float],
              spec: Workload, sizes: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics from the traced invocation with the median main() time."""
    runs = sorted((i for i in traced if i.trace is not None), key=lambda i: i.trace["main_s"])
    if not runs:
        return {}, ["no traced invocation wrote its spans; per-layer metrics absent"]
    trace = runs[(len(runs) - 1) // 2].trace
    layers = layer_metrics(trace)
    missing = set(trace["missing"])
    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str) -> dict:
        return layers.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "counts": {}})

    for name in SPAN_METRICS:
        if name not in missing:
            metrics[f"{name}.s"] = (span(name)["s"], "s")
            metrics[f"{name}.self_s"] = (span(name)["self_s"], "s")
    for metric, name, key in COUNT_METRICS:
        if name not in missing:
            metrics[metric] = (span(name)["counts"].get(key, 0), "count")

    def rate(work: float, name: str) -> float:
        seconds = span(name)["s"]
        return work / seconds if seconds > 0 else 0.0

    is_id = spec.kind == "id"
    if "identify.rank_k_accuracy" not in missing:
        metrics["identify.rank_k_accuracy.calls"] = (span("identify.rank_k_accuracy")["calls"], "count")
    if "io.load_embeddings" not in missing:
        metrics["io.load_embeddings.mib_per_s"] = (
            rate(span("io.load_embeddings")["counts"].get("bytes", 0) / MIB, "io.load_embeddings"), "MiB/s")
    probes = sizes.get("mate_probes", 0) + sizes.get("non_mate_probes", 0)
    columns = sizes.get("gallery_media" if spec.aggregate == "max_score" else "gallery_subjects", 0)
    gflop = 2.0 * probes * columns * sizes.get("dim", 0) / 1e9 if is_id else 0.0
    if "identify.score" not in missing:
        metrics["identify.score.gflop"] = (gflop, "GFLOP")
        metrics["identify.score.gflop_per_s"] = (rate(gflop, "identify.score"), "GFLOP/s")
    metrics["identify.score_matrix_mib"] = (
        probes * sizes.get("gallery_subjects", 0) * 8 / MIB if is_id else 0.0, "MiB")
    metrics["identify.impostor_pairs"] = (sizes.get("impostor_pairs", 0), "count")
    metrics["detection.frames"] = (sizes.get("frames", 0), "count")
    metrics["detection.pairs"] = (sizes.get("pairs", 0), "count")
    metrics["detection.crowd_pair_share"] = (sizes.get("crowd_pair_share", 0.0), "ratio")
    if "detection.evaluate_detections" not in missing:
        metrics["detection.pairs_per_s"] = (
            rate(sizes.get("pairs", 0), "detection.evaluate_detections"), "1/s")
    metrics["cli.self_s"] = (layers["cli"]["self_s"], "s")
    metrics["cli.cpu_s"] = (statistics.median(i.cpu_s for i in untraced), "s")
    metrics["trace.main_s"] = (trace["main_s"], "s")
    untraced_main = statistics.median(i.wall_s for i in untraced) - statistics.median(setup)
    metrics["trace.overhead_s"] = (trace["main_s"] - untraced_main, "s")

    self_sum = sum(v["self_s"] for k, v in layers.items() if k != "cli") + layers["cli"]["self_s"]
    notes = [f"self times + cli.self_s = {self_sum:.6f} s; traced main() = {trace['main_s']:.6f} s"]
    if missing:
        notes.append(f"wrapped names not found, metrics absent: {sorted(missing)}")
    return metrics, notes


def prepare(spec: Workload, seed: int, work: Path):
    """Generate inputs; return (CLI arguments, output check, input sizes)."""
    if spec.kind == "id":
        inputs = workloads.make_id_inputs(seed, work / "inputs")
        expected = reference.id_expected(inputs, spec.aggregate, spec.rank_cap)
        args = ["eval-id", "--emb", str(inputs.emb_path), "--protocol", str(inputs.protocol_path),
                "--aggregate", spec.aggregate]
        if spec.rank_cap is not None:
            args += ["--rank-cap", str(spec.rank_cap)]

        def check(out_dir: Path) -> list[str]:
            return reference.check_id_outputs(out_dir, expected)
    else:
        inputs = workloads.make_det_inputs(seed, work / "inputs")
        expected = reference.det_expected(inputs)
        args = ["eval-det", "--det", str(inputs.det_path), "--gt", str(inputs.gt_path)]

        def check(out_dir: Path) -> list[str]:
            return reference.check_det_outputs(out_dir, expected)
    return args, check, inputs.sizes


def measure(args, work: Path) -> int:
    spec = WORKLOADS[args.workload]
    env = child_env()
    began = time.perf_counter()
    cli_args, check, sizes = prepare(spec, args.seed, work)
    prepared = time.perf_counter()
    # Compiles the package's bytecode, so no timed child pays for it.
    stderr_path = work / "child.stderr"
    run_child([sys.executable, "-c", IMPORT_ONLY], env, stderr_path)

    setup: list[float] = []
    untraced: list[Invocation] = []
    traced: list[Invocation] = []
    first_out: Path | None = None

    def invoke(tag: str, traced_run: bool) -> Invocation:
        nonlocal first_out
        out_dir = work / tag
        spans_path = work / f"{tag}.spans.json"
        if traced_run:
            argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path)]
        else:
            argv = [sys.executable, "-c", RUN_CLI]
        wall, cpu, rss, code = run_child(argv + cli_args + ["--out", str(out_dir)], env, stderr_path)
        digest = output_digest(out_dir) if code == 0 and out_dir.is_dir() else None
        trace = None
        if traced_run and spans_path.is_file():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
        if digest is not None and first_out is None:
            first_out = out_dir
        elif out_dir.is_dir():
            shutil.rmtree(out_dir)
        return Invocation(wall, cpu, rss, code, digest, trace)

    def time_setup() -> None:
        setup.append(run_child([sys.executable, "-c", IMPORT_ONLY], env, stderr_path)[0])

    # Each pass times one import-only interpreter and one invocation (plus a
    # traced one). A pass starts only if the mean pass so far still fits
    # before the deadline; the time left after the last pass goes to more
    # import-only samples.
    start = time.perf_counter()
    deadline = start + args.seconds
    n = 0
    while n == 0 or time.perf_counter() + (time.perf_counter() - start) / n <= deadline:
        time_setup()
        untraced.append(invoke(f"out{n}", False))
        if args.trace:
            traced.append(invoke(f"traced{n}", True))
        n += 1
    while time.perf_counter() + 2 * statistics.median(setup) <= deadline:
        time_setup()

    looped = time.perf_counter()
    # Correctness, outside the timed loop: the first good output against the
    # reference, every other invocation byte for byte against the first.
    try:
        reference_problems = check(first_out) if first_out is not None else []
    except (AttributeError, TypeError, KeyError, IndexError, ValueError) as exc:
        reference_problems = [f"malformed output: {exc!r}"]
    first_digest = next((i.digest for i in untraced + traced if i.digest), None)
    for inv in untraced + traced:
        if inv.exit_code != 0 or inv.digest is None:
            inv.problems.append(f"exit code {inv.exit_code}")
        elif inv.digest != first_digest:
            inv.problems.append("output bytes differ from the first invocation's")
        else:
            inv.problems.extend(reference_problems)
    everything = untraced + traced
    failed = sum(1 for i in everything if i.problems)
    for problem in sorted({p for i in everything for p in i.problems})[:20]:
        print(f"check failed: {problem}")

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} invocations"
          + (f" + {len(traced)} traced" if args.trace else "")
          + f", error_rate {failed / len(everything):.4f} ({failed}/{len(everything)})")
    print(f"phases: inputs and reference {prepared - began:.2f} s, timed loop {looped - start:.2f} s, "
          f"check {time.perf_counter() - looped:.2f} s")
    print("env " + json.dumps(environment(args.seed, sizes), sort_keys=True))

    samples = {
        "wall_s": ([i.wall_s for i in untraced], "s"),
        "peak_rss_mib": ([i.peak_rss_mib for i in untraced], "MiB"),
        "setup_s": (setup, "s"),
        "cpu_s": ([i.cpu_s for i in untraced], "s"),
    }
    for name, (values, unit) in samples.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:14s} median {med:.4f} {unit}  q1 {q1:.4f}  q3 {q3:.4f}  n {len(values)}")
        print(f"{name:14s} samples " + " ".join(f"{v:.4f}" for v in values))

    if args.trace:
        layer, notes = per_layer(traced, untraced, setup, spec, sizes)
        for line in notes:
            print(line)
        for name, (value, unit) in layer.items():
            print(f"{name:48s} {value:.6g} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        metrics = {
            name: {"value": statistics.median(samples[name][0]), "unit": samples[name][1]}
            for name in ("wall_s", "peak_rss_mib", "setup_s")
        }
    print(json.dumps({"correct": failed == 0, "attempted": len(everything), "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "biomeval" / "cli.py").is_file():
        print(f"perfbench: no biomeval package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
