"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload train_ecg200 --seed 1 --seconds 25 --trace 0

Workloads: train_ecg200, sweep_ecg200, score_augment (see workloads.py).
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced iterations, replays the engine's layer
primitives and prints the per-layer metrics.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.  A results
file with provenance is written under perfbench/results/.

BLAS is pinned to one thread and all load comes from this one process.
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Must precede the first numpy import, here and in the set-up children.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import io
import json
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

from spans import Tracer
from stats import checked_percentile

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / "_work"
WORKLOAD_NAMES = ("train_ecg200", "sweep_ecg200", "score_augment")

SETUP_REPEATS = 8
MIN_ITERATIONS = 2  # the output digests of repeats must agree
MIN_OPS = 100  # op_ms.p90 needs 10 samples beyond it
HARD_STOP_S = 150
REPLAY_REPS = 15
WARM_CHECKPOINT = "warm/baseline.ckpt.json"  # written by the warm-up training
# Never used while tuning the benchmark or a change; kept for confirming claims.
HOLDOUT_SEED = 904_711

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("infer_samples_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Iteration:
    traced: bool
    wall: float
    spans: list
    notes: dict
    ops: int
    completed: bool
    digest: str = ""
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR",
                   help="time one set-up in prepared WORKDIR and print it (used internally)")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes so the import is cold each time
# ---------------------------------------------------------------------------


def setup_only(args) -> int:
    start = time.perf_counter()
    import workloads

    fc = workloads.import_package()
    workloads.WORKLOADS[args.workload](args.seed, Path(args.setup_only)).setup(fc)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(args, workdir: Path) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(workdir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------


def iterate(fc, workload, tracer: Tracer, probes, traced: bool, check: bool) -> Iteration:
    shutil.rmtree(workload.out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    problems, code = [], None
    tracer.install(probes)
    try:
        with tracer.span("bench.iteration"), redirect_stdout(stdout), redirect_stderr(stderr):
            code = fc.cli.main(workload.argv() + ["--out", str(workload.out)])
    except Exception:  # the loop must go on; the failure is reported
        problems.append("raised " + traceback.format_exc(limit=4))
    finally:
        tracer.uninstall()
    spans, notes = tracer.take()
    root = next(s for s in spans if s[0] == "bench.iteration")
    it = Iteration(traced, root[2] - root[1], spans, notes, workload.ops(notes),
                   completed=code == 0, problems=problems)
    if code not in (0, None):
        problems.append(f"exit code {code}: {stderr.getvalue().strip()}")
    if it.completed:
        it.digest = workload.output_digest(stdout.getvalue())
        if check:
            try:
                found, it.quality = workload.check(fc, stdout.getvalue())
                problems.extend(found)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"output check could not read the outputs: {exc!r}")
    return it


def timed_loop(fc, workload, tracer: Tracer, seconds: float, traced_run: bool, sample_setup):
    """Repeat the command for ``seconds`` of measured time.

    An untraced run also takes SETUP_REPEATS set-up samples, spread evenly
    over the run between iterations: host speed drifts over tens of seconds,
    and samples taken back to back would all land in one phase of it.  Their
    time is left out of the measured time.
    """
    import workloads

    done: list[Iteration] = []
    setups = 0 if traced_run else SETUP_REPEATS
    taken, paused = 0, 0.0
    start = time.perf_counter()
    while True:
        while taken < setups and (time.perf_counter() - start - paused) >= taken * seconds / setups:
            before = time.perf_counter()
            sample_setup()
            paused += time.perf_counter() - before
            taken += 1
        plan = [False, True] if traced_run else [False]
        for traced in plan:
            probes = workloads.FULL_PROBES if traced else workload.clock_probes
            done.append(iterate(fc, workload, tracer, probes, traced, check=not done))
            if done[-1].completed and done[-1].digest != done[0].digest:
                done[-1].problems.append("output digest differs from the first iteration")
        elapsed = time.perf_counter() - start - paused
        ops = sum(len(workload.op_ms(it.spans, it.notes)) for it in done if not it.traced)
        enough = traced_run or (len(done) >= MIN_ITERATIONS and ops >= MIN_OPS)
        if time.perf_counter() - start >= HARD_STOP_S or (elapsed >= seconds and enough):
            break
    for _ in range(taken, setups):
        sample_setup()
    return done


def warm_up(fc, workdir: Path) -> None:
    """One short training, so lazy set-up in numpy and BLAS is not timed."""
    import workloads

    with redirect_stdout(io.StringIO()):
        code = fc.cli.main(["baseline", "--train", str(workloads.TRAIN_FILE),
                            "--test", str(workloads.TEST_FILE), "--epochs", "1",
                            "--no-timestamp", "--out", str((workdir / WARM_CHECKPOINT).parent)])
    if code != 0:
        raise RuntimeError(f"warm-up training failed with exit code {code}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(workload, done: list[Iteration], setup: list[float]) -> dict:
    runs = [it for it in done if it.completed and not it.traced]
    op_ms = [ms for it in runs for ms in workload.op_ms(it.spans, it.notes)]
    infer = [r for it in runs for r in workload.infer_rates(it.spans, it.notes)]
    values = {
        "setup_s": median(setup),
        "wall_s": median([it.wall for it in runs]),
        "op_ms.p50": checked_percentile(op_ms, 50),
        "op_ms.p90": checked_percentile(op_ms, 90),
        "infer_samples_per_s": median(infer),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    import workloads

    return {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "data_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (workloads.TRAIN_FILE, workloads.TEST_FILE)},
        "workload_seed": seed,
        "holdout_seed": HOLDOUT_SEED,
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from its files; None outside one."""
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


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def run(args, fc, workdir: Path) -> tuple[dict, dict]:
    import kernels
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.prepare(fc)
    workload.setup(fc)
    warm_up(fc, workdir)
    tracer = Tracer("fcnaug")
    setup = []
    done = timed_loop(fc, workload, tracer, args.seconds, bool(args.trace),
                      lambda: setup.append(measure_setup(args, workdir)))
    if not any(it.completed for it in done):
        raise RuntimeError("no iteration completed:\n" + "\n".join(done[0].problems))

    problems = [p for it in done for p in it.problems]
    absent = list(tracer.absent)
    attempted = sum(it.ops for it in done)
    failed = sum(it.ops for it in done if it.problems or not it.completed)
    details = {
        "iterations": {"untraced": sum(not it.traced for it in done),
                       "traced": sum(it.traced for it in done)},
        "op": workload.op_label,
        "setup_s_samples": setup,
        "digest": done[0].digest,
        "problems": problems,
        "absent": absent,
        "broken_observers": sorted(tracer.broken),
    }
    if args.trace:
        replay = {}
        for shape, batch, infer in (("train", 32, False), ("infer", 256, True)):
            replay[shape], missing = kernels.replay(fc.nn_engine, args.seed, REPLAY_REPS,
                                                    batch, infer)
            absent += missing
        try:
            checkpoint = kernels.checkpoint_round_trip(fc.training, workdir / WARM_CHECKPOINT,
                                                       REPLAY_REPS)
        except (AttributeError, TypeError, OSError, ValueError) as exc:
            checkpoint = {}
            absent.append(f"checkpoint round trip: {exc!r}")
        try:
            passed, worst = kernels.gradient_spot_check(fc.nn_engine, fc.rng.RngStream,
                                                        args.seed)
        except (AttributeError, TypeError) as exc:
            absent.append(f"gradient spot check: {exc!r}")
        else:
            attempted += 1
            details["gradient_check_worst_error"] = worst
            if not passed:
                failed += 1
                problems.append(f"fcn_backward finite-difference check: worst error {worst:.3g}")
        traced = [it for it in done if it.traced and it.completed]
        untraced = [it.wall for it in done if not it.traced and it.completed]
        metrics = layers.per_layer(traced, untraced, replay, checkpoint, absent)
        details["kernels"] = {"basis": kernels.COUNT_BASIS, **replay}
        details["checkpoint_round_trip"] = checkpoint
    else:
        metrics = end_to_end(workload, done, setup)
        info = {"error_rate": {"value": failed / attempted, "unit": "ratio"},
                "op_samples": {"value": len([ms for it in done if not it.traced
                                             for ms in workload.op_ms(it.spans, it.notes)]),
                               "unit": "count"}}
        info.update(workload.info([it for it in done if it.completed]))
        info.update(done[0].quality)
        details["info"] = info
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details["spans"] = [{"iteration": i, "traced": it.traced, "spans": it.spans}
                        for i, it in enumerate(done)]
    return result, details


def write_results(args, result: dict, details: dict) -> Path:
    """The results file, with provenance; the spans go to a file beside it."""
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = details.pop("spans")
    stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "provenance": provenance(args.seed),
           "result": result, **details}
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def print_summary(result: dict, details: dict) -> None:
    for name, m in {**result["metrics"], **details.get("info", {})}.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    for shape in ("train", "infer"):
        for name, k in details.get("kernels", {}).get(shape, {}).items():
            gflops = k["flops"] / k["us"] / 1e3
            print(f"kernel {shape:<5} {name:<14} {k['us']:>10.1f} us {k['flops']:>12d} flops "
                  f"{k['bytes']:>11d} bytes {gflops:>6.2f} GFLOP/s  ({details['kernels']['basis']})")
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for missing in details["absent"]:
        print(f"absent: {missing}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    import workloads

    try:
        fc = workloads.import_package()
    except workloads.MissingInput as exc:
        print(f"error: {exc}; run from a checkout of the repository", file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result, details = run(args, fc, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    path = write_results(args, result, details)
    print_summary(result, details)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
