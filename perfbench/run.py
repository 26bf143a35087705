"""qsslab benchmark: drives the real CLI in-process on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload verify_reconstruct --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One process runs one workload.  It imports qsslab from ./src, writes the
seeded input files, warms up each op kind once (set-up), then repeats the
workload's fixed batch of ``qsslab.cli.main(argv)`` calls, stdout captured,
for --seconds.  Every output is checked after its round, outside the timed
calls.  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
alternates untraced and traced rounds and reports per-layer metrics from
spans recorded around qsslab's public functions (see tracer.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it is the run record
(thread count, library versions, sample counts, failures).  ``--workload
all`` runs each workload in a fresh process and prints a table.
"""

import os

# Pin BLAS to one thread before numpy loads: steadier on a shared machine
# and within nproc everywhere.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("tables_enumerate", "verify_reconstruct")
SETUP_SAMPLES = 5
TRACE_MIN_PAIRS = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, failed warm-up)."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for repeat samples)")
    return parser.parse_args(argv)


def import_qsslab():
    """Import qsslab from this checkout's src/; returns (cli module, seconds taken)."""
    if not (SRC / "qsslab" / "__init__.py").is_file():
        raise BenchError(f"no qsslab source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import qsslab
    import qsslab.cli
    elapsed = time.perf_counter() - t0
    if Path(qsslab.__file__).resolve().parent != SRC / "qsslab":
        raise BenchError(f"imported qsslab from {qsslab.__file__}, not from {SRC}")
    return qsslab.cli, elapsed


def invoke(main, argv, tracer=None):
    """One in-process CLI call: (exit code, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tracer.call(main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is a failed call, not a crashed benchmark
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
    return code, elapsed, out.getvalue(), err.getvalue()


def failure_of(call, code, stdout, stderr):
    """Why a call's outcome is wrong, or None when it is right."""
    if code != call.expect_code:
        return f"{call.kind}: exit {code}, expected {call.expect_code}: {stderr.strip()[-300:]}"
    if "Traceback" in stderr:
        return f"{call.kind}: traceback on stderr"
    try:
        problem = call.check(stdout)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problem = f"malformed output ({type(exc).__name__}: {exc})"
    return f"{call.kind}: {problem}" if problem else None


def set_up(name, seed, workdir, cli):
    """Write the inputs and warm up each op kind; returns the Workload."""
    import workloads

    workdir.mkdir(parents=True)
    wl = workloads.build(name, seed, workdir)
    for argv in wl.warmups:
        code, _, _, err = invoke(cli.main, argv)
        if code not in (0, 4) or "Traceback" in err:
            raise BenchError(f"warm-up {argv} failed with exit {code}: {err.strip()[-300:]}")
    return wl


def run_round(wl, main, tracer=None):
    """One pass over the batch: (wall seconds, per-call seconds, failure messages)."""
    results = []
    t0 = time.perf_counter()
    for call in wl.batch:
        results.append(invoke(main, call.argv, tracer))
    wall = time.perf_counter() - t0
    failures = [f for call, (code, _, out, err) in zip(wl.batch, results)
                if (f := failure_of(call, code, out, err))]
    return wall, [r[1] for r in results], failures


def nearest_rank(samples, percentile):
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * percentile // 100))
    return ordered[int(rank) - 1], len(ordered) - int(rank)


def library_versions():
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def setup_sample(args):
    """Set-up time of a fresh process that only sets up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def fastest(rounds, n_calls):
    """Per call of the batch, its fastest repetition across rounds."""
    return [min(samples[j] for _, samples in rounds) for j in range(n_calls)]


def measure(args, wl, cli, first_setup_s):
    """Untraced rounds for --seconds; the end-to-end metrics.

    On shared virtual machines CPU speed changes in phases of seconds to
    minutes, by up to 1.5x.  So each call is represented by its fastest
    repetition across rounds, the one that met the fastest phase of the
    run.  wall_s is the sum of these over the batch; the latency
    percentiles are taken over them, one sample per call.  Failures count
    over all rounds.

    setup_s is the median of this process's set-up and of fresh set-ups
    made between rounds, spread over the run so that they meet more than
    one speed phase.  Their time does not count toward --seconds.
    """
    rounds, failures, setup_s = [], [], [first_setup_s]
    t0 = time.perf_counter()
    paused = 0.0
    while True:
        wall, samples, fails = run_round(wl, cli.main)
        rounds.append((wall, samples))
        failures.extend(fails)
        elapsed = time.perf_counter() - t0 - paused
        if (len(setup_s) < SETUP_SAMPLES
                and elapsed >= (len(setup_s) - 1) * args.seconds / (SETUP_SAMPLES - 1)):
            t1 = time.perf_counter()
            setup_s.append(setup_sample(args))
            paused += time.perf_counter() - t1
        typical = statistics.median(w for w, _ in rounds)
        if len(rounds) >= wl.min_rounds and elapsed + typical > args.seconds:
            break
    while len(setup_s) < SETUP_SAMPLES:
        setup_s.append(setup_sample(args))
    attempted = len(rounds) * len(wl.batch)
    calls = fastest(rounds, len(wl.batch))
    tail, beyond = nearest_rank(calls, wl.tail_percentile)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": sum(calls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - len(failures) / attempted,
    }
    record = {
        "rounds": len(rounds),
        "calls_per_batch": len(wl.batch),
        "call_samples": len(calls),
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": beyond,
        "fail_ratio": len(failures) / attempted,
        "setup_samples_s": setup_s,
        "wall_samples_s": [w for w, _ in rounds],
        "call_samples_ms": [[round(1e3 * c, 3) for c in samples] for _, samples in rounds],
    }
    return metrics, {k: END_TO_END_UNITS[k] for k in metrics}, attempted, failures, record


def measure_traced(args, wl, cli):
    """Alternating untraced and traced rounds; the per-layer metrics."""
    import layers
    from tracer import Tracer

    tracer = Tracer("qsslab")
    plain, traced, failures = [], [], []
    t0 = time.perf_counter()
    while True:
        wall, samples, fails = run_round(wl, cli.main)
        plain.append((wall, samples))
        tracer.install()
        try:
            wall_t, samples_t, fails_t = run_round(wl, cli.main, tracer)
        finally:
            tracer.uninstall()
        traced.append((wall_t, samples_t))
        failures.extend(fails + fails_t)
        elapsed = time.perf_counter() - t0
        if len(traced) >= TRACE_MIN_PAIRS and elapsed + 2.0 * elapsed / len(traced) > args.seconds:
            break
    attempted = (len(plain) + len(traced)) * len(wl.batch)
    metrics, units = layers.per_layer_metrics(
        tracer, [w for w, _ in traced],
        sum(fastest(traced, len(wl.batch))),
        sum(fastest(plain, len(wl.batch))))
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans)
    record = {
        "pairs": len(traced),
        "spans": len(tracer.start),
        "spans_file": str(spans.relative_to(ROOT)),
        "untraced_wall_samples_s": [w for w, _ in plain],
        "traced_wall_samples_s": [w for w, _ in traced],
        "fail_ratio": len(failures) / attempted,
    }
    return metrics, units, attempted, failures, record


def run_one(args):
    cli, import_s = import_qsslab()
    sys.path.insert(0, str(HERE))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        wl = set_up(args.workload, args.seed, workdir, cli)
        setup_s = import_s + time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            result = measure_traced(args, wl, cli)
        else:
            result = measure(args, wl, cli, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, units, attempted, failures, record = result
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, failures=failures[:10], **library_versions())
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own fresh process; a table, then a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
        )
        if proc.returncode != 0:
            raise BenchError(f"workload {name} failed: {proc.stderr.strip()[-500:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:12s} {metric:40s} {entry['value']:>16.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        fail_ratio = result["failed"] / result["attempted"]
        print(f"{name:12s} {'fail_ratio':40s} {fail_ratio:>16.6g} ratio")
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    try:
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
