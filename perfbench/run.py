"""Benchmark of ffgap: one workload's fixed job list, run in passes in a fresh process.

    python3 perfbench/run.py --workload chain_certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
A run starts set-up-only processes, then one worker process with
BLAS/OpenMP pinned to one thread: it sets up, runs one untimed warm-up job,
then whole passes of the job list for about ``--seconds``. Every output of
every pass is then checked here, outside the timed region (see
``checks.py``).

With ``--trace 0`` the result holds the end-to-end metrics: ``cpu_s``, the
median over passes of the CPU time of one pass of the job list;
``setup_s``, the median time from process start until the first job can
run; and ``peak_rss_mb`` of the worker. With ``--trace 1`` the run is split
between an untraced and a traced worker, and the result holds the
per-layer metrics (medians over traced passes) plus ``trace.overhead_s``,
the traced minus the untraced ``cpu_s``. The last line of standard output
is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROCESSES = 6  # set-up-only processes per run, besides the workers
DEADLINE_S = 170.0  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # set-up reads cached bytecode, as an installed package does
    return env


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker process to its end and return its JSON report."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
            cwd=ROOT,
            env=_worker_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workers(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> list:
    """One untraced worker for ``seconds``; with trace, an untraced and a
    traced one for half of it each."""
    common = ["--workload", workload, "--seed", str(seed)]
    if not trace:
        return [spawn(common + ["--seconds", repr(seconds), "--trace", "0"], deadline)]
    half = repr(seconds / 2)
    return [
        spawn(common + ["--seconds", half, "--trace", str(traced)], deadline) for traced in (0, 1)
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    sys.path.insert(0, str(HERE))
    import jobs

    if not (ROOT / "src" / "ffgap" / "__init__.py").is_file():
        print(f"error: no ffgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    job_list = jobs.job_list(args.workload, args.seed)  # rejects unknown workloads

    try:
        setup = [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROCESSES)]
        reports = run_workers(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    setup += [r["setup_s"] for r in reports]
    passes = [p for r in reports for p in r["passes"]]

    import checks

    references = checks.references(job_list)
    attempted = failed = wrong = 0
    problems = []
    for index, record in enumerate(passes):
        for job, result, ref in zip(job_list, record["jobs"], references):
            attempted += 1
            errors = [result["error"]] if result["error"] is not None else []
            if not errors:
                errors = checks.check(job, result["output"], ref)
                wrong += bool(errors)
            if errors:
                failed += 1
                problems.extend(f"pass {index}: {checks.describe(job)}: {e}" for e in errors)
    correct = wrong == 0

    untraced = [p for p in passes if "layers" not in p]
    traced = [p for p in passes if "layers" in p]
    if args.trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = {
                "value": statistics.median([p["layers"][name]["value"] for p in traced]),
                "unit": traced[0]["layers"][name]["unit"],
            }
        traced_cpu = statistics.median([p["cpu_s"] for p in traced])
        metrics["trace.cpu_s"] = {"value": traced_cpu, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_cpu - statistics.median([p["cpu_s"] for p in untraced]),
            "unit": "s",
        }
    else:
        metrics = {
            "cpu_s": {"value": statistics.median([p["cpu_s"] for p in untraced]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": reports[0]["peak_rss_mb"], "unit": "MB"},
        }

    for line in problems:
        print(f"FAILED {line}")
    print(
        f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
        f"jobs attempted {attempted}  failed {failed}"
    )
    print("  cpu_s of each pass:  " + " ".join(f"{p['cpu_s']:.3f}" for p in passes))
    print("  wall_s of each pass: " + " ".join(f"{p['wall_s']:.3f}" for p in passes))
    print("  setup_s samples:     " + " ".join(f"{x:.3f}" for x in setup))
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
