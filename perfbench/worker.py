"""One fresh process of the benchmark: set up, warm up, run passes of a job list.

Started by ``run.py`` with the BLAS/OpenMP thread counts already pinned in
its environment. After one untimed warm-up job it runs whole passes of the
workload's job list, timing each pass, and starts another pass while that
would end less than half a pass past ``--seconds``. Prints one JSON line:
set-up time, peak RSS and, per pass, its CPU and wall time, each job's
output or error and, when traced, the per-layer metrics. Outputs are
checked by the parent, outside this process.

    python3 perfbench/worker.py --workload W --seed N --seconds S --t0 T [--trace 1]
    python3 perfbench/worker.py --setup-only --t0 T

``T`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time runs from process start until the first job can run.
"""

import time  # first, so nothing else is imported before set-up starts

import argparse
import contextlib
import importlib
import io
import json
import pkgutil
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_program():
    """Import numpy, scipy and every ffgap module from the checkout's src."""
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import ffgap

    if Path(ffgap.__file__).resolve().parent != SRC / "ffgap":
        raise ImportError(f"ffgap was imported from {ffgap.__file__}, not from {SRC}")
    for info in pkgutil.iter_modules(ffgap.__path__):
        importlib.import_module(f"ffgap.{info.name}")


class JobError(RuntimeError):
    pass


def _run_cli(job):
    from ffgap import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(job["argv"]))
    if code not in (0, 2):
        raise JobError(f"exit code {code}: {err.getvalue().strip()}")
    return {"exit_code": code, "result": json.loads(out.getvalue())["result"]}


def _run_suite(job):
    from ffgap.criteria import SuiteConfig, verify_inequality_suite

    config = {k: tuple(v) if isinstance(v, list) else v for k, v in job["config"].items()}
    return verify_inequality_suite(job["seed"], job["trials"], SuiteConfig(**config))


def _run_cell(job):
    from ffgap import coarse_grain, criteria, lattice, models
    from ffgap.operators import region_hamiltonian
    from ffgap.spectra import spectral_gap

    model = job["model"]
    if "random" in model:
        spec = models.random_cell_2d(**model["random"])
    else:
        spec = models.commuting_cell_2d(model["commuting"])
    cell = spec.payload
    out = {}

    q = job["quasi1d"]
    n, m2, R = q["n"], q["m2"], q["R"]
    eff1 = coarse_grain.effective_1d(cell, m2, R)
    window = range(n // 2, n + 1)
    gaps = {
        l: spectral_gap(region_hamiltonian(cell, lattice.box_region(l * eff1.R, m2))).gap
        for l in window
    }
    cert = criteria.certify_quasi1d(cell, m2, R, n, gaps, effective=eff1)
    out["quasi1d"] = {"gaps": [[l, g] for l, g in gaps.items()], "certificate": cert.to_json()}

    if job["prop2d"]:
        eff2 = coarse_grain.effective_2d(cell, 1)
        out["prop2d"] = [
            criteria.prop2d_margin(cell, 2, m1, m2_, effective=eff2) for m1, m2_ in ((1, 3), (3, 1))
        ]
    return out


RUNNERS = {"cli": _run_cli, "suite": _run_suite, "cell": _run_cell}


def run_job(job):
    return RUNNERS[job["kind"]](job)


def run_pass(job_list, tracer) -> dict:
    """One timed pass of the whole job list; a failed job is reported, not fatal."""
    results = []
    tracer.reset()
    tracer.start()
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    for job in job_list:
        try:
            output, error = run_job(job), None
        except Exception as exc:
            output, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"output": output, "error": error})
    record = {
        "cpu_s": time.process_time() - cpu_start,
        "wall_s": time.perf_counter() - wall_start,
        "jobs": results,
    }
    tracer.stop()
    if tracer.traced:
        record["layers"] = tracer.metrics()
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    sys.path.insert(0, str(HERE))
    import jobs
    import tracer as tracer_mod

    job_list = jobs.job_list(args.workload, args.seed)
    tracer = tracer_mod.install(trace=bool(args.trace))
    for job in jobs.warmup(args.workload):
        run_job(job)

    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(job_list, tracer))
        elapsed = time.monotonic() - start
        if elapsed * (1 + 0.5 / len(passes)) >= args.seconds:
            break

    report = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
