"""The fixed job list of each workload, as plain data built from the seed.

A job is a dict with a ``kind`` and its arguments; ``worker.py`` runs it and
``checks.py`` checks its output. Both build the list from the same
``(workload, seed)`` pair, so the worker and the checks agree on every input.

Seed-derived inputs are the instances whose cost hardly depends on the draw
(d=2 chains, whose gaps are all dense; 2D cells; small suite instances).
The d=3 suite model is fixed: the Lanczos cost of d=3 models varies by up to
5x between draws (2.5 s to 11.8 s for one matrix-free suite instance), which
would make ``wall_s`` measure the draw rather than the program.

Every Lanczos solve left in the jobs converged in every trial we made. Jobs
whose solves fail now and then are left out: d=3 chains through the CLI
(their depth-8 FF check does not always converge) and every window above
the dense cutoff of a non-interacting 2D cell (ARPACK error 3 on its
degenerate spectrum), which rules out ``certify_2d``.
"""

from __future__ import annotations

WORKLOADS = ("chain_certify", "inequality_suite", "lattice_2d")

# Suite seed of the d=3 model run on both sides of the dense/matrix-free
# cutoff (instance seed 10 * 10007 inside the suite).
D3_SUITE_SEED = 10


def _base(seed: int) -> int:
    return seed % 1_000_003


def _cli(*argv: str) -> dict:
    return {"kind": "cli", "argv": ["--no-timestamp", *argv]}


def _random_chain(seed: int) -> str:
    return f"random:d=2,rank_bulk=1,rank_boundary=0,seed={seed}"


def chain_certify(seed: int) -> list[dict]:
    base = _base(seed)
    return [
        _cli("certify", "thm1", "--model", "aklt", "--n", "8"),
        _cli("certify", "gm", "--model", "aklt", "--n", "7", "--m", "16"),
        _cli("profile", "--model", "singlet", "--n", "9"),
        _cli("certify", "gm", "--model", "singlet", "--n", "12", "--m", "26"),
        _cli("certify", "thm1", "--model", "singlet", "--n", "10"),
        _cli("certify", "thm2", "--model", _random_chain(10 * base + 1), "--n", "10"),
        _cli("certify", "thm1", "--model", _random_chain(10 * base + 2), "--n", "11"),
    ]


def _suite(seed: int, trials: int, **config) -> dict:
    return {"kind": "suite", "seed": seed, "trials": trials, "config": config}


def inequality_suite(seed: int) -> list[dict]:
    base = _base(seed)
    return [
        # three d=2 instances, all on the dense branch (dim 2^9)
        _suite(base, 3, n=4, margin_m=8, dims_cycle=[2], identity_ms_d2=[5, 6, 7]),
        # one d=3 model at n=3: dim 3^7 = 2187 is dense, 3^8 = 6561 matrix-free
        _suite(D3_SUITE_SEED, 1, n=3, margin_m=6, dims_cycle=[3], identity_ms_d3=[4]),
        _suite(D3_SUITE_SEED, 1, n=3, margin_m=7, dims_cycle=[3], identity_ms_d3=[4]),
    ]


def _cell(model: dict, quasi1d: dict, prop2d: bool) -> dict:
    return {"kind": "cell", "model": model, "quasi1d": quasi1d, "prop2d": prop2d}


def lattice_2d(seed: int) -> list[dict]:
    base = _base(seed)
    d2 = {"d": 2, "n_terms": 2, "seed": 10 * base + 3}
    d3_a = {"d": 3, "n_terms": 2, "seed": 10 * base + 4}
    d3_b = {"d": 3, "n_terms": 2, "seed": 10 * base + 5}
    # quasi-1D windows stay dense: d=2 strips of height 2 up to 2^10, d=3
    # strips of height 1 up to 3^6
    strips_d2 = {"n": 5, "m2": 2, "R": 1}
    strips_d3 = {"n": 6, "m2": 1, "R": 1}
    return [
        _cell({"random": d2}, strips_d2, prop2d=True),
        _cell({"random": d3_a}, strips_d3, prop2d=False),
        _cell({"random": d3_b}, strips_d3, prop2d=False),
        _cell({"commuting": 2}, strips_d2, prop2d=True),
    ]


def warmup(workload: str) -> list[dict]:
    """One small untimed job that loads the same code paths."""
    if workload == "chain_certify":
        return [_cli("certify", "thm1", "--model", "singlet", "--n", "5")]
    if workload == "inequality_suite":
        return [_suite(0, 1, n=3, margin_m=6, dims_cycle=[2], identity_ms_d2=[4])]
    return [_cell({"commuting": 2}, {"n": 4, "m2": 1, "R": 1}, prop2d=False)]


def job_list(workload: str, seed: int) -> list[dict]:
    if workload == "chain_certify":
        return chain_certify(seed)
    if workload == "inequality_suite":
        return inequality_suite(seed)
    if workload == "lattice_2d":
        return lattice_2d(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
