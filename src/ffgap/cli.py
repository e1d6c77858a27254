"""Command-line front end for batch gap certification runs.

--threads caps the OpenBLAS pools of numpy and scipy at run time, after they
have loaded.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import io
import json
import sys
from dataclasses import asdict, replace

import numpy
import scipy

from . import __version__, criteria, models
from ._blas import set_threads
from .coarse_grain import effective_1d, effective_2d
from .coefficients import SQRT6, optimal_x, prefactor_1d, threshold_1d, threshold_2d
from .lattice import box_region, rhomboid_sites
from .operators import ChainModel, LocalProjector, check_dim
from .spectra import chain_gap, chain_kernels, gap_profile, region_gap

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
RANDOM_KEYS = ("d", "rank_bulk", "rank_boundary", "seed")  # random:<key>=<int>,... recipes


def parse_sizes(text: str) -> tuple[int, ...]:
    """Parse '6', '4..9', or '4,6,8' into a nonempty tuple of sizes."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        sizes = tuple(range(int(lo), int(hi) + 1))
        if not sizes:
            raise ValueError(f"empty size range {text!r}")
        return sizes
    return tuple(int(part) for part in text.split(","))


def _float_12g(x) -> str:
    return f"{x:.12g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffgap",
        description="Finite-size gap certification for frustration-free models.",
    )
    parser.add_argument("--threads", type=int, default=None, help="cap BLAS worker threads")
    parser.add_argument("--output", default=None, help="write the report to this path")
    parser.add_argument("--no-timestamp", action="store_true", help="omit the timestamp field")
    parser.add_argument(
        "--error-json", action="store_true", help="emit machine-readable JSON on errors"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model(p, required=True):
        p.add_argument(
            "--model",
            required=required,
            help="builtin (aklt, singlet, commuting2d, random:d=..,rank_bulk=..,"
            "rank_boundary=..,seed=..) or a model JSON path",
        )

    p = sub.add_parser("gap", help="exact gaps of a chain model over a size range")
    add_model(p)
    p.add_argument("--sizes", required=True, help="size range, e.g. 4..10 or 4,6,8")
    p.add_argument("--bc", choices=("open", "periodic"), default="open")

    p = sub.add_parser("profile", help="bulk and edge gap profile of a chain model")
    add_model(p)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("certify", help="evaluate a finite-size criterion")
    csub = p.add_subparsers(dest="criterion", required=True)
    for name in ("thm1", "thm2"):
        cp = csub.add_parser(name)
        add_model(cp)
        cp.add_argument("--n", type=int, required=True)
        cp.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    cp = csub.add_parser("gm")
    add_model(cp)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--m", type=int, required=True)
    cp = csub.add_parser("quasi1d")
    add_model(cp)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--m2", type=int, required=True)
    cp.add_argument("--R", type=int, required=True)
    cp = csub.add_parser("2d")
    add_model(cp)
    cp.add_argument("--n", type=int, required=True)
    cp.add_argument("--R", type=int, required=True)

    p = sub.add_parser("thresholds", help="tabulate criterion thresholds over n")
    p.add_argument("--n", required=True, help="range of n, e.g. 4..9")
    p.add_argument("--mode", choices=("exact", "asymptotic"), default="exact")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the operator-inequality suite")
    p.add_argument("--suite", choices=("1d", "1d+2d"), default="1d")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)

    p = sub.add_parser("coarse-grain", help="summarize an effective metaspin model")
    add_model(p)
    p.add_argument("--R", type=int, required=True)
    p.add_argument("--m2", type=int, default=None, help="strip height (quasi-1D mode)")
    p.add_argument(
        "--two-d", action="store_true", help="build the 2D plaquette model instead"
    )

    return parser


def resolve_model(name: str):
    """Builtin name, random:<kwargs> recipe, or model-file path -> ModelSpec, FF-checked to 8."""
    if name == "aklt":
        return models.aklt()
    if name in ("singlet", "singlet_chain"):
        return models.singlet_chain()
    if name == "commuting2d":
        return models.commuting_cell_2d()
    if name.startswith("random:"):
        kwargs = {}
        for part in name[len("random:"):].split(","):
            key, _, value = part.partition("=")
            kwargs[key.strip()] = int(value)
        unknown = [key for key in kwargs if key not in RANDOM_KEYS]
        if unknown or "d" not in kwargs:
            problem = f"unknown key {unknown[0]!r}" if unknown else "missing key 'd'"
            raise ValueError(f"{problem} in {name!r}; the keys are {', '.join(RANDOM_KEYS)}")
        return models.random_ff(
            kwargs["d"],
            kwargs.get("rank_bulk", 1),
            kwargs.get("rank_boundary", 0),
            kwargs.get("seed", 0),
        )
    return models.load(name)


def _require_kind(spec, kind: str):
    if spec.kind != kind:
        raise ValueError(f"model {spec.name!r} has kind {spec.kind!r}, need {kind!r}")
    return spec.payload


# ---------------------------------------------------------------------------
# subcommand bodies (return (result_object, exit_code))
# ---------------------------------------------------------------------------

def _cmd_gap(args):
    spec = resolve_model(args.model)
    model = _require_kind(spec, "chain")
    if args.bc == "periodic":
        model = replace(model, bc="periodic")
    sizes = parse_sizes(args.sizes)
    check_dim(model.d ** max(sizes))
    kernels = chain_kernels(model, max(sizes))
    reports = [{"m": m, **asdict(chain_gap(model, m, kernels))} for m in sizes]
    return {"model": spec.name, "bc": args.bc, "gaps": reports}, EXIT_OK


def _cmd_profile(args):
    spec = resolve_model(args.model)
    model = _require_kind(spec, "chain")
    profile = gap_profile(model, args.n)
    return {
        "model": spec.name,
        "n": profile.n,
        "bulk": list(profile.bulk_list),
        "left": list(profile.left),
        "right": list(profile.right),
        "edge_min": profile.edge_min,
        "boundary_trivial": profile.boundary_trivial,
    }, EXIT_OK


def _cmd_certify(args):
    if args.criterion in ("thm1", "thm2"):
        spec = resolve_model(args.model)
        model = _require_kind(spec, "chain")
        profile = gap_profile(model, args.n)
        if args.criterion == "thm1":
            cert = criteria.certify_thm1(profile, args.n, mode=args.mode)
        else:
            cert = criteria.certify_thm2(profile, args.n, mode=args.mode)
    elif args.criterion == "gm":
        spec = resolve_model(args.model)
        model = _require_kind(spec, "chain")
        zero = LocalProjector.zero(1, model.d)
        bulk_model = ChainModel(model.d, model.P, zero, zero)
        check_dim(model.d ** args.n)
        length = criteria.periodic_window(args.n, args.m)
        cert = criteria.certify_periodic(chain_gap(bulk_model, length).gap, args.n, args.m)
    elif args.criterion == "quasi1d":
        spec = resolve_model(args.model)
        cell = _require_kind(spec, "cell_2d")
        window = criteria.quasi1d_window(args.n)
        eff = effective_1d(cell, args.m2, args.R)
        gaps = {l: region_gap(cell, box_region(l * eff.R, args.m2)).gap for l in window}
        cert = criteria.certify_quasi1d(cell, args.m2, args.R, args.n, gaps, effective=eff)
    elif args.criterion == "2d":
        spec = resolve_model(args.model)
        cell = _require_kind(spec, "cell_2d")
        pairs = criteria.two_d_window(args.n)
        eff = effective_2d(cell, args.R)
        gaps = {pair: region_gap(cell, rhomboid_sites(*pair, args.R)[0]).gap for pair in pairs}
        cert = criteria.certify_2d(cell, args.R, args.n, gaps, effective=eff)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown criterion {args.criterion!r}")
    code = EXIT_OK if cert.verdict == "certified_gapped" else EXIT_INCONCLUSIVE
    doc = cert.to_json()
    doc["model"] = spec.name
    return doc, code


def _threshold_rows(ns, mode: str):
    rows = []
    for n in ns:
        x = optimal_x(n)[0] if mode == "exact" and n >= 4 else SQRT6
        row = {
            "n": n,
            "G_exact_1d": threshold_1d(n, "exact") if n >= 4 else None,
            "G_asymptotic_1d": threshold_1d(n, "asymptotic") if n >= 3 else None,
            "F_lower": prefactor_1d(n, x)[1] if n >= 4 else None,
            "G_2d": threshold_2d(n) if n >= 2 and n % 2 == 0 else None,
        }
        row["G_2d_times_n32"] = row["G_2d"] * n ** 1.5 if row["G_2d"] is not None else None
        rows.append(row)
    return rows


def _cmd_thresholds(args):
    ns = parse_sizes(args.n)
    rows = _threshold_rows(ns, args.mode)
    if args.format == "json":
        return {"mode": args.mode, "rows": rows}, EXIT_OK
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["n", "G_exact_1d", "G_asymptotic_1d", "F_lower", "G_2d", "G_2d_times_n32"]
    writer.writerow(header)
    for row in rows:
        writer.writerow(
            [row["n"]]
            + ["" if row[k] is None else _float_12g(row[k]) for k in header[1:]]
        )
    return buf.getvalue(), EXIT_OK


def _cmd_verify(args):
    report = criteria.verify_inequality_suite(
        args.seed, args.trials, include_2d=(args.suite == "1d+2d")
    )
    return report, EXIT_OK if report["pass"] else EXIT_ERROR


def _cmd_coarse_grain(args):
    spec = resolve_model(args.model)
    cell = _require_kind(spec, "cell_2d")
    if args.two_d:
        if args.m2 is not None:
            raise ValueError("--m2 is the quasi-1D strip height; --two-d takes no --m2")
        eff = effective_2d(cell, args.R)
        doc = {
            "geometry": "2d",
            "metaspin_dim": eff.metaspin_dim,
            "lambda_min": eff.lambda_min,
            "lambda_max": eff.lambda_max,
            "C1": eff.C1,
            "C2": eff.C2,
            "R": eff.R,
        }
    else:
        if args.m2 is None:
            raise ValueError("quasi-1D coarse-graining needs --m2 (or pass --two-d)")
        eff = effective_1d(cell, args.m2, args.R)
        doc = {
            "geometry": "quasi1d",
            "metaspin_dim": eff.metaspin_dim,
            "lambda_min": eff.lambda_min,
            "lambda_max": eff.lambda_max,
            "C1": eff.C1,
            "C2": eff.C2,
            "R": eff.R,
            "m2": eff.m2,
        }
    doc["model"] = spec.name
    return doc, EXIT_OK


# ---------------------------------------------------------------------------
# report envelope and entry point
# ---------------------------------------------------------------------------

def _run_config(args) -> dict:
    """The parsed arguments that reproduce a run, embedded into every report.

    Leaves out unset options and those that do not change the result;
    ``certify`` records ``certify-<criterion>``, size ranges are parsed, and
    the thresholds range ``--n`` is recorded as ``sizes``.
    """
    config = {"format": "json"}  # the format of every enveloped report
    config.update(
        (key, value)
        for key, value in vars(args).items()
        if value is not None and key not in ("criterion", "error_json")
    )
    if args.command == "certify":
        config["command"] = f"certify-{args.criterion}"
    if args.command == "thresholds":
        config["sizes"] = config.pop("n")
    if "sizes" in config:
        config["sizes"] = list(parse_sizes(config["sizes"]))
    return config


def _emit(result, config: dict, args) -> None:
    if isinstance(result, str):  # preformatted CSV
        text = result
    else:
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "tool": {
                "name": "ffgap",
                "version": __version__,
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "config": config,
            "result": result,
        }
        if not args.no_timestamp:
            envelope["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        text = json.dumps(envelope, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_COMMANDS = {
    "gap": _cmd_gap,
    "profile": _cmd_profile,
    "certify": _cmd_certify,
    "thresholds": _cmd_thresholds,
    "verify": _cmd_verify,
    "coarse-grain": _cmd_coarse_grain,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads is not None:
            set_threads(args.threads)
        result, code = _COMMANDS[args.command](args)
        _emit(result, _run_config(args), args)
        return code
    except (ValueError, OSError, RuntimeError, KeyError) as err:
        if args.error_json:
            sys.stdout.write(
                json.dumps({"error": str(err), "type": type(err).__name__}) + "\n"
            )
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
