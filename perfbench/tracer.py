"""Per-layer spans and counters, recorded by wrapping ffgap's public functions.

The program is not instrumented: ``install`` replaces functions in the
loaded ``ffgap`` modules (and the numpy/scipy eigensolvers they call) with
wrappers, from the benchmark's own process. ``install`` also pins the start
vector of every ARPACK call that passes neither ``v0`` nor ``rng``; that part
is active in untraced runs too, because scipy otherwise draws the start
vector from OS entropy and the same solve then takes a different number of
matvecs from run to run.

A span is recorded only for the outermost call of its group, so inclusive
times never count a nested call twice; counters count every call. The self
time of a group is its span time minus the spans of other groups inside it.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

ARPACK_SEED = 20180123  # start vector of every ARPACK call the program leaves unseeded

# group -> (module, function or "Class.method" names); names that no longer
# exist are skipped, so a renamed function only zeroes its metric
GROUPS = {
    "models.ff_check": ("ffgap.models", ("frustration_free",)),
    # no metric of its own: keeps model construction out of cli.overhead_s
    "models.build": (
        "ffgap.models",
        ("aklt", "singlet_chain", "random_ff", "random_cell_2d", "commuting_cell_2d", "load"),
    ),
    "spectra.gap": ("ffgap.spectra", ("spectral_gap",)),
    "spectra.profile": ("ffgap.spectra", ("gap_profile",)),
    "spectra.psd_margin": ("ffgap.spectra", ("psd_margin",)),
    "operators.assembly": (
        "ffgap.operators",
        (
            "embed",
            "chain_hamiltonian",
            "region_hamiltonian",
            "enlarged_terms",
            "enlarged_hamiltonian",
            "subchain_operator",
            "q_and_f",
            "subchain_support_operator",
            "patch_operator",
            "SparseHermitianOperator.__add__",
            "SparseHermitianOperator.__sub__",
            "SparseHermitianOperator.__rmul__",
            "SparseHermitianOperator.__matmul__",
        ),
    ),
    "operators.applier": (
        "ffgap.operators",
        (
            "EnlargedChainApplier.__init__",
            "EnlargedChainApplier.apply_term",
            "EnlargedChainApplier.term_images",
            "EnlargedChainApplier.apply_hamiltonian",
            "EnlargedChainApplier.apply_window",
            "EnlargedChainApplier.apply_q_and_f",
        ),
    ),
    "criteria.identity": ("ffgap.criteria", ("hsquared_identity_residual",)),
    "criteria.interchange": (
        "ffgap.criteria",
        ("interchange_residual", "interchange_residual_matfree"),
    ),
    "criteria.rewrite": ("ffgap.criteria", ("rewrite_margin",)),
    "criteria.windows": ("ffgap.criteria", ("window_gap_margins",)),
    "criteria.prop2d": ("ffgap.criteria", ("prop2d_margin",)),
    "criteria.certify": (
        "ffgap.criteria",
        (
            "certify_thm1",
            "certify_thm2",
            "certify_periodic",
            "certify_quasi1d",
            "certify_2d",
            "chiral_exclusion",
        ),
    ),
    "coarse_grain.effective": ("ffgap.coarse_grain", ("effective_1d", "effective_2d")),
    "lattice.geometry": (
        "ffgap.lattice",
        (
            "patch",
            "collar_centers",
            "rhomboid_sites",
            "plaquette_set",
            "plaquette_ball",
            "plaquette_distance",
            "box_region",
            "chain_region",
        ),
    ),
    "coefficients": (
        "ffgap.coefficients",
        (
            "coeffs_1d",
            "coeffs_2d",
            "optimal_x",
            "threshold_1d",
            "threshold_1d_general",
            "threshold_1d_quadratic_form",
            "threshold_2d",
            "prefactor_1d",
            "autocorr_1d",
            "weight_table",
        ),
    ),
    "cli": ("ffgap.cli", ("main",)),
}

DENSE_EIG = (("numpy.linalg", ("eigvalsh", "eigh")), ("scipy.linalg", ("eigvalsh", "eigh")))

# (metric, unit, how): how is ("incl"|"self", group) or ("count", counter)
METRICS = (
    ("models.ff_check_s", "s", ("incl", "models.ff_check")),
    ("models.ff_check_calls", "count", ("count", "frustration_free")),
    ("spectra.gap_s", "s", ("incl", "spectra.gap")),
    ("spectra.gap_calls", "count", ("count", "spectral_gap")),
    ("spectra.gap_iterative_calls", "count", ("count", "gap_iterative")),
    ("spectra.profile_s", "s", ("incl", "spectra.profile")),
    ("spectra.arpack_calls", "count", ("count", "eigsh")),
    ("spectra.arpack_matvecs", "count", ("count", "arpack_matvecs")),
    ("spectra.psd_margin_s", "s", ("incl", "spectra.psd_margin")),
    ("spectra.dense_eig_s", "s", ("incl", "spectra.dense_eig")),
    ("spectra.dense_eig_calls", "count", ("count", "dense_eig")),
    ("operators.assembly_s", "s", ("self", "operators.assembly")),
    ("operators.embed_calls", "count", ("count", "embed")),
    ("operators.csr_ops", "count", ("count", "csr_ops")),
    ("operators.applier_s", "s", ("self", "operators.applier")),
    ("operators.applier_term_applies", "count", ("count", "apply_term")),
    ("criteria.identity_s", "s", ("incl", "criteria.identity")),
    ("criteria.interchange_s", "s", ("incl", "criteria.interchange")),
    ("criteria.rewrite_s", "s", ("incl", "criteria.rewrite")),
    ("criteria.rewrite_matvecs", "count", ("count", "rewrite_matvecs")),
    ("criteria.windows_s", "s", ("incl", "criteria.windows")),
    ("criteria.prop2d_s", "s", ("incl", "criteria.prop2d")),
    ("criteria.certify_s", "s", ("incl", "criteria.certify")),
    ("coarse_grain.effective_s", "s", ("incl", "coarse_grain.effective")),
    ("coarse_grain.effective_calls", "count", ("count", "effective")),
    ("lattice.geometry_s", "s", ("self", "lattice.geometry")),
    ("lattice.patch_calls", "count", ("count", "patch")),
    ("coefficients.s", "s", ("self", "coefficients")),
    ("coefficients.calls", "count", ("count", "coefficients")),
    ("cli.overhead_s", "s", ("self", "cli")),
    ("cli.invocations", "count", ("count", "main")),
)

# counters named differently from the function they count
_COUNTER_OF = {
    "SparseHermitianOperator.__add__": "csr_ops",
    "SparseHermitianOperator.__sub__": "csr_ops",
    "SparseHermitianOperator.__rmul__": "csr_ops",
    "SparseHermitianOperator.__matmul__": "csr_ops",
    "EnlargedChainApplier.apply_term": "apply_term",
    "effective_1d": "effective",
    "effective_2d": "effective",
}


class Tracer:
    """Span and counter store; records only between ``start`` and ``stop``."""

    def __init__(self, traced: bool = False):
        self.traced = traced
        self.active = False
        self.reset()

    def reset(self):
        """Forget every span and counter (called before each pass)."""
        self.stack: list[list] = []  # [group, child seconds]
        self.incl: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.dense_eig_max_dim = 0
        self.sa_solves_in_gap = 0

    def start(self):
        self.active = self.traced  # an untraced run only pins ARPACK start vectors

    def stop(self):
        self.active = False

    def in_group(self, group: str) -> bool:
        return any(frame[0] == group for frame in self.stack)

    def call(self, group: str, func, args, kwargs):
        """Run ``func`` inside a span of ``group`` (outermost calls only)."""
        if self.in_group(group):
            return func(*args, **kwargs)
        frame = [group, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self.stack.pop()
            if self.stack:
                self.stack[-1][1] += dt
            self.incl[group] += dt
            self.self_time[group] += dt - frame[1]

    def metrics(self) -> dict:
        out = {}
        for name, unit, (how, key) in METRICS:
            if how == "count":
                value = self.counts[key]
            elif how == "incl":
                value = self.incl[key]
            else:
                value = self.self_time[key]
            out[name] = {"value": value, "unit": unit}
        out["spectra.dense_eig_max_dim"] = {"value": self.dense_eig_max_dim, "unit": "dim"}
        iterative = self.counts["gap_iterative"]
        ratio = iterative / self.sa_solves_in_gap if self.sa_solves_in_gap else 0.0
        out["spectra.arpack_useful_ratio"] = {"value": ratio, "unit": "ratio"}
        return out


def _replace_everywhere(original, replacement, owner) -> None:
    """Rebind ``original`` in its owner and in every loaded ffgap module."""
    targets = [owner] + [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "ffgap" or name.startswith("ffgap."))
    ]
    for target in targets:
        for attr, value in list(vars(target).items()):
            if value is original:
                setattr(target, attr, replacement)


def _function_wrapper(tracer: Tracer, group: str, counter: str, func):
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return func(*args, **kwargs)
        tracer.counts[counter] += 1
        result = tracer.call(group, func, args, kwargs)
        if counter == "spectral_gap" and getattr(result, "method", None) == "iterative":
            tracer.counts["gap_iterative"] += 1
        return result

    return wrapper


def _wrap_group(tracer: Tracer, group: str, module_name: str, names) -> None:
    module = sys.modules.get(module_name)
    if module is None:
        return
    for name in names:
        if group == "coefficients":
            counter = group
        else:
            counter = _COUNTER_OF.get(name, name.rsplit(".", 1)[-1])
        if "." in name:
            cls_name, meth = name.split(".")
            cls = getattr(module, cls_name, None)
            func = vars(cls).get(meth) if cls is not None else None
            if callable(func):
                setattr(cls, meth, _function_wrapper(tracer, group, counter, func))
            continue
        func = getattr(module, name, None)
        if callable(func):
            _replace_everywhere(func, _function_wrapper(tracer, group, counter, func), module)


def _eigsh_wrapper(tracer: Tracer, eigsh, linear_operator, aslinearoperator):
    signature = inspect.signature(eigsh)

    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        params = bound.arguments
        if params.get("v0") is None and params.get("rng") is None:
            params["rng"] = ARPACK_SEED
        if not tracer.active:
            return eigsh(*bound.args, **bound.kwargs)
        tracer.counts["eigsh"] += 1
        which = params.get("which", "LM")
        if which == "SA" and tracer.in_group("spectra.gap"):
            tracer.sa_solves_in_gap += 1
        A = params["A"]
        n = A.shape[0]
        if params.get("sigma") is not None or params.get("k", 6) >= n - 1:
            return tracer.call("spectra.arpack", eigsh, bound.args, bound.kwargs)
        op = aslinearoperator(A)
        in_rewrite = tracer.in_group("criteria.rewrite")

        def matvec(v):
            tracer.counts["arpack_matvecs"] += 1
            if in_rewrite:
                tracer.counts["rewrite_matvecs"] += 1
            return op.matvec(v)

        params["A"] = linear_operator(op.shape, matvec=matvec, dtype=op.dtype)
        return tracer.call("spectra.arpack", eigsh, bound.args, bound.kwargs)

    return wrapper


def _dense_eig_wrapper(tracer: Tracer, func):
    def wrapper(a, *args, **kwargs):
        if not tracer.active or tracer.in_group("spectra.dense_eig"):
            return func(a, *args, **kwargs)
        tracer.counts["dense_eig"] += 1
        dim = getattr(a, "shape", (0,))[-1]
        tracer.dense_eig_max_dim = max(tracer.dense_eig_max_dim, int(dim))
        return tracer.call("spectra.dense_eig", func, (a, *args), kwargs)

    return wrapper


def install(trace: bool) -> Tracer:
    """Pin unseeded ARPACK calls; with ``trace``, also wrap every layer."""
    import importlib

    import scipy.sparse.linalg as sla

    tracer = Tracer(traced=trace)
    original = sla.eigsh
    _replace_everywhere(
        original,
        _eigsh_wrapper(tracer, original, sla.LinearOperator, sla.aslinearoperator),
        sla,
    )
    if not trace:
        return tracer
    for group, (module_name, names) in GROUPS.items():
        _wrap_group(tracer, group, module_name, names)
    for module_name, names in DENSE_EIG:
        module = importlib.import_module(module_name)
        for name in names:
            func = getattr(module, name)
            _replace_everywhere(func, _dense_eig_wrapper(tracer, func), module)
    return tracer
