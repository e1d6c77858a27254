"""Finite-size gap criteria, certificates, and the operator-inequality suite.

Each certifier turns locally computed gaps into a Certificate whose bound
is prefactor * (local_gap - threshold). The criteria are one-sided: a
local gap above the threshold certifies a gap in the thermodynamic limit,
anything else is reported as inconclusive (never "gapless").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .coarse_grain import (
    EffectiveModel1D,
    EffectiveModel2D,
    effective_1d,
    effective_2d,
    plaquette_model_sum,
)
from .coefficients import (
    SQRT6,
    Deformation1D,
    autocorr_1d,
    coeffs_1d,
    coeffs_2d,
    optimal_x,
    threshold_1d,
    threshold_2d,
    weight_table,
)
from .lattice import PlaquetteSet, collar_centers, patch, plaquette_distance, plaquette_set, rhomboid_sites
from .models import frustration_free, random_cell_2d, random_ff
from .operators import (
    ChainModel,
    InteractionCell,
    LocalSum,
    chain_hamiltonian,
    enlarged_ring,
    q_and_f,
)
from .spectra import (
    DENSE_MAX_DIM,
    LANCZOS_RTOL,
    MARGIN_RTOL,
    GapProfile,
    _eigvalsh,
    _largest_eigenvalue,
    _least_eigenvalue,
    certified_margin,
    gap_profile,
)

SCHEMA_VERSION = 1
_INTERCHANGE_SAMPLES = 5
IDENTITY_RTOL = 1e-12  # the suite's operator identities hold to this relative residual


@dataclass(frozen=True)
class Certificate:
    """Outcome of one finite-size criterion evaluation."""

    criterion: str
    inputs: dict
    local_gap: float
    threshold: float
    prefactor: float
    constants: dict = field(default_factory=dict)
    provenance: tuple = ()

    @property
    def bound(self) -> float:
        return self.prefactor * (self.local_gap - self.threshold)

    @property
    def verdict(self) -> str:
        return "certified_gapped" if self.local_gap > self.threshold else "inconclusive"

    def to_json(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "criterion": self.criterion,
            "n": self.inputs.get("n"),
            "mode": self.inputs.get("mode"),
            "inputs": dict(self.inputs),
            "local_gap": self.local_gap,
            "threshold": self.threshold,
            "prefactor": self.prefactor,
            "bound": self.bound,
            "verdict": self.verdict,
            "provenance": [dict(p) for p in self.provenance],
            "constants": dict(self.constants),
        }


def _certificate(criterion, inputs, local_gap, threshold, prefactor, constants=None, provenance=()):
    return Certificate(
        criterion=criterion,
        inputs=dict(inputs),
        local_gap=float(local_gap),
        threshold=float(threshold),
        prefactor=float(prefactor),
        constants=dict(constants or {}),
        provenance=tuple(provenance),
    )


# ---------------------------------------------------------------------------
# 1D criteria
# ---------------------------------------------------------------------------

def certify_thm1(profile: GapProfile, n: int, mode: str = "exact") -> Certificate:
    """Open-chain criterion from the bulk gap at n and edge gaps up to n-1.

    For n >= 4 the prefactor is 1/(2^8 sqrt(6n)) and the threshold is
    threshold_1d(n, mode); n = 3 uses prefactor 2 with threshold 1/2.
    Models without boundary projectors need no special casing: their edge
    gaps coincide with the bulk gaps.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if profile.n < n:
        raise ValueError(f"profile covers lengths up to {profile.n}, need {n}")
    bulk_n = profile.bulk_list[n - 2]
    edge = profile.edge_min_at(n - 1)
    local_gap = min(bulk_n, edge)
    if n == 3:
        prefactor, threshold = 2.0, 0.5
    else:
        prefactor = 1.0 / (2 ** 8 * math.sqrt(6.0 * n))
        threshold = threshold_1d(n, mode)
    return _certificate(
        "thm1",
        {"n": n, "mode": mode},
        local_gap,
        threshold,
        prefactor,
        constants={"bulk_gap": bulk_n, "edge_gap": edge},
        provenance=(
            {"kind": "bulk", "length": n, "gap": bulk_n},
            {"kind": "edge_min", "length": n - 1, "gap": edge},
        ),
    )


def certify_thm2(profile: GapProfile, n: int, mode: str = "exact") -> Certificate:
    """Strong open-chain criterion with coefficient-weighted edge averages.

    The edge contribution replaces the plain minimum by suffix-weighted
    averages of min(left, right) gaps, so a single small short-chain edge
    gap no longer dominates; the bound is never below the plain criterion.
    The bare boundary gap e_0 is 1 (a nonzero boundary projector) unless the
    profile's model has no boundary projectors, where it is +inf.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    if profile.n < n:
        raise ValueError(f"profile covers lengths up to {profile.n}, need {n}")
    x = optimal_x(n)[0] if mode == "exact" else SQRT6
    c = coeffs_1d(n, x).c
    threshold = threshold_1d(n, mode)
    # edge gaps for lengths 1..n-1 (length 1 is the bare boundary projector)
    e = [math.inf if profile.boundary_trivial else 1.0]
    for k in range(1, n - 1):
        e.append(min(profile.left[k - 1], profile.right[k - 1]))
    averages = []
    for j in range(n - 1):
        weights = c[: n - 1 - j]
        num = sum(w * e[j + i] for i, w in enumerate(weights))
        averages.append(num / sum(weights))
    bulk_n = profile.bulk_list[n - 2]
    local_gap = min(bulk_n, min(averages))
    prefactor = 1.0 / (2 ** 8 * math.sqrt(6.0 * n))
    return _certificate(
        "thm2",
        {"n": n, "mode": mode},
        local_gap,
        threshold,
        prefactor,
        constants={"bulk_gap": bulk_n, "x": x, "edge_averages": tuple(averages)},
        provenance=({"kind": "bulk", "length": n, "gap": bulk_n},),
    )


def periodic_window(n: int, m: int) -> int:
    """The bulk chain length n whose gap ``certify_periodic`` needs; raises on invalid n, m."""
    if n <= 4:
        raise ValueError(f"periodic criterion needs n >= 5, got {n}")
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    if n > m / 2 - 1:
        raise ValueError(f"need n <= m/2 - 1, got n={n}, m={m}")
    return n


def certify_periodic(gamma_bulk_n: float, n: int, m: int) -> Certificate:
    """Periodic-chain criterion with prefactor (5/6)(n^2+n)/(n-4)."""
    periodic_window(n, m)
    prefactor = (5.0 / 6.0) * (n * n + n) / (n - 4)
    threshold = 6.0 / (n * (n + 1))
    return _certificate(
        "gm_periodic",
        {"n": n, "m": m},
        gamma_bulk_n,
        threshold,
        prefactor,
        provenance=({"kind": "bulk", "length": n, "gap": float(gamma_bulk_n)},),
    )


# ---------------------------------------------------------------------------
# quasi-1D and 2D criteria
# ---------------------------------------------------------------------------

def quasi1d_window(n: int) -> range:
    """The strip counts l = floor(n/2)..n whose gaps ``certify_quasi1d`` needs; raises on n < 4."""
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    return range(n // 2, n + 1)


def certify_quasi1d(
    cell: InteractionCell,
    m2: int,
    R: int,
    n: int,
    gaps: dict,
    effective: EffectiveModel1D | None = None,
) -> Certificate:
    """Strip-geometry criterion from gaps of windows of l strips.

    ``gaps`` maps l -> gap of the window of l whole strips of width R, the
    (l*R) x m2 box Hamiltonian, for all l in ``quasi1d_window(n)``.
    """
    window = quasi1d_window(n)
    eff = effective if effective is not None else effective_1d(cell, m2, R)
    if (eff.m2, eff.R) != (m2, R):
        raise ValueError(f"effective model is for m2={eff.m2}, R={eff.R}, not m2={m2}, R={R}")
    missing = [l for l in window if l not in gaps]
    if missing:
        raise ValueError(f"missing gap entries for window sizes {missing}")
    c1 = eff.C1 / (2 ** 9 * eff.C2 * math.sqrt(6.0 * n))
    c2 = 4.0 * SQRT6 * eff.C2
    local_gap = min(float(gaps[l]) for l in window)
    threshold = c2 * n ** -1.5
    return _certificate(
        "quasi1d",
        {"n": n, "m2": m2, "R": R},
        local_gap,
        threshold,
        c1,
        constants={
            "C1_1d": eff.C1,
            "C2_1d": eff.C2,
            "C1": c1,
            "C2": c2,
            "metaspin_dim": eff.metaspin_dim,
        },
        provenance=tuple(
            {"kind": "window", "strips": l, "gap": float(gaps[l])} for l in window
        ),
    )


def chiral_exclusion(C: float, R: int, C2: float) -> tuple[int, dict]:
    """Smallest window size with a positive excluded-scaling bound.

    Returns n0, the least integer with 1/(C R n) - C2 n^{-3/2} > 0 (i.e.
    n > (C R C2)^2), plus a table demonstrating that C/m1 eventually drops
    below the positive right-hand side as m1 grows.
    """
    if C <= 1.0:
        raise ValueError(f"need C > 1, got {C}")
    if C2 <= 0.0:
        raise ValueError(f"need C2 > 0, got {C2}")
    if R < 1:
        raise ValueError(f"need R >= 1, got {R}")
    target = (C * R * C2) ** 2
    n0 = int(math.floor(target)) + 1
    rhs_unit = 1.0 / (C * R * n0) - C2 * n0 ** -1.5
    rows = [{"m1": 4 ** k, "lhs": C / 4 ** k} for k in range(1, 11)]
    table = {
        "n0": n0,
        "rhs_over_C1": rhs_unit,
        "rows": rows,
        "note": "lhs = C/m1 decreases without bound while rhs stays positive",
    }
    return n0, table


def two_d_window(n: int) -> list[tuple[int, int]]:
    """The box pairs [n/2, n]^2 whose gaps ``certify_2d`` needs; raises unless n is even >= 2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be an even integer >= 2, got {n}")
    return list(itertools.product(range(n // 2, n + 1), repeat=2))


def certify_2d(
    cell: InteractionCell,
    R: int,
    n: int,
    gaps: dict,
    effective: EffectiveModel2D | None = None,
) -> Certificate:
    """Rhomboid-geometry criterion from gaps of windows of l1 x l2 boxes.

    ``gaps`` maps (l1, l2) -> gap of the rhomboid Hamiltonian for all
    integer pairs in the window ``two_d_window(n)``.
    """
    pairs = two_d_window(n)
    eff = effective if effective is not None else effective_2d(cell, R)
    if eff.R != R:
        raise ValueError(f"effective model is for R={eff.R}, not R={R}")
    wt = weight_table(n)
    cmid = coeffs_2d(n).at(n // 2)
    missing = [p for p in pairs if p not in gaps]
    if missing:
        raise ValueError(f"missing gap entries for window pairs {missing}")
    c1 = eff.C1 * wt.alpha * cmid * wt.sigma / (4.0 * eff.C2)
    c2 = eff.C2
    g2 = threshold_2d(n)
    local_gap = min(float(gaps[p]) for p in pairs)
    threshold = c2 * g2
    return _certificate(
        "two_d",
        {"n": n, "R": R},
        local_gap,
        threshold,
        c1,
        constants={
            "C1_2d": eff.C1,
            "C2_2d": eff.C2,
            "C1": c1,
            "C2": c2,
            "g_2d": g2,
            "alpha": wt.alpha,
            "sigma": wt.sigma,
            "c_mid": cmid,
            "metaspin_dim": eff.metaspin_dim,
        },
        provenance=tuple(
            {"kind": "window", "boxes": list(p), "gap": float(gaps[p])} for p in pairs
        ),
    )


# ---------------------------------------------------------------------------
# operator-inequality verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    """Sizes of the inequality suite (x = SQRT6, tolerances IDENTITY_RTOL and MARGIN_RTOL)."""

    n: int = 4
    margin_m: int = 8
    dims_cycle: tuple[int, ...] = (2, 2, 2, 3)
    identity_ms_d2: tuple[int, ...] = (4, 5, 6, 7, 8)
    identity_ms_d3: tuple[int, ...] = (4, 5, 6)


def standard_instance_plan(trials: int, config: SuiteConfig | None = None) -> list[dict]:
    """Deterministic (d, identity size, ranks) assignment for suite trials.

    Rank choices are restricted to combinations that are generically
    frustration-free: a single rank-1 bond at d=2 (open boundary), and a
    rank-2 bond with rank-1 boundary projectors at d=3 (which exercises
    genuinely distinct edge gaps).
    """
    config = config or SuiteConfig()
    d2_ms = itertools.cycle(config.identity_ms_d2)
    d3_ms = itertools.cycle(config.identity_ms_d3)
    plan = []
    for i in range(trials):
        d = config.dims_cycle[i % len(config.dims_cycle)]
        plan.append(
            {
                "index": i,
                "d": d,
                "identity_m": next(d2_ms if d == 2 else d3_ms),
                "rank_bulk": 1 if d == 2 else 2,
                "rank_boundary": 0 if d == 2 else 1,
            }
        )
    return plan


def hsquared_identity_residual(model: ChainModel, m: int) -> float:
    """Relative Frobenius residual of H^2 = H + Q + F on the enlarged ring."""
    H = chain_hamiltonian(model, m)
    Q, F = q_and_f(model, m)
    H2 = H @ H
    return float(np.linalg.norm((H2 - H - Q - F).data) / np.linalg.norm(H2.data))


def term_images(ring: LocalSum, v: np.ndarray) -> np.ndarray:
    """The stacked images [h_1 v, ..., h_{m+1} v] (zero rows for absent boundary terms)."""
    dtype = np.result_type(v, *(block for _, block, _ in ring.terms))
    images = np.empty((len(ring.terms), v.size), dtype)
    for t, row in enumerate(images):
        row[:] = ring.apply_term(t, v)
    return images


def window_from_images(l: int, c: tuple[float, ...], images: np.ndarray) -> np.ndarray:
    """B_{n,l} v = sum_a c_a h_{l+a} v (1-based cyclic l), from ``term_images(ring, v)``."""
    period = len(images)
    return sum(weight * images[(l + a - 1) % period] for a, weight in enumerate(c))


def apply_pairs(ring: LocalSum, W: np.ndarray, images: np.ndarray) -> np.ndarray:
    """sum_ij W[i, j] h_i h_j v from the term images ``term_images(ring, v)``; W is real.

    Grouped by the term applied last, this is sum_i h_i (W @ images)_i: one
    more application per term. The real table mixes the float64 view of
    complex images (real and imaginary parts side by side), so the mixing
    is one real matrix product.
    """
    mixed = (W @ images.view(np.float64)).view(images.dtype)
    out = np.zeros(images.shape[1], images.dtype)
    for t, row in enumerate(mixed):
        out += ring.apply_term(t, row)
    return out


def interchange_residual(model: ChainModel, m: int, coeffs: Deformation1D, seed: int = 0) -> float:
    """Relative residual of sum_l B_{n,l} = (sum_j c_j) H on random vectors."""
    ring = enlarged_ring(model, m)
    rng = np.random.default_rng((seed, 0xB0))
    worst = 0.0
    total_c = sum(coeffs.c)
    for _ in range(_INTERCHANGE_SAMPLES):
        v = rng.standard_normal(ring.dim) + 1j * rng.standard_normal(ring.dim)
        v /= np.linalg.norm(v)
        images = term_images(ring, v)
        lhs = sum(window_from_images(l, coeffs.c, images) for l in range(1, m + 2))
        rhs = total_c * ring.apply(v)
        denom = max(1.0, float(np.linalg.norm(rhs)))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / denom)
    return worst


def rewrite_table(coeffs: Deformation1D, period: int) -> np.ndarray:
    """Pair table of the rewrite inequality's difference D on a ring of ``period`` terms.

    D = (sum c^2) H + (sum c c') (Q+F) - sum_l B_{n,l}^2 is sum_ij W[i, j] h_i h_j,
    with (sum c^2) H folded into the diagonal (h_i^2 = h_i for projector
    terms) and Q+F the sum of h_i h_j over all ordered pairs i != j. Window
    l puts c_a c_b on (l+a, l+b), so sum_l B_l^2 has q(delta) at cyclic
    distance delta, with q from ``autocorr_1d`` and q(delta) = 0 from
    delta = n-1 on; sum c^2 and sum c c' are q(0) and q(1). So W is exactly
    0 at distance 0 and 1 and q(1) - q(delta) beyond. Needs period >= 2n+1,
    under which no two offsets alias (``rewrite_margin``'s n <= m/2 gives it).
    """
    q = np.zeros(period)
    q[: coeffs.n - 1] = autocorr_1d(coeffs)
    k = np.arange(period)
    delta = np.abs(k[:, None] - k)
    delta = np.minimum(delta, period - delta)
    return np.where(delta <= 1, 0.0, q[1] - q[delta])


def rewrite_difference(ring: LocalSum, coeffs: Deformation1D):
    """(terms, matvec): the ring's nonzero terms and the matvec of D from ``rewrite_table``.

    An absent boundary term contributes nothing to D, so both run over the
    nonzero terms only. Each matvec applies every nonzero term twice: once
    for the term images, once in ``apply_pairs``.
    """
    live = [t for t, (_, block, _) in enumerate(ring.terms) if block.any()]
    terms = LocalSum(ring.dims, [ring.terms[t] for t in live])
    W = rewrite_table(coeffs, len(ring.terms))[np.ix_(live, live)]
    return terms, lambda v: apply_pairs(terms, W, term_images(terms, v))


def rewrite_margin(model: ChainModel, m: int, coeffs: Deformation1D) -> tuple[float, float]:
    """(margin, scale) of the deformed-window rewrite inequality at window size coeffs.n.

    The inequality bounds sum_l B_{n,l}^2 by q(0) H + q(1) (Q+F), with q
    from ``autocorr_1d``. The margin is the least eigenvalue of the
    difference D, by the shifted solve of ``_least_eigenvalue`` on
    ``rewrite_difference`` stopped at LANCZOS_RTOL (it raises when its
    eigenpair residual is too large). The scale is the dominating side's
    largest eigenvalue (at least 1): by H^2 = H + Q + F that side is
    q(1) H^2 + (q(0) - q(1)) H, so it follows from lambda_max(H).
    """
    n = coeffs.n
    if not 3 <= n <= m / 2:
        raise ValueError(f"need 3 <= n <= m/2, got n={n}, m={m}")
    ring = enlarged_ring(model, m)
    terms, difference = rewrite_difference(ring, coeffs)
    q = autocorr_1d(coeffs)
    lam = _largest_eigenvalue(terms.apply, ring.dim, ring.dtype)
    scale = max(1.0, q[1] * lam ** 2 + (q[0] - q[1]) * lam)
    return _least_eigenvalue(difference, ring.dim, ring.dtype, scale, tol=LANCZOS_RTOL)[0], scale


def window_gap_margins(
    model: ChainModel, m: int, coeffs: Deformation1D, gamma_bulk: float, gamma_edge: float
) -> list[dict]:
    """Per-window margins of B^2 >= c_0 gamma B (bulk/edge split by l) at window size coeffs.n.

    Each window B_{n,l} takes its nonzero terms from the enlarged ring and
    is assembled on the sites they touch, so the margin of the polynomial
    c_0-gap inequality comes from a small dense spectrum.
    """
    n = coeffs.n
    if n > m / 2:
        raise ValueError(f"need n <= m/2, got n={n}, m={m}")
    ring = enlarged_ring(model, m)
    period = m + 1
    c0 = coeffs.c[0]
    out = []
    for l in range(1, period + 1):
        terms = []
        for a, weight in enumerate(coeffs.c):
            positions, block, _ = ring.terms[(l + a - 1) % period]
            if block.any():
                terms.append((positions, block, weight))
        support = sorted({p for positions, _, _ in terms for p in positions})
        window = LocalSum(
            (model.d,) * len(support),
            [(tuple(map(support.index, positions)), block, w) for positions, block, w in terms],
        )
        vals = _eigvalsh(window.assemble().toarray())
        is_bulk = l <= m - n + 1
        kappa = c0 * (gamma_bulk if is_bulk else gamma_edge)
        margin = float(np.min(vals * (vals - kappa)))
        scale = max(1.0, float(vals[-1]) ** 2)
        out.append(
            {
                "l": l,
                "regime": "bulk" if is_bulk else "edge",
                "kappa": kappa,
                "margin": margin,
                "scale": scale,
                "support": [p + 1 for p in support],
            }
        )
    return out


def verify_chain_instance(
    model: ChainModel,
    identity_m: int,
    config: SuiteConfig,
    seed: int = 0,
) -> dict:
    """All 1D inequality checks for one chain model; see verify_inequality_suite."""
    n = config.n
    record: dict = {}
    record["ff"] = frustration_free(model, identity_m)
    if not record["ff"]:
        record["failure"] = "ff_precondition"
        record["pass"] = False
        return record
    coeffs = coeffs_1d(n, SQRT6)

    identity = hsquared_identity_residual(model, identity_m)
    record["identity_residual"] = identity
    record["identity_pass"] = identity <= IDENTITY_RTOL

    inter = interchange_residual(model, config.margin_m, coeffs, seed)
    record["interchange_residual"] = inter
    record["interchange_pass"] = inter <= IDENTITY_RTOL

    margin, scale = rewrite_margin(model, config.margin_m, coeffs)
    record["rewrite_margin"] = margin
    record["rewrite_scale"] = scale
    record["rewrite_pass"] = margin >= -MARGIN_RTOL * scale

    profile = gap_profile(model, n)
    gamma_bulk = profile.bulk_list[n - 2]
    gamma_edge = profile.edge_min_at(n - 1)
    record["gamma_bulk_n"] = gamma_bulk
    record["gamma_edge"] = gamma_edge
    windows = window_gap_margins(model, config.margin_m, coeffs, gamma_bulk, gamma_edge)
    record["windows"] = windows
    record["windows_pass"] = all(w["margin"] >= -MARGIN_RTOL * w["scale"] for w in windows)

    record["pass"] = (
        record["identity_pass"]
        and record["interchange_pass"]
        and record["rewrite_pass"]
        and record["windows_pass"]
    )
    return record


def patch_square_table(ambient: PlaquetteSet, n: int) -> np.ndarray:
    """Pair table of the sum over collar patches of B^2, in ``ambient.plaquettes`` order.

    Patch B at a collar center has the member plaquettes p with weights
    c(d(center, p)), so entry (p, q) sums c(d(center, p)) c(d(center, q))
    over the centers whose patch holds both p and q.
    """
    c2d = coeffs_2d(n)
    index = {p: i for i, p in enumerate(ambient.plaquettes)}
    W = np.zeros((len(index), len(index)))
    for center in collar_centers(ambient, n):
        patch_ = patch(n, center, ambient)
        members = [index[p] for p in patch_.members]
        weights = [c2d.at(plaquette_distance(patch_, p)) for p in patch_.members]
        W[np.ix_(members, members)] += np.outer(weights, weights)
    return W


def prop2d_margin(
    cell: InteractionCell,
    n: int = 2,
    m1: int = 2,
    m2: int = 2,
    effective: EffectiveModel2D | None = None,
) -> dict:
    """Margin of the 2D rewrite inequality on the effective plaquette model.

    Checks D = H^2 + beta H - alpha * sum over collar patches of B^2 >= 0 on
    the rhomboid's metaspin space, summing patches at every collar center.
    With the plaquette terms h_p, each assembled once, H^2 is the sum of
    h_p h_q over all pairs and the patch squares are sum_pq W[p, q] h_p h_q
    with W from ``patch_square_table``, so D = beta H +
    sum_pq (1 - alpha W[p, q]) h_p h_q. ``lambda_max_H`` is one Lanczos
    solve, ``scale`` = max(1, lambda_max_H^2 + beta lambda_max_H), and
    ``margin`` the least
    eigenvalue of D from ``spectra.certified_margin`` (Lanczos, certified by
    one Cholesky factorization; dense when that fails). Passes when margin
    >= -MARGIN_RTOL * scale. Rhomboids above DENSE_MAX_DIM are refused
    before anything is assembled.
    """
    eff = effective if effective is not None else effective_2d(cell, cell.R)
    dim = eff.metaspin_dim ** len(rhomboid_sites(m1, m2, eff.R)[1])
    if dim > DENSE_MAX_DIM:
        raise ValueError(
            f"2D margin check requires a dense-diagonalizable rhomboid, got dim {dim} "
            f"> {DENSE_MAX_DIM}"
        )
    wt = weight_table(n)
    ambient = plaquette_set(m1, m2, eff.R)
    M = 1.0 - wt.alpha * patch_square_table(ambient, n)
    model = plaquette_model_sum(eff, m1, m2)
    H = model.assemble()
    h = [LocalSum(model.dims, (term,)).assemble() for term in model.terms]
    # [h_1 ... h_N] (M x I) [h_1; ...; h_N] = sum_pq M[p, q] h_p h_q
    pairs = sp.kron(M, sp.identity(H.shape[0]), format="csr") @ sp.vstack(h)
    diff = wt.beta * H + sp.hstack(h) @ pairs
    lam_h = _largest_eigenvalue(lambda v: H @ v, H.shape[0], H.dtype)
    scale = max(1.0, lam_h ** 2 + wt.beta * lam_h)
    margin = certified_margin(diff, scale)
    return {
        "margin": margin,
        "scale": scale,
        "pass": margin >= -MARGIN_RTOL * scale,
        "collar_size": len(collar_centers(ambient, n)),
        "lambda_max_H": lam_h,
    }


def verify_inequality_suite(
    seed: int, trials: int, config: SuiteConfig | None = None, include_2d: bool = False
) -> dict:
    """Random-instance verification of the operator identities and inequalities.

    For each random frustration-free chain: the H^2 decomposition identity,
    the window interchange identity, the rewrite inequality margin, and the
    per-window polynomial gap margins; optionally the 2D rewrite margin on
    random range-1 cells. Reports are deterministic functions of the seed.
    """
    config = config or SuiteConfig()
    plan = standard_instance_plan(trials, config)
    instances = []
    all_pass = True
    for entry in plan:
        instance_seed = seed * 10007 + entry["index"]
        spec = random_ff(
            entry["d"],
            entry["rank_bulk"],
            entry["rank_boundary"],
            instance_seed,
            ff_check_depth=entry["identity_m"],
        )
        record = {
            "name": spec.name,
            "d": entry["d"],
            "identity_m": entry["identity_m"],
            "margin_m": config.margin_m,
            "rank_bulk": entry["rank_bulk"],
            "rank_boundary": entry["rank_boundary"],
            "regenerations": spec.regenerations,
        }
        record.update(
            verify_chain_instance(spec.payload, entry["identity_m"], config, seed=instance_seed)
        )
        instances.append(record)
        all_pass = all_pass and record["pass"]
    report = {
        "schema_version": SCHEMA_VERSION,
        "suite": "1d+2d" if include_2d else "1d",
        "seed": seed,
        "trials": trials,
        "config": {
            "x": SQRT6,
            **asdict(config),
            "identity_rtol": IDENTITY_RTOL,
            "margin_rtol": MARGIN_RTOL,
            "eigsh_tol": LANCZOS_RTOL,
        },
        "instances": instances,
    }
    if include_2d:
        cells = []
        for i in range(3):
            spec = random_cell_2d(2, 1, seed * 331 + i)
            entry = {"name": spec.name}
            entry.update(prop2d_margin(spec.payload))
            cells.append(entry)
            all_pass = all_pass and entry["pass"]
        report["cells_2d"] = cells
    report["pass"] = all_pass
    return report
