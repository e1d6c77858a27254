"""Spectral gaps, least-eigenvalue margins, window kernels, and boundary gap profiles.

Every gap of a window has a kernel basis built without diagonalization: the
ground space of a frustration-free window is the intersection of the kernels
of its local terms, so it grows one site at a time, K <- (K (x) C^d) & ker h
for each term h whose last site was just added (the finitely correlated
ground-space structure of Fannes, Nachtergaele and Werner), with a buffer of
low-energy columns that keeps rounding from growing cut after cut.
``kernel`` runs that one recursion on any sum of projector terms (2D windows
and coarse-graining blocks), and ``chain_kernels`` is its chain case, every
length from one pass. Its one cap is the dense cap: it refuses a site whose
tensored columns would hold more than DENSE_MAX_DIM^2 entries, which no
window of dimension up to DENSE_MAX_DIM reaches. So every window gap
(``chain_gap``, ``region_gap``) has a kernel basis; the gap is cross-checked
against it and deflated by it: dense below a size cutoff, above it the least
eigenvalue of H + s Pi_K by the shifted solve of ``_least_eigenvalue``, with
an explicit residual check so a silently unconverged eigenvalue cannot
masquerade as a gap. Without a basis, a gap is dense or refused. Operators
are sparse matrices or ndarrays, never matrix-free, and nothing larger than
DENSE_MAX_DIM is densified. ``_eigsh`` is the one ARPACK call: seeded, on one
BLAS thread, stopped at LANCZOS_RTOL for a gap, its scale and the rewrite
margin, and at machine precision otherwise (certificate constants, margin
scales, the Cholesky-certified margin). Tolerances are module constants.
Solves do not always rerun bit for bit: on a degenerate largest eigenvalue,
as in the 2D scale of ``prop2d_margin``, ARPACK has been seen to change in
its last bits, real (``dsaupd``) and complex (``znaupd``) alike, from
process to process and from call to call, on one BLAS thread. No other
module diagonalizes or factors a matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh

from ._blas import single_thread
from .lattice import SiteRegion
from .operators import (
    ChainModel,
    InteractionCell,
    LocalProjector,
    LocalSum,
    chain_hamiltonian,
    check_dim,
    region_sum,
)

# size limits (Hilbert-space dimensions; assembly is capped by operators.MAX_ED_DIM)
DENSE_MAX_DIM = 8192  # the largest matrix ffgap densifies; the kernel recursion's cap
KERNEL_DENSE_CUTOFF = 512  # spectral_gap with a kernel basis: dense up to here, deflated above

ZERO_TOL = 1e-10  # a gap's kernel threshold is ZERO_TOL * max(1, lambda_max)
RESIDUAL_RTOL = 1e-8
LANCZOS_RTOL = 1e-12  # ARPACK stopping tolerance of a deflated gap, its scale, a rewrite margin
MARGIN_RTOL = 1e-9  # an inequality holds when its margin is >= -MARGIN_RTOL * scale
NULL_SVD_TOL = math.sqrt(ZERO_TOL)  # kernel recursion: a column of energy <= ZERO_TOL is kernel
BUFFER_SVD_TOL = 1e-2  # kernel recursion: columns of energy up to BUFFER_SVD_TOL^2 are kept
LANCZOS_SEED = 20180123
_ARPACK_MAXITER = 5000
DEFLATED_RESTARTS = 200  # Lanczos restarts of a deflated gap before falling back to dense


@dataclass(frozen=True)
class GapReport:
    """Result of a gap computation.

    ``gap`` is the smallest eigenvalue above the kernel threshold
    ZERO_TOL * max(1, lambda_max), or +inf when no eigenvalue exceeds it
    (zero operator). ``residual`` is the eigenpair residual of the gap
    relative to the scale s = max(1, lambda_max) (0 for dense computations).
    ``method`` is "dense" or "deflated": the least eigenvalue of H + s Pi_K
    by the shifted Lanczos solve. ``zero_tol`` records ZERO_TOL.
    """

    dim: int
    ground_energy: float
    kernel_dim: int
    gap: float
    method: str
    zero_tol: float
    residual: float


@dataclass(frozen=True)
class GapProfile:
    """Open-boundary gap data of a chain model at window size n.

    ``bulk_list``, ``left`` and ``right`` collect the bulk / left-boundary /
    right-boundary gaps for all lengths n' = 2..n (index 0 is n' = 2), so
    n = len(bulk_list) + 1. ``edge_min`` is the boundary gap min(1, min over
    n' <= n of left and right gaps).
    """

    left: tuple[float, ...]
    right: tuple[float, ...]
    bulk_list: tuple[float, ...]
    boundary_trivial: bool

    @property
    def n(self) -> int:
        return len(self.bulk_list) + 1

    @property
    def edge_min(self) -> float:
        return self.edge_min_at(self.n)

    def edge_min_at(self, k: int) -> float:
        """The boundary gap restricted to lengths n' <= k (1 when k < 2)."""
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        count = min(k - 1, len(self.left))
        values = self.left[:count] + self.right[:count]
        return min(1.0, min(values)) if values else 1.0


# ---------------------------------------------------------------------------
# input matrices
# ---------------------------------------------------------------------------

def _matrix(op):
    """A square CSR matrix or ndarray; anything else (a matrix-free operator) is refused."""
    if sp.issparse(op):
        op = sp.csr_matrix(op)
    elif not isinstance(op, np.ndarray):
        raise ValueError(
            f"spectra takes a sparse matrix or an ndarray, not a matrix-free {type(op).__name__}; "
            "chain_gap and region_gap assemble a window's Hamiltonian"
        )
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError("operator must be a square matrix")
    return op


def _dense(H) -> np.ndarray:
    """H as a dense array, refused above DENSE_MAX_DIM."""
    if H.shape[0] > DENSE_MAX_DIM:
        raise ValueError(
            f"spectra densifies up to dimension {DENSE_MAX_DIM}, got {H.shape[0]}; "
            "chain_gap and region_gap build the kernel basis that avoids it"
        )
    return H.toarray() if sp.issparse(H) else H


def start_vector(dim: int, dtype=np.float64) -> np.ndarray:
    """The fixed ARPACK start vector of a dimension (seeded by LANCZOS_SEED)."""
    v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, dim)
    return v0.astype(np.result_type(dtype, np.float64))


def _eigsh(apply, dim, dtype, tol: float, restarts: int = _ARPACK_MAXITER, **kw):
    """The largest eigenpair of a Hermitian operator by one seeded Lanczos solve on one BLAS thread.

    The one ARPACK call in ffgap; it raises ArpackNoConvergence naming the
    restart budget.
    """
    op = LinearOperator((dim, dim), matvec=apply, dtype=dtype)
    try:
        with single_thread():
            return eigsh(
                op, k=1, which="LA", maxiter=restarts, tol=tol, v0=start_vector(dim, dtype), **kw
            )
    except ArpackNoConvergence as err:
        raise ArpackNoConvergence(
            f"Lanczos iteration did not converge within {restarts} restarts",
            err.eigenvalues,
            err.eigenvectors,
        ) from err


def _largest_eigenvalue(apply, dim, dtype, tol: float = 0.0) -> float:
    """The largest eigenvalue of a Hermitian operator, by one Lanczos solve."""
    return float(_eigsh(apply, dim, dtype, tol, return_eigenvectors=False)[0])


def _least_eigenvalue(
    apply, dim, dtype, scale: float, tol: float = 0.0, restarts: int = _ARPACK_MAXITER
) -> tuple[float, float]:
    """(theta, residual): the least eigenvalue of a Hermitian operator, by one Lanczos solve.

    Lanczos runs on shift*I - op with shift = 1.05 * scale + 1, whose target
    eigenvalue shift - theta is the largest ("LA") and far from zero, so the
    relative tolerance is meaningful; a Ritz value can only undershoot it, so
    theta is never below the true least eigenvalue. The residual is the
    eigenpair residual relative to max(1, scale, |theta|); it raises when
    that exceeds max(RESIDUAL_RTOL, 10 tol).
    """
    shift = 1.05 * scale + 1.0
    vals, vecs = _eigsh(lambda v: shift * v - apply(v), dim, dtype, tol, restarts)
    theta = shift - float(vals[0])
    v = vecs[:, 0]
    residual = float(np.linalg.norm(apply(v) - theta * v)) / max(1.0, scale, abs(theta))
    bound = max(RESIDUAL_RTOL, 10.0 * tol)
    if residual > bound:
        raise RuntimeError(f"eigenpair residual {residual:.3e} exceeds {bound:.0e}")
    return theta, residual


# ---------------------------------------------------------------------------
# gaps
# ---------------------------------------------------------------------------

def _eigvalsh(arr: np.ndarray) -> np.ndarray:
    """Dense ascending eigenvalues, in real arithmetic when the entries are real."""
    return np.linalg.eigvalsh(arr.real if np.iscomplexobj(arr) and not arr.imag.any() else arr)


def _dense_report(vals: np.ndarray) -> GapReport:
    """The gap report of a full ascending spectrum."""
    dim = len(vals)
    lam_max = float(vals[-1]) if dim else 0.0
    scale = max(1.0, lam_max)
    threshold = ZERO_TOL * scale
    above = vals > threshold
    gap = float(vals[above].min()) if above.any() else math.inf
    return GapReport(
        dim=dim,
        ground_energy=float(vals[0]),
        kernel_dim=int((~above).sum()),
        gap=gap,
        method="dense",
        zero_tol=ZERO_TOL,
        residual=0.0,
    )


def _kernel_report(H, kernel) -> GapReport:
    """Gap of H from a claimed orthonormal kernel basis K, cross-checked both ways.

    lambda_max(K^H H K) <= ZERO_TOL * scale shows, by interlacing, that H has
    at least dim K eigenvalues at or below the kernel threshold; a gap above
    the threshold shows that it has no more. Either failure raises.
    """
    dim = H.shape[0]
    K = np.asarray(kernel)
    if K.ndim != 2 or K.shape[0] != dim:
        raise ValueError(f"kernel basis must have shape ({dim}, k), got {K.shape}")
    k = K.shape[1]
    ritz = np.zeros(0)  # eigenvalues of K^H H K
    if k:
        ritz = np.linalg.eigvalsh(K.conj().T @ (H @ K))

    def check_kernel(threshold):
        if k and ritz[-1] > threshold:
            raise RuntimeError(
                f"kernel basis is not annihilated: lambda_max(K^H H K) = {ritz[-1]:.3e} "
                f"exceeds the kernel threshold {threshold:.3e}"
            )

    def dense_report():
        vals = _eigvalsh(_dense(H))
        report = _dense_report(vals)
        check_kernel(ZERO_TOL * max(1.0, float(vals[-1])))
        if report.kernel_dim != k:
            raise RuntimeError(
                f"kernel basis has {k} vectors but H has {report.kernel_dim} eigenvalues "
                "at or below the kernel threshold"
            )
        return report

    if dim <= KERNEL_DENSE_CUTOFF:
        return dense_report()

    if k == dim:
        scale = max(1.0, float(ritz[-1]))
        check_kernel(ZERO_TOL * scale)
        return GapReport(dim, float(ritz[0]), dim, math.inf, "deflated", ZERO_TOL, 0.0)
    lam_max = _largest_eigenvalue(lambda v: H @ v, dim, H.dtype, tol=LANCZOS_RTOL)
    scale = max(1.0, lam_max)
    threshold = ZERO_TOL * scale
    check_kernel(threshold)

    K_h = K.conj().T
    # A gap inside a tight cluster (nearly gapless chains) can take Lanczos
    # longer than dense ED; such solves get a restart budget, then go dense.
    can_densify = dim <= DENSE_MAX_DIM
    try:
        gap, residual = _least_eigenvalue(
            lambda v: H @ v + scale * (K @ (K_h @ v)),
            dim,
            np.result_type(H.dtype, K.dtype),
            scale,
            tol=LANCZOS_RTOL,
            restarts=DEFLATED_RESTARTS if can_densify else _ARPACK_MAXITER,
        )
    except ArpackError:
        if can_densify:
            return dense_report()
        raise
    if gap <= threshold:
        raise RuntimeError(
            f"H has an eigenvalue {gap:.3e} at or below the kernel threshold {threshold:.3e} "
            f"outside the {k}-dimensional kernel basis"
        )
    return GapReport(
        dim=dim,
        ground_energy=float(ritz[0]) if k else gap,
        kernel_dim=k,
        gap=gap,
        method="deflated",
        zero_tol=ZERO_TOL,
        residual=residual,
    )


def spectral_gap(op, kernel=None) -> GapReport:
    """Ground energy, kernel dimension, and spectral gap of a PSD operator.

    The gap is the smallest eigenvalue exceeding the kernel threshold
    ZERO_TOL * max(1, lambda_max). Deflated runs raise if the residual of
    the gap eigenpair exceeds RESIDUAL_RTOL relative to the spectral scale.

    ``kernel`` is an orthonormal basis (dim x k) of the claimed kernel, as
    from ``chain_kernels`` or ``kernel``. It is cross-checked against the
    kernel threshold (raising on a mismatch); the gap is then dense up to
    dimension 512. Above it, s = max(1, lambda_max) comes from one Lanczos
    solve and the gap is the least eigenvalue of H + s Pi_K, by the shifted
    solve of ``_least_eigenvalue`` ("deflated"); both stop at LANCZOS_RTOL.
    The gap solve goes dense after DEFLATED_RESTARTS restarts up to
    DENSE_MAX_DIM.

    Without ``kernel`` the gap is dense up to DENSE_MAX_DIM, and refused
    above it. ``op`` is a sparse matrix or an ndarray.
    """
    H = _matrix(op)
    if kernel is not None:
        return _kernel_report(H, kernel)
    return _dense_report(_eigvalsh(_dense(H)))


def psd_margin(op) -> float:
    """The least eigenvalue of a Hermitian matrix, dense, up to dimension DENSE_MAX_DIM.

    Certifies inequalities X >= Y by psd_margin(X - Y) >= -tolerance.
    """
    return float(_eigvalsh(_dense(_matrix(op)))[0])


def certified_margin(op, scale: float) -> float:
    """The least eigenvalue of a Hermitian matrix, certified by a Cholesky factorization.

    theta comes from one Lanczos solve (``_least_eigenvalue``) and is never
    below the least eigenvalue. A Cholesky factorization of op - sigma*I with
    sigma = max(theta, 0) - MARGIN_RTOL * scale then proves that every
    eigenvalue exceeds sigma: so theta is the least eigenvalue to within
    MARGIN_RTOL * scale, and the margin passes (>= -MARGIN_RTOL * scale).
    (The factorization's backward error, about dim * eps * |op|, is far
    below that.) When the factorization fails, as it must on a failing
    inequality, or Lanczos fails, the margin is ``psd_margin``.
    Dimensions up to DENSE_MAX_DIM.
    """
    H = _matrix(op)
    dim = H.shape[0]
    if dim > DENSE_MAX_DIM:
        raise ValueError(f"certified margins need a matrix of dim <= {DENSE_MAX_DIM}")
    try:
        theta, _ = _least_eigenvalue(lambda v: H @ v, dim, H.dtype, scale)
        shifted = H.toarray() if sp.issparse(H) else H.copy()
        shifted[np.diag_indices(dim)] -= max(theta, 0.0) - MARGIN_RTOL * scale
        # the Fortran-ordered view is the conjugate, so equally definite, and
        # is factored in place without a copy
        cholesky(shifted.T, overwrite_a=True, check_finite=False)
        return theta
    except (ArpackError, LinAlgError, RuntimeError):
        return psd_margin(H)


# ---------------------------------------------------------------------------
# frustration-free kernels, one site at a time
# ---------------------------------------------------------------------------

def _cut(K: np.ndarray, s: np.ndarray, d: int, matrix, positions, weight=1.0):
    """Cut the columns of K by the term w h on the given factor positions.

    The columns of K are the right singular vectors of the square-root
    energy form of the terms cut so far, and s are its singular values (0 at
    or below NULL_SVD_TOL). One thin SVD of [diag(s); sqrt(w) h K] gives the
    new columns and values; the columns whose value exceeds BUFFER_SVD_TOL
    are dropped. ``positions`` are 0-based tensor-factor positions in the
    factor order of ``matrix`` (they need be neither sorted nor contiguous).
    Returns the new (K, s).
    """
    m, k, t = round(math.log(K.shape[0], d)), K.shape[1], len(positions)
    h = (math.sqrt(weight) * matrix).reshape((d,) * (2 * t))
    image = np.tensordot(h, K.reshape((d,) * m + (k,)), axes=(range(t, 2 * t), positions))
    rows = np.moveaxis(image, range(t), positions).reshape(K.shape)
    if s.any():
        rows = np.vstack([np.diag(s)[s > 0], rows])
    _, sv, vh = np.linalg.svd(rows, full_matrices=False)
    keep = sv <= BUFFER_SVD_TOL
    return K @ vh[keep].conj().T, np.where(sv[keep] > NULL_SVD_TOL, sv[keep], 0.0)


def _null(K: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The kernel columns of a recursion state (those whose singular value is 0)."""
    return K[:, s == 0] if s.any() else K


def _grow(d: int, site_cuts):
    """Yield the recursion state (K, s) of a window after each added site, in canonical site order.

    Each site tensors the columns with C^d, K <- K (x) C^d, then cuts them by
    the terms of ``site_cuts[i]`` ((matrix, positions, weight) triples), the
    terms whose last site is site i. Besides the kernel, the columns of
    singular value up to BUFFER_SVD_TOL (energy up to its square) are kept:
    dropping such a column as soon as a term separates it amplifies the
    rounding error of the kernel columns by the inverse of its value, cut
    after cut, which can lose whole kernels of nearly gapless 2D windows.
    Raises ValueError, before tensoring, at a site whose columns K (x) C^d
    would hold more than DENSE_MAX_DIM^2 entries (d k <= d^m, so no window
    of dimension up to DENSE_MAX_DIM reaches it). The columns are real until
    a complex term cuts them.
    """
    K, s = np.ones((1, 1)), np.zeros(1)
    for cuts in site_cuts:
        if K.shape[0] * d * K.shape[1] * d > DENSE_MAX_DIM**2:
            raise ValueError(
                f"the kernel recursion's {K.shape[0] * d} x {K.shape[1] * d} columns exceed "
                f"the dense cap of DENSE_MAX_DIM^2 = {DENSE_MAX_DIM**2} entries"
            )
        K, s = np.kron(K, np.eye(d)), np.repeat(s, d)
        for matrix, positions, weight in cuts:
            K, s = _cut(K, s, d, matrix, positions, weight)
        yield K, s


def _open_states(model: ChainModel, n: int):
    """Yield the recursion states of P_L plus the bonds on lengths 1..n (P_R left out).

    P_L is dropped for periodic chains.
    """
    first = [] if model.bc != "open" or model.P_L.is_zero else [(model.P_L.matrix, (0,), 1.0)]
    return _grow(model.d, [first] + [[(model.P.matrix, (i - 1, i), 1.0)] for i in range(1, n)])


def _closed(model: ChainModel, states) -> list[np.ndarray]:
    """The kernels of the m-site chains from their open states, cut by P_R or the wrap bond."""
    kernels = []
    for m, (K, s) in enumerate(states, start=1):
        if model.bc == "periodic" and m > 1:
            # P on the factor order (site m, site 1)
            K, s = _cut(K, s, model.d, model.P.matrix, (m - 1, 0))
        elif model.bc == "open" and not model.P_R.is_zero:
            K, s = _cut(K, s, model.d, model.P_R.matrix, (m - 1,))
        kernels.append(_null(K, s))
    return kernels


def chain_kernels(model: ChainModel, n: int) -> list[np.ndarray]:
    """Orthonormal kernel bases K_1, ..., K_n of the model's m-site chains.

    Built without diagonalization (``_grow``): K_1 = ker P_L (C^d when P_L
    is zero), K_m = (K_{m-1} (x) C^d) & ker P_{m-1,m}, then one more cut by
    P_R or, for periodic chains, by the wrap-around bond. Entry m-1 is a
    (d^m, dim K_m) array; there are n entries, or the recursion's cap
    (``_grow``) raises ValueError.
    """
    return _closed(model, _open_states(model, n))


def kernel(op: LocalSum) -> np.ndarray:
    """Orthonormal kernel basis (op.dim, dim K) of a weighted sum of projector terms.

    With weights >= 0 the kernel is the intersection of the terms' kernels,
    so ``_grow`` builds it without diagonalization, each term cutting it at
    its last factor; zero-weight terms are skipped. A column is kernel when
    its energy is at most NULL_SVD_TOL^2 = ZERO_TOL, the kernel threshold of
    a unit-scale ``spectral_gap``. Every block must be a projector, so that
    the thresholds are absolute. Raises ValueError on unequal factor
    dimensions, a negative weight, or past the recursion's cap (``_grow``).
    """
    if len(set(op.dims)) != 1:
        raise ValueError(f"the kernel recursion needs equal factor dimensions, got {op.dims}")
    site_cuts = [[] for _ in op.dims]
    for positions, block, weight in op.terms:
        if weight < 0:
            raise ValueError(f"the kernel recursion needs weights >= 0, got {weight}")
        if weight > 0:
            site_cuts[max(positions)].append((block, positions, weight))
    for state in _grow(op.dims[0], site_cuts):
        pass
    return _null(*state)


def chain_gap(model: ChainModel, m: int, kernels: list | None = None) -> GapReport:
    """spectral_gap of the m-site chain from its kernel basis.

    ``kernels`` is the output of ``chain_kernels(model, n)`` for some n >= m
    (built here when omitted). Raises ValueError above MAX_ED_DIM, or past
    the kernel recursion's cap, before assembling.
    """
    check_dim(model.d**m)
    if kernels is None:
        kernels = chain_kernels(model, m)
    return spectral_gap(chain_hamiltonian(model, m), kernel=kernels[m - 1])


def region_gap(cell: InteractionCell, region: SiteRegion) -> GapReport:
    """spectral_gap of a cell's region Hamiltonian from ``kernel``.

    Raises ValueError above MAX_ED_DIM, or past the kernel recursion's cap,
    before assembling.
    """
    check_dim(cell.d ** len(region))
    terms = region_sum(cell, region)
    K = kernel(terms)
    return spectral_gap(terms.assemble(), kernel=K)


# ---------------------------------------------------------------------------
# boundary gap profiles
# ---------------------------------------------------------------------------

def gap_profile(model: ChainModel, n: int) -> GapProfile:
    """Bulk and boundary gaps of an open chain model for lengths 2..n.

    The bulk gap drops both boundary projectors; the left (right) gap
    keeps only the left (right) one. For models without boundary
    projectors all three families coincide. One kernel recursion serves
    the bulk and right families, a second one the left family. Raises
    ValueError above MAX_ED_DIM before assembling.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    check_dim(model.d**n)
    if model.bc != "open":
        raise ValueError("gap profiles are defined for open chains")
    zero = LocalProjector.zero(1, model.d)
    bulk_model = ChainModel(model.d, model.P, zero, zero)
    left_model = ChainModel(model.d, model.P, model.P_L, zero)
    right_model = ChainModel(model.d, model.P, zero, model.P_R)

    def gaps(chain: ChainModel, kernels: list) -> tuple[float, ...]:
        return tuple(chain_gap(chain, length, kernels).gap for length in range(2, n + 1))

    bulk_states = list(_open_states(bulk_model, n))
    bulk_list = gaps(bulk_model, _closed(bulk_model, bulk_states))
    left = bulk_list if model.P_L.is_zero else gaps(left_model, chain_kernels(left_model, n))
    right = bulk_list if model.P_R.is_zero else gaps(right_model, _closed(right_model, bulk_states))
    return GapProfile(
        left=left, right=right, bulk_list=bulk_list, boundary_trivial=model.boundary_trivial
    )
