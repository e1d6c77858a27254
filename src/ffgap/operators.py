"""Sparse assembly of chain, region, subchain, and patch operators.

All operators act on a tensor product of local factors ordered by the
canonical site order of a :class:`~ffgap.lattice.SiteRegion` (row-major
strides, first factor most significant). Embedding a local matrix on an
arbitrary ordered subset of sites is the single primitive everything else is
built from.

Chains with boundary projectors use the enlarged-ring bookkeeping: the open
Hamiltonian on m sites is rewritten as a sum of m+1 terms h_1..h_{m+1} on the
m-site space. Terms h_1..h_{m-1} are the bonds, h_m is the right boundary
projector (on site m), and h_{m+1} is the left boundary projector (on site 1);
indices are cyclic with period m+1, which makes terms at cyclic distance >= 2
act on disjoint sites, so they commute.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import Deformation1D, Deformation2D
from .lattice import (
    InteractionShape,
    Patch,
    SiteRegion,
    chain_region,
    plaquette_corner_boxes,
    plaquette_distance,
    rhomboid_sites,
    validate_cell_shapes,
)

HERMITIAN_RTOL = 1e-12
IDEMPOTENT_RTOL = 1e-10


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalProjector:
    """A dense Hermitian idempotent matrix on k sites of local dimension d.

    The zero matrix is allowed (an absent boundary term is stored as the
    zero projector rather than None).
    """

    k: int
    d: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        m.setflags(write=False)
        dim = self.d ** self.k
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim} x {dim} matrix, got {m.shape}")
        scale = np.linalg.norm(m)
        if scale > 0:
            if np.linalg.norm(m - m.conj().T) > HERMITIAN_RTOL * scale:
                raise ValueError("matrix is not Hermitian")
            if np.linalg.norm(m @ m - m) > IDEMPOTENT_RTOL * scale:
                raise ValueError("matrix is not idempotent")
        object.__setattr__(self, "matrix", m)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.matrix)

    @property
    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.matrix)))))

    @classmethod
    def zero(cls, k: int, d: int) -> "LocalProjector":
        return cls(k=k, d=d, matrix=np.zeros((d ** k, d ** k)))


@dataclass(frozen=True)
class InteractionCell:
    """A translation-invariant unit cell of projector interactions.

    Each term is (shape, projector) with the projector's factor order given
    by the shape's canonical (sorted) offset order. ``R`` is the declared
    interaction range used by the coarse-graining steps.
    """

    d: int
    terms: tuple[tuple[InteractionShape, LocalProjector], ...]
    R: int

    def __post_init__(self):
        for shape, proj in self.terms:
            if proj.d != self.d:
                raise ValueError(f"projector local dimension {proj.d} != cell dimension {self.d}")
            if proj.k != len(shape.offsets):
                raise ValueError(
                    f"projector acts on {proj.k} sites but shape has {len(shape.offsets)}"
                )
        bad = validate_cell_shapes([s for s, _ in self.terms], self.R)
        if bad:
            raise ValueError(f"shapes violate the range-{self.R} requirement: {bad}")


@dataclass(frozen=True)
class ChainModel:
    """A 1D model: bond projector P and boundary projectors on each end.

    Zero boundary projectors encode the open chain without edge terms; the
    bond projector must be nonzero.
    """

    d: int
    P: LocalProjector
    P_L: LocalProjector
    P_R: LocalProjector
    bc: str = "open"

    def __post_init__(self):
        if self.P.k != 2 or self.P_L.k != 1 or self.P_R.k != 1:
            raise ValueError("bond projector must act on 2 sites, boundary projectors on 1")
        if not (self.P.d == self.P_L.d == self.P_R.d == self.d):
            raise ValueError("projector local dimensions must all equal d")
        if self.P.is_zero:
            raise ValueError("bond projector must be nonzero")
        if self.bc not in ("open", "periodic"):
            raise ValueError(f"unknown boundary condition {self.bc!r}")

    @property
    def boundary_trivial(self) -> bool:
        """True when both boundary projectors are zero."""
        return self.P_L.is_zero and self.P_R.is_zero


class SparseHermitianOperator:
    """A dimension-tagged sparse operator on a tensor-product space.

    Assembled Hamiltonians and their deformations are Hermitian; transient
    products (e.g. the summands of F) need not be, so hermiticity is
    asserted by the assemblers on their return values rather than on every
    arithmetic result.
    """

    def __init__(self, matrix: sp.spmatrix, dim: int):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape != (dim, dim):
            raise ValueError(f"matrix shape {matrix.shape} != ({dim}, {dim})")
        self.matrix = matrix
        self.dim = dim

    # -- basic algebra ----------------------------------------------------
    def __add__(self, other: "SparseHermitianOperator") -> "SparseHermitianOperator":
        return SparseHermitianOperator(self.matrix + other.matrix, self.dim)

    def __sub__(self, other: "SparseHermitianOperator") -> "SparseHermitianOperator":
        return SparseHermitianOperator(self.matrix - other.matrix, self.dim)

    def __rmul__(self, scalar: float) -> "SparseHermitianOperator":
        return SparseHermitianOperator(scalar * self.matrix, self.dim)

    def __matmul__(self, other: "SparseHermitianOperator") -> "SparseHermitianOperator":
        return SparseHermitianOperator(self.matrix @ other.matrix, self.dim)

    # -- inspection --------------------------------------------------------
    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def frobenius_norm(self) -> float:
        data = self.matrix.data
        return float(np.sqrt(np.sum(np.abs(data) ** 2))) if data.size else 0.0

    def hermitian_defect(self) -> float:
        """Relative Frobenius distance to the Hermitian part."""
        diff = self.matrix - self.matrix.getH()
        num = float(np.sqrt(np.sum(np.abs(diff.data) ** 2))) if diff.nnz else 0.0
        den = self.frobenius_norm()
        return num / den if den > 0 else 0.0

    def assert_hermitian(self) -> "SparseHermitianOperator":
        if self.hermitian_defect() > HERMITIAN_RTOL:
            raise ValueError("operator is not Hermitian")
        return self

    @classmethod
    def zero(cls, dim: int) -> "SparseHermitianOperator":
        return cls(sp.csr_matrix((dim, dim), dtype=np.complex128), dim)


# ---------------------------------------------------------------------------
# embedding primitive
# ---------------------------------------------------------------------------

def _dims_list(local_dims, region: SiteRegion) -> list[int]:
    if isinstance(local_dims, int):
        return [local_dims] * len(region)
    dims = list(local_dims)
    if len(dims) != len(region):
        raise ValueError(f"expected {len(region)} local dimensions, got {len(dims)}")
    return dims


def embed(
    local,
    target_sites,
    region: SiteRegion,
    local_dims,
) -> SparseHermitianOperator:
    """Extend a local matrix by the identity to the full region.

    ``local`` acts on the tensor factors named by ``target_sites``, in the
    order given (which may differ from the canonical region order and need
    not be contiguous). ``local_dims`` is a uniform int or a per-site list
    aligned with the canonical site order.
    """
    if isinstance(local, LocalProjector):
        local = local.matrix
    local = np.asarray(local, dtype=np.complex128)
    dims = _dims_list(local_dims, region)
    target_sites = tuple(target_sites)
    try:
        positions = [region.index(s) for s in target_sites]
    except KeyError as err:
        raise ValueError(f"target site {err.args[0]} is outside the region") from None
    if len(set(positions)) != len(positions):
        raise ValueError("duplicate target sites")

    strides = np.ones(len(dims), dtype=np.int64)
    for i in range(len(dims) - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    total_dim = int(strides[0] * dims[0])

    local_dim = 1
    for p in positions:
        local_dim *= dims[p]
    if local.shape != (local_dim, local_dim):
        raise ValueError(
            f"local matrix shape {local.shape} does not match target dimension {local_dim}"
        )

    # offsets of the target digits (in the order given) and the rest digits
    pa = np.zeros(1, dtype=np.int64)
    for p in positions:
        pa = (pa[:, None] + np.arange(dims[p], dtype=np.int64) * strides[p]).ravel()
    pu = np.zeros(1, dtype=np.int64)
    for p in range(len(dims)):
        if p not in positions:
            pu = (pu[:, None] + np.arange(dims[p], dtype=np.int64) * strides[p]).ravel()

    ri, ci = np.nonzero(local)
    vi = local[ri, ci]
    rows = (pa[ri][:, None] + pu[None, :]).ravel()
    cols = (pa[ci][:, None] + pu[None, :]).ravel()
    data = np.repeat(vi, pu.size)
    mat = sp.coo_matrix((data, (rows, cols)), shape=(total_dim, total_dim))
    return SparseHermitianOperator(mat.tocsr(), total_dim)


def positive_eigenspace(A, tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a Hermitian PSD matrix above tol * lambda_max, and their eigenvectors.

    One dense ``eigh``. Eigenvalues below -tol * lambda_max are rejected as
    not PSD (below -tol when lambda_max <= 0, where nothing is positive).
    """
    if isinstance(A, SparseHermitianOperator):
        A = A.toarray()
    vals, vecs = np.linalg.eigh(np.asarray(A))
    scale = float(vals[-1]) if vals.size and vals[-1] > 0.0 else 1.0
    if vals.size and vals[0] < -tol * scale:
        raise ValueError(f"operator has negative eigenvalue {vals[0]} (not PSD)")
    keep = vals > tol * scale
    return vals[keep], vecs[:, keep]


def projector_complement_kernel(A, tol: float = 1e-10) -> np.ndarray:
    """The projection I - (projector onto the numerical kernel of A).

    A must be Hermitian PSD (see ``positive_eigenspace``); the result is
    dense, idempotent, and has the same kernel as A. The zero operator maps
    to the zero projection.
    """
    _, support = positive_eigenspace(A, tol)
    return support @ support.conj().T


# ---------------------------------------------------------------------------
# chain and region Hamiltonians
# ---------------------------------------------------------------------------

def chain_hamiltonian(model: ChainModel, m: int) -> SparseHermitianOperator:
    """The m-site chain Hamiltonian of the model.

    Open boundary: Pi_1 + Pi_m + sum of bonds; periodic: bonds plus the
    wrap-around bond on (m, 1) and no boundary projectors.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    region = chain_region(m)
    d = model.d
    total = SparseHermitianOperator.zero(d ** m)
    for i in range(1, m):
        total = total + embed(model.P, ((i, 0), (i + 1, 0)), region, d)
    if model.bc == "open":
        if not model.P_L.is_zero:
            total = total + embed(model.P_L, ((1, 0),), region, d)
        if not model.P_R.is_zero:
            total = total + embed(model.P_R, ((m, 0),), region, d)
    else:
        total = total + embed(model.P, ((m, 0), (1, 0)), region, d)
    return total.assert_hermitian()


def region_terms(cell: InteractionCell, region: SiteRegion):
    """Yield (projector, translated sites) for every cell term translate inside the region."""
    for x in region.sites:
        for shape, proj in cell.terms:
            translate = tuple((x[0] + o[0], x[1] + o[1]) for o in shape.offsets)
            if all(site in region for site in translate):
                yield proj, translate


def region_hamiltonian(cell: InteractionCell, region: SiteRegion) -> SparseHermitianOperator:
    """Sum of all cell terms whose translates fit inside the region."""
    total = SparseHermitianOperator.zero(cell.d ** len(region))
    for proj, translate in region_terms(cell, region):
        total = total + embed(proj, translate, region, cell.d)
    return total.assert_hermitian()


# ---------------------------------------------------------------------------
# enlarged-ring machinery
# ---------------------------------------------------------------------------

def _ring_term(model: ChainModel, m: int, j: int) -> tuple[LocalProjector, tuple[int, ...]]:
    """h_j of the enlarged ring (1-based, cyclic with period m+1) and its sites.

    h_j is the bond (j, j+1) for j <= m-1, the right boundary projector on
    site m for j = m, and the left boundary projector on site 1 for j = m+1.
    """
    j = (j - 1) % (m + 1) + 1
    if j <= m - 1:
        return model.P, (j, j + 1)
    return (model.P_R, (m,)) if j == m else (model.P_L, (1,))


def enlarged_terms(model: ChainModel, m: int) -> list[SparseHermitianOperator]:
    """The m+1 cyclic terms [h_1, ..., h_{m+1}] (see ``_ring_term``) on the m-site space.

    Zero boundary projectors give zero operators.
    """
    if model.bc != "open":
        raise ValueError("enlarged-ring terms are defined for open chains")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    region = chain_region(m)
    terms = []
    for j in range(1, m + 2):
        proj, sites = _ring_term(model, m, j)
        if proj.is_zero:
            terms.append(SparseHermitianOperator.zero(model.d ** m))
        else:
            terms.append(embed(proj, tuple((s, 0) for s in sites), region, model.d))
    return terms


def cyclic_distance(i: int, j: int, period: int) -> int:
    """Distance on the cycle of ``period`` positions."""
    diff = abs(i - j) % period
    return min(diff, period - diff)


def q_and_f(
    model: ChainModel, m: int
) -> tuple[SparseHermitianOperator, SparseHermitianOperator]:
    """The anticommutator sum Q and far-pair sum F of the enlarged ring.

    Q = sum_i {h_i, h_{i+1}} (cyclic), F = sum over ordered pairs at cyclic
    distance >= 2 of h_i h_{i'}. Together they satisfy
    H^2 = H + Q + F for the open-chain Hamiltonian H.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    terms = enlarged_terms(model, m)
    period = m + 1
    dim = model.d ** m
    Q = SparseHermitianOperator.zero(dim)
    for i in range(period):
        a, b = terms[i], terms[(i + 1) % period]
        Q = Q + (a @ b) + (b @ a)
    F = SparseHermitianOperator.zero(dim)
    for i in range(period):
        for j in range(period):
            if cyclic_distance(i, j, period) >= 2:
                F = F + (terms[i] @ terms[j])
    return Q.assert_hermitian(), F.assert_hermitian()


def subchain_support_operator(
    model: ChainModel,
    m: int,
    n: int,
    l: int,
    coeffs: Deformation1D | None = None,
) -> tuple[np.ndarray, tuple[int, ...]]:
    """The windowed sum restricted to the sites it actually touches.

    Returns (dense operator, support site labels). The full-space operator
    is this matrix tensored with the identity on the remaining sites, so
    spectra and polynomial margins of the window can be computed at the
    support dimension instead of d^m.
    """
    if not 1 <= n <= m / 2:
        raise ValueError(f"need 1 <= n <= m/2, got n={n}, m={m}")
    if not 1 <= l <= m + 1:
        raise ValueError(f"window start {l} outside [1, {m + 1}]")
    if coeffs is not None and len(coeffs.c) != n - 1:
        raise ValueError(f"expected {n - 1} coefficients, got {len(coeffs.c)}")
    pieces = []  # (weight, matrix, site labels)
    support: set[int] = set()
    for offset in range(n - 1):
        proj, sites = _ring_term(model, m, l + offset)
        if proj.is_zero:
            continue
        weight = coeffs.c[offset] if coeffs is not None else 1.0
        pieces.append((weight, proj.matrix, sites))
        support.update(sites)
    sites_sorted = tuple(sorted(support))
    region = SiteRegion(tuple((s, 0) for s in sites_sorted))
    dim = model.d ** len(region)
    total = SparseHermitianOperator.zero(dim)
    for weight, matrix, sites in pieces:
        total = total + weight * embed(matrix, tuple((s, 0) for s in sites), region, model.d)
    return total.assert_hermitian().toarray(), sites_sorted


class EnlargedChainApplier:
    """Matrix-free application of the m+1 enlarged-ring terms of an open m-site chain.

    Stores each term as a low-rank factor V (term = V V†) and applies it to
    state vectors by reshaping, so products like Q, F, and window squares
    never require assembling large sparse matrices.
    """

    def __init__(self, model: ChainModel, m: int):
        if model.bc != "open":
            raise ValueError("enlarged-ring application is defined for open chains")
        if m < 2:
            raise ValueError(f"need m >= 2, got {m}")
        self.d = model.d
        self.m = m
        self.period = m + 1
        self.dim = model.d ** m
        self.factors: list[tuple[np.ndarray, int, int] | None] = []
        for j in range(1, m + 2):
            proj, sites = _ring_term(model, m, j)
            if proj.is_zero:
                self.factors.append(None)
                continue
            vals, vecs = np.linalg.eigh(proj.matrix)
            factor = np.ascontiguousarray(vecs[:, vals > 0.5])
            self.factors.append((factor, sites[0], len(sites)))

    def _apply_factor(self, factor: np.ndarray, start: int, k: int, v: np.ndarray, adjoint: bool) -> np.ndarray:
        # the middle axis is d^k going in (adjoint) or the factor rank (not),
        # i.e. always the contracted dimension of the matrix being applied
        left = self.d ** (start - 1)
        right = self.d ** (self.m - start - k + 1)
        mat = factor.conj().T if adjoint else factor
        t = v.reshape(left, mat.shape[1], right)
        out = np.tensordot(mat, t, axes=(1, 1)).transpose(1, 0, 2)
        return out.reshape(-1)

    def apply_term(self, j: int, v: np.ndarray) -> np.ndarray:
        """Apply h_j (1-based cyclic index) to a state vector."""
        entry = self.factors[(j - 1) % self.period]
        if entry is None:
            return np.zeros_like(v)
        factor, start, k = entry
        return self._apply_factor(factor, start, k, self._apply_factor(factor, start, k, v, True), False)

    def term_images(self, v: np.ndarray) -> list[np.ndarray]:
        """[h_1 v, ..., h_{m+1} v] (zero vectors for absent boundary terms)."""
        return [self.apply_term(j, v) for j in range(1, self.period + 1)]

    def apply_hamiltonian(self, v: np.ndarray) -> np.ndarray:
        return np.sum(self.term_images(v), axis=0)

    def apply_window(self, l: int, c: tuple[float, ...], v: np.ndarray) -> np.ndarray:
        """Apply the deformed window sum starting at position l."""
        out = np.zeros_like(v)
        for offset, weight in enumerate(c):
            out += weight * self.apply_term(l + offset, v)
        return out

    def window_from_images(
        self, l: int, c: tuple[float, ...], images: list[np.ndarray]
    ) -> np.ndarray:
        """The deformed window sum starting at position l, from ``term_images(v)``."""
        out = np.zeros_like(images[0])
        for offset, weight in enumerate(c):
            out += weight * images[(l + offset - 1) % self.period]
        return out

    def apply_q_plus_f(self, images: list[np.ndarray]) -> np.ndarray:
        """(Q+F)v from the term images ``term_images(v)``.

        Q+F is the sum of h_i h_j over all ordered pairs i != j, so with
        T v = sum_j h_j v it is sum_i h_i (T v - h_i v): one more
        application per term.
        """
        total = np.sum(images, axis=0)
        out = np.zeros_like(total)
        for j, image in enumerate(images, start=1):
            out += self.apply_term(j, total - image)
        return out


# ---------------------------------------------------------------------------
# 2D patch operators
# ---------------------------------------------------------------------------

def patch_operator(
    h_plaquette: np.ndarray,
    patch: Patch,
    coeffs: Deformation2D,
    metaspin_dim: int,
) -> SparseHermitianOperator:
    """Deformed patch operator B = sum over patch members of c(d) * h_plaquette.

    ``h_plaquette`` acts on the four corner metaspins of a plaquette,
    ordered lexicographically by box center; it is embedded at every member
    of the patch with the ring weight c(distance from the patch center).
    The operator lives on the metaspin space of the patch's ambient
    geometry. An empty patch gives the zero operator.
    """
    h_plaquette = np.asarray(h_plaquette, dtype=np.complex128)
    if h_plaquette.shape != (metaspin_dim ** 4, metaspin_dim ** 4):
        raise ValueError(
            f"plaquette operator shape {h_plaquette.shape} does not match "
            f"metaspin dimension {metaspin_dim}"
        )
    ambient = patch.ambient
    _, centers = rhomboid_sites(ambient.m1, ambient.m2, ambient.R)
    region = SiteRegion(centers)
    dim = metaspin_dim ** len(centers)
    total = SparseHermitianOperator.zero(dim)
    for p in patch.members:
        weight = coeffs.at(plaquette_distance(patch, p))
        corners = plaquette_corner_boxes(p, ambient.R)
        total = total + weight * embed(h_plaquette, corners, region, metaspin_dim)
    return total.assert_hermitian()
