"""Local projectors, the models built from them, and sums of local terms.

Every operator here is a ``LocalSum``: a weighted sum of dense blocks, each
acting on a few tensor factors and extended by the identity on the rest.
Factors follow the canonical site order of a :class:`~ffgap.lattice.SiteRegion`
(row-major strides, first factor most significant) unless a builder places
them otherwise. ``LocalSum.assemble`` builds the CSR matrix in one pass and
``LocalSum.apply_term`` applies one contiguous term to a state vector.

Chains with boundary projectors use the enlarged-ring bookkeeping: the open
Hamiltonian on m sites is rewritten as a sum of m+1 terms h_1..h_{m+1} on the
m-site space. Terms h_1..h_{m-1} are the bonds, h_m is the right boundary
projector (on site m), and h_{m+1} is the left boundary projector (on site 1);
indices are cyclic with period m+1, which makes terms at cyclic distance >= 2
act on disjoint sites, so they commute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import InteractionShape, SiteRegion, validate_cell_shapes

HERMITIAN_RTOL = 1e-12
IDEMPOTENT_RTOL = 1e-10
MAX_ED_DIM = 1 << 16  # no operator above this is assembled (the AKLT profile at 3^10 fits)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalProjector:
    """A dense Hermitian idempotent matrix on k sites of local dimension d.

    The matrix is stored as float64 when its imaginary part is exactly zero,
    and as complex128 otherwise; operators and kernels built from real
    projectors stay real. The zero matrix is allowed (an absent boundary
    term is stored as the zero projector rather than None).
    """

    k: int
    d: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)
        if not m.imag.any():
            m = m.real.copy()
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


# ---------------------------------------------------------------------------
# sums of local terms
# ---------------------------------------------------------------------------

def check_dim(dim: int) -> None:
    """Refuse a window above MAX_ED_DIM; called before anything is assembled."""
    if dim > MAX_ED_DIM:
        raise ValueError(f"window dimension {dim} exceeds the diagonalization cap {MAX_ED_DIM}")


class LocalSum:
    """A weighted sum of dense local blocks on a tensor product of factors.

    ``dims`` are the local dimensions of the factors (first factor most
    significant). Each term is (positions, block, weight): ``block`` acts on
    the factors at the 0-based ``positions``, in the order given (which need
    be neither sorted nor contiguous), and is extended by the identity on
    the rest. A zero block is allowed and keeps its term's index. Each block
    keeps its dtype (float64 or complex128), and ``dtype`` is their result
    type.
    """

    def __init__(self, dims, terms):
        self.dims = tuple(dims)
        checked = []
        for positions, block, weight in terms:
            positions = tuple(positions)
            if not all(0 <= p < len(self.dims) for p in positions):
                raise ValueError(f"factor positions {positions} outside 0..{len(self.dims) - 1}")
            if len(set(positions)) != len(positions):
                raise ValueError(f"duplicate factor positions {positions}")
            block = np.asarray(block, dtype=np.result_type(block, np.float64))
            local_dim = math.prod(self.dims[p] for p in positions)
            if block.shape != (local_dim, local_dim):
                raise ValueError(
                    f"block shape {block.shape} does not match target dimension {local_dim}"
                )
            checked.append((positions, block, weight))
        self.terms = tuple(checked)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def dtype(self) -> np.dtype:
        """float64 when every block is real, complex128 otherwise."""
        return np.result_type(np.float64, *(block.dtype for _, block, _ in self.terms))

    def assemble(self) -> sp.csr_matrix:
        """The sum as one CSR matrix, built from one COO triplet list.

        Refuses a dimension above MAX_ED_DIM before building anything, and
        raises when the result is not Hermitian to HERMITIAN_RTOL.
        """
        dim = self.dim
        check_dim(dim)
        strides = [math.prod(self.dims[p + 1:]) for p in range(len(self.dims))]

        def offsets(positions):
            out = np.zeros(1, dtype=np.int64)
            for p in positions:
                digits = np.arange(self.dims[p], dtype=np.int64) * strides[p]
                out = (out[:, None] + digits).ravel()
            return out

        rows, cols = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        data = [np.zeros(0, dtype=self.dtype)]
        for positions, block, weight in self.terms:
            target = offsets(positions)
            rest = offsets([p for p in range(len(self.dims)) if p not in positions])
            ri, ci = np.nonzero(block)
            rows.append((target[ri][:, None] + rest).ravel())
            cols.append((target[ci][:, None] + rest).ravel())
            data.append(np.repeat(weight * block[ri, ci], rest.size))
        triplets = (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols)))
        mat = sp.coo_matrix(triplets, shape=(dim, dim)).tocsr()
        defect = np.linalg.norm((mat - mat.conj().T).data)
        if defect > HERMITIAN_RTOL * np.linalg.norm(mat.data):
            raise ValueError("operator is not Hermitian")
        return mat

    def apply_term(self, t: int, v: np.ndarray) -> np.ndarray:
        """Term t applied to a state vector; the term's factors must be contiguous.

        With the state viewed as (left, k, right), the block acts on the
        middle axis by one BLAS product whatever the term's position: on the
        (left, k) rows when right == 1, batched over the left axis when
        left <= right, and otherwise on the (k, left * right) transposed copy.
        """
        positions, block, weight = self.terms[t]
        start = positions[0]
        if positions != tuple(range(start, start + len(positions))):
            raise ValueError(f"term {t} acts on non-contiguous factors {positions}")
        k = block.shape[0]
        left = math.prod(self.dims[:start])
        right = v.size // (left * k)
        if right == 1:
            return weight * (v.reshape(left, k) @ block.T).reshape(-1)
        if left <= right:
            return weight * np.matmul(block, v.reshape(left, k, right)).reshape(-1)
        columns = v.reshape(left, k, right).transpose(1, 0, 2).reshape(k, -1)
        out = weight * (block @ columns)
        return out.reshape(k, left, right).transpose(1, 0, 2).reshape(-1)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The sum applied to a state vector, term by term."""
        return sum(self.apply_term(t, v) for t in range(len(self.terms)))


# ---------------------------------------------------------------------------
# chain and region Hamiltonians
# ---------------------------------------------------------------------------

def chain_hamiltonian(model: ChainModel, m: int) -> sp.csr_matrix:
    """The m-site chain Hamiltonian of the model.

    Open boundary: Pi_1 + Pi_m + sum of bonds; periodic: bonds plus the
    wrap-around bond on (m, 1) and no boundary projectors.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    terms = [((i, i + 1), model.P.matrix, 1.0) for i in range(m - 1)]
    if model.bc == "open":
        terms += [((0,), model.P_L.matrix, 1.0), ((m - 1,), model.P_R.matrix, 1.0)]
    else:
        terms.append(((m - 1, 0), model.P.matrix, 1.0))
    return LocalSum((model.d,) * m, terms).assemble()


def region_terms(cell: InteractionCell, region: SiteRegion):
    """Yield (projector, translated sites) for every cell term translate inside the region."""
    for x in region.sites:
        for shape, proj in cell.terms:
            translate = tuple((x[0] + o[0], x[1] + o[1]) for o in shape.offsets)
            if all(site in region for site in translate):
                yield proj, translate


def region_sum(cell: InteractionCell, region: SiteRegion) -> LocalSum:
    """Sum of all cell terms whose translates fit inside the region, in canonical site order."""
    terms = [
        (tuple(map(region.index, translate)), proj.matrix, 1.0)
        for proj, translate in region_terms(cell, region)
    ]
    return LocalSum((cell.d,) * len(region), terms)


def region_hamiltonian(cell: InteractionCell, region: SiteRegion) -> sp.csr_matrix:
    """``region_sum`` assembled to CSR."""
    return region_sum(cell, region).assemble()


# ---------------------------------------------------------------------------
# the enlarged ring
# ---------------------------------------------------------------------------

def enlarged_ring(model: ChainModel, m: int) -> LocalSum:
    """The m+1 cyclic terms h_1..h_{m+1} of an open m-site chain, on the d^m chain space.

    Term t (0-based) is h_{t+1}: the bond on sites (t+1, t+2) for t < m-1,
    P_R on site m for t = m-1 and P_L on site 1 for t = m. An absent
    boundary projector stays as its zero block, so every term keeps its
    cyclic slot; every term acts on contiguous sites.
    """
    if model.bc != "open":
        raise ValueError("the enlarged ring is defined for open chains")
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    terms = [((i, i + 1), model.P.matrix, 1.0) for i in range(m - 1)]
    terms += [((m - 1,), model.P_R.matrix, 1.0), ((0,), model.P_L.matrix, 1.0)]
    return LocalSum((model.d,) * m, terms)


def cyclic_distance(i: int, j: int, period: int) -> int:
    """Distance on the cycle of ``period`` positions."""
    diff = abs(i - j) % period
    return min(diff, period - diff)


def q_and_f(model: ChainModel, m: int) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The anticommutator sum Q and far-pair sum F of the enlarged ring.

    Q = sum_i {h_i, h_{i+1}} (cyclic), F = sum over ordered pairs at cyclic
    distance >= 2 of h_i h_{i'}. Together they satisfy
    H^2 = H + Q + F for the open-chain Hamiltonian H. Built from sparse
    products of the separately assembled ring terms, as a reference
    independent of ``LocalSum.apply``.
    """
    if m < 3:
        raise ValueError(f"need m >= 3, got {m}")
    ring = enlarged_ring(model, m)
    h = [LocalSum(ring.dims, (term,)).assemble() for term in ring.terms]
    period = m + 1
    Q = sum(h[i] @ h[(i + 1) % period] + h[(i + 1) % period] @ h[i] for i in range(period))
    F = sum(
        h[i] @ h[j]
        for i in range(period)
        for j in range(period)
        if cyclic_distance(i, j, period) >= 2
    )
    return Q, F
