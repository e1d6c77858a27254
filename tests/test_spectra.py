"""Spectral gap reports, PSD margins, chain kernels, and boundary gap profiles."""

import argparse
import ast
import dataclasses
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import LinearOperator, eigsh

import ffgap
from ffgap import spectra
from ffgap.cli import build_parser
from ffgap.coefficients import SQRT6, coeffs_1d
from ffgap.criteria import SuiteConfig, rewrite_margin
from ffgap.lattice import InteractionShape, box_region, rhomboid_sites
from ffgap.models import ModelSpec, commuting_cell_2d, random_cell_2d, random_ff
from ffgap.operators import (
    ChainModel,
    InteractionCell,
    LocalProjector,
    LocalSum,
    chain_hamiltonian,
    region_hamiltonian,
    region_sum,
)
from ffgap.spectra import (
    DENSE_MAX_DIM,
    GapProfile,
    certified_margin,
    chain_gap,
    chain_kernels,
    gap_profile,
    kernel,
    psd_margin,
    region_gap,
    spectral_gap,
)


def diag_operator(values):
    return sp.diags(np.asarray(values, dtype=float)).tocsr()


class TestSpectralGap:
    def test_projection_gap_is_one(self):
        report = spectral_gap(diag_operator([0.0, 0.0, 1.0, 1.0]))
        assert report.gap == pytest.approx(1.0)
        assert report.kernel_dim == 2
        assert report.ground_energy == pytest.approx(0.0, abs=1e-14)
        assert report.method == "dense"

    def test_zero_operator_has_infinite_gap(self):
        report = spectral_gap(sp.csr_matrix((8, 8)))
        assert math.isinf(report.gap)
        assert report.kernel_dim == 8

    def test_kernel_threshold_scales_with_lambda_max(self):
        # an eigenvalue at 1e-6 with lambda_max 1e6 sits below the relative
        # kernel threshold and must be counted as kernel, not as the gap
        report = spectral_gap(diag_operator([0.0, 1e-6, 1e6]))
        assert report.kernel_dim == 2
        assert report.gap == pytest.approx(1e6)

    def test_iterative_path_is_reproducible(self, aklt_spec):
        first = chain_gap(aklt_spec.payload, 7)  # 3^7: one deflated Lanczos solve
        assert first.method == "deflated"
        assert chain_gap(aklt_spec.payload, 7) == first

    def test_two_level_deflated_gap_equals_lambda_max(self):
        # gap = lambda_max = 1: the deflation shift, from a lambda_max solved to
        # a tolerance, must not push the kernel's eigenvalues below the gap;
        # at 2^11 the recursion tensors 1024 x 1024 columns, far below its cap
        for sites in (10, 11):
            op = LocalSum((2,) * sites, [((0,), np.diag([0.0, 1.0]), 1.0)])
            K = kernel(op)
            assert K.shape == (2**sites, 2 ** (sites - 1))
            report = spectral_gap(op.assemble(), kernel=K)
            assert (report.method, report.kernel_dim) == ("deflated", 2 ** (sites - 1))
            assert report.gap == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("sites", [9, 10], ids=["dense", "deflated"])
    def test_one_kernel_threshold_at_its_boundary(self, sites):
        # the recursion and the gap share one threshold: an energy w at or
        # below ZERO_TOL is kernel for both, and above it w is the gap
        assert spectra.NULL_SVD_TOL == math.sqrt(spectra.ZERO_TOL) == 1e-5
        for weight, kernel_dim in ((1e-11, 2**sites), (1e-9, 2 ** (sites - 1))):
            op = LocalSum((2,) * sites, [((0,), np.diag([0.0, 1.0]), weight)])
            K = kernel(op)
            assert K.shape == (2**sites, kernel_dim)
            report = spectral_gap(op.assemble(), kernel=K)
            assert report.kernel_dim == kernel_dim
            if kernel_dim == 2**sites:
                assert math.isinf(report.gap)
            else:
                assert report.gap == pytest.approx(weight, abs=1e-12)

    def test_no_kernel_basis_is_dense_or_refused(self):
        values = np.array([0.0, 0.3] + [1.0] * 200)
        op = LinearOperator((202, 202), matvec=lambda v: values * v, dtype=float)
        with pytest.raises(ValueError, match="region_gap"):
            spectral_gap(op)
        with pytest.raises(ValueError, match="region_gap"):
            spectral_gap(sp.identity(DENSE_MAX_DIM + 1, format="csr"))

    def test_matrix_free_input_refused(self):
        values = np.array([0.0, 0.3] + [1.0] * 200)
        op = LinearOperator((202, 202), matvec=lambda v: values * v, dtype=float)
        with pytest.raises(ValueError, match="matrix-free"):
            spectral_gap(op, kernel=np.eye(202, 1))
        with pytest.raises(ValueError, match="matrix-free"):
            psd_margin(op)


class TestPsdMargin:
    def test_dense_least_eigenvalue(self):
        arr = np.diag([0.5, -0.25, 3.0])
        assert psd_margin(arr) == pytest.approx(-0.25)

    def test_blas_pinned_to_one_thread_in_every_lanczos_solve(
        self, monkeypatch, pools, aklt_spec, commuting_cell_spec, random_chain_d2
    ):
        seen = []

        def record(*args, **kwargs):
            seen.append([getter() for _, getter in pools])
            return eigsh(*args, **kwargs)

        monkeypatch.setattr(spectra, "eigsh", record)
        # lambda_max and the deflated solve, twice; the certified margin's least
        region_gap(commuting_cell_spec.payload, box_region(3, 4))
        chain_gap(aklt_spec.payload, 7)
        certified_margin(diag_operator(np.linspace(-1.0, 1.0, 50)), 1.0)
        assert len(seen) == 5
        # the rewrite margin's scale and margin are spectra's solves too
        before = len(seen)
        rewrite_margin(random_chain_d2.payload, 8, coeffs_1d(4, SQRT6))
        assert len(seen) == before + 2
        assert all(sizes == [1] * len(pools) for sizes in seen)
        assert [getter() for _, getter in pools] == [2] * len(pools)

    def test_certifies_operator_inequality(self):
        # X >= Y iff margin(X - Y) >= 0
        x = np.diag([2.0, 3.0])
        y = np.diag([1.0, 3.0])
        assert psd_margin(x - y) >= 0.0
        assert psd_margin(y - x) < 0.0


class TestGapProfile:
    def test_oversized_chain_refused_before_assembly(self, monkeypatch, aklt_spec):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(spectra, "chain_hamiltonian", refuse)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds the diagonalization cap"):
            gap_profile(aklt_spec.payload, 15)  # 3^15 > MAX_ED_DIM
        with pytest.raises(ValueError, match="exceeds the diagonalization cap"):
            chain_gap(aklt_spec.payload, 15)
        assert time.perf_counter() - start < 1.0

    def test_aklt_profile_shape(self, aklt_spec):
        profile = gap_profile(aklt_spec.payload, 5)
        assert isinstance(profile, GapProfile)
        assert profile.n == 5
        assert len(profile.bulk_list) == 4  # lengths 2..5
        assert profile.boundary_trivial
        # trivial boundary: left/right families coincide with the bulk gaps
        assert profile.left == profile.bulk_list
        assert profile.right == profile.bulk_list
        assert profile.edge_min == pytest.approx(min(1.0, min(profile.bulk_list)))
        assert profile.edge_min_at(4) == pytest.approx(
            min(1.0, min(profile.bulk_list[:3]))
        )

    def test_aklt_two_site_bulk_gap(self, aklt_spec):
        profile = gap_profile(aklt_spec.payload, 3)
        assert profile.bulk_list[0] == pytest.approx(1.0, abs=1e-10)

    def test_singlet_gaps_match_cosine_law(self, singlet_spec):
        profile = gap_profile(singlet_spec.payload, 6)
        for m, gamma in zip(range(2, 7), profile.bulk_list):
            assert gamma == pytest.approx(1.0 - math.cos(math.pi / m), abs=1e-10)

    def test_mirror_symmetric_model_has_equal_edges(self, random_chain_d3_boundary):
        profile = gap_profile(random_chain_d3_boundary.payload, 4)
        assert not profile.boundary_trivial
        assert len(profile.left) == len(profile.right) == 3
        assert all(g > 0 for g in profile.left + profile.right)
        assert profile.edge_min <= 1.0

    def test_profile_consistent_with_direct_gap(self, random_chain_d2):
        model = random_chain_d2.payload
        profile = gap_profile(model, 4)
        for m in range(2, 5):
            direct = spectral_gap(chain_hamiltonian(model, m))
            assert profile.bulk_list[m - 2] == pytest.approx(direct.gap, rel=1e-9)


# ---------------------------------------------------------------------------
# chain kernels and kernel-basis gaps
# ---------------------------------------------------------------------------

def spectrum(model, m):
    """Dense ED: ascending eigenvalues of the m-site chain."""
    return np.linalg.eigvalsh(chain_hamiltonian(model, m).toarray())


def ed_kernel_and_gap(vals, zero_tol=1e-10):
    scale = max(1.0, float(vals[-1]))
    above = vals > zero_tol * scale
    return int((~above).sum()), (float(vals[above].min()) if above.any() else math.inf), scale


def families(model):
    """Bulk, left, right, both-edge and periodic variants of a chain model.

    Without boundary projectors every open variant is the bulk chain.
    """
    zero = LocalProjector.zero(1, model.d)
    variants = {
        "bulk": ChainModel(model.d, model.P, zero, zero),
        "periodic": replace(model, bc="periodic"),
    }
    if not model.boundary_trivial:
        variants["left"] = ChainModel(model.d, model.P, model.P_L, zero)
        variants["right"] = ChainModel(model.d, model.P, zero, model.P_R)
        variants["both"] = ChainModel(model.d, model.P, model.P_L, model.P_R)
    return variants


@pytest.fixture(scope="module")
def random_chain_d2_left(random_chain_d2):
    """random_chain_d2 plus a random rank-1 left boundary projector.

    (Random d=2 chains with projectors on both edges are frustrated.)
    """
    v = np.random.default_rng(5151).standard_normal(4).view(complex)
    v /= np.linalg.norm(v)
    P_L = LocalProjector(1, 2, np.outer(v, v.conj()))
    model = replace(random_chain_d2.payload, P_L=P_L)
    return ModelSpec("random_chain_d2_left", model, ff_check_depth=0)


# chains are compared with a full dense ED up to this dimension
ED_REFERENCE_DIM = 2048
CHAIN_FIXTURES = ("aklt_spec", "singlet_spec", "random_chain_d2", "random_chain_d2_left",
                  "random_chain_d3_boundary")


class TestChainKernels:
    @pytest.mark.parametrize("fixture", CHAIN_FIXTURES)
    def test_dimensions_and_gaps_match_dense_ed(self, fixture, request, monkeypatch):
        monkeypatch.setattr(spectra, "KERNEL_DENSE_CUTOFF", 0)  # deflated at every size
        model = request.getfixturevalue(fixture).payload
        n = int(math.log(ED_REFERENCE_DIM, model.d) + 1e-9)
        for name, chain in families(model).items():
            kernels = chain_kernels(chain, n)
            for m in range(2, n + 1):
                K = kernels[m - 1]
                assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)
                kernel_dim, gap, scale = ed_kernel_and_gap(spectrum(chain, m))
                assert K.shape[1] == kernel_dim, (name, m)
                if chain.d**m >= 16:
                    report = spectral_gap(chain_hamiltonian(chain, m), kernel=K)
                    assert report.method == "deflated"
                    assert report.kernel_dim == kernel_dim
                    assert report.gap == pytest.approx(gap, abs=1e-10 * scale), (name, m)

    def test_known_kernel_dimensions(self, aklt_spec, singlet_spec):
        assert [K.shape[1] for K in chain_kernels(aklt_spec.payload, 8)] == [3] + [4] * 7
        assert [K.shape[1] for K in chain_kernels(singlet_spec.payload, 10)] == list(range(2, 12))
        periodic = replace(aklt_spec.payload, bc="periodic")
        assert [K.shape[1] for K in chain_kernels(periodic, 6)][2:] == [1] * 4

    def test_rank_one_d3_kernels_grow_by_fibonacci_steps(self):
        # rank-1 d=3 bonds with rank-1 edges: the closed kernels are every
        # other Fibonacci number, and none of these lengths reaches the cap
        model = random_ff(3, 1, 1, 108, ff_check_depth=4).payload
        assert [K.shape[1] for K in chain_kernels(model, 7)] == [1, 3, 8, 21, 55, 144, 377]

    def test_suite_d3_recipe_fits_the_budget(self):
        # random_ff(3, 2, 1, 7) at m = 8: 128 kernel columns, deflated
        model = random_ff(3, 2, 1, 7, ff_check_depth=4).payload
        report = chain_gap(model, 8)
        assert (report.method, report.kernel_dim) == ("deflated", 128)
        assert report.gap > 1e-10

    def test_frustrated_chain_has_empty_kernels(self):
        model = ChainModel(2, LocalProjector(2, 2, np.eye(4)), LocalProjector.zero(1, 2),
                           LocalProjector.zero(1, 2))
        assert [K.shape[1] for K in chain_kernels(model, 4)] == [2, 0, 0, 0]

    def test_chain_gap_uses_the_kernel(self, aklt_spec):
        report = chain_gap(aklt_spec.payload, 7)
        assert report.method == "deflated"
        assert report.kernel_dim == 4
        kernel_dim, gap, scale = ed_kernel_and_gap(spectrum(aklt_spec.payload, 7))
        assert kernel_dim == 4
        assert report.gap == pytest.approx(gap, abs=1e-10 * scale)
        assert chain_gap(aklt_spec.payload, 5).method == "dense"  # 243 <= 512

    def test_deflated_gap_is_the_rayleigh_quotient(self):
        # at LANCZOS_RTOL, ARPACK's Ritz value for this draw's gap at 2^10 is
        # 1.0e-13 from dense ED; the Rayleigh quotient of its Ritz vector is
        # within about 2e-15
        model = random_ff(2, 1, 0, 43, ff_check_depth=4).payload
        report = chain_gap(model, 10)
        _, gap, _ = ed_kernel_and_gap(spectrum(model, 10))
        assert report.method == "deflated"
        assert report.gap == pytest.approx(gap, abs=2e-14)

    def test_clustered_gap_falls_back_to_dense(self):
        # a nearly gapless draw: gap 5.4e-6 at m=10, next eigenvalue 1.0e-5;
        # the deflated solve exhausts its restart budget and the gap is dense
        model = random_ff(2, 1, 0, 181, ff_check_depth=4).payload
        report = chain_gap(model, 10)
        assert (report.method, report.kernel_dim) == ("dense", 11)
        kernel_dim, gap, _ = ed_kernel_and_gap(spectrum(model, 10))
        assert report.gap == gap == pytest.approx(5.41e-6, rel=1e-3)

    def test_refused_past_the_cap_before_assembly(
        self, monkeypatch, aklt_spec, commuting_cell_spec
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was assembled")

        # the AKLT recursion tensors 9 x 4 columns into 27 x 12 at length 3
        monkeypatch.setattr(spectra, "DENSE_MAX_DIM", 16)
        monkeypatch.setattr(spectra, "chain_hamiltonian", refuse)
        with pytest.raises(ValueError, match="exceed the dense cap"):
            chain_gap(aklt_spec.payload, 9)
        monkeypatch.setattr(LocalSum, "assemble", refuse)
        with pytest.raises(ValueError, match="exceed the dense cap"):
            region_gap(commuting_cell_spec.payload, box_region(3, 3))


# ---------------------------------------------------------------------------
# region kernels and region gaps
# ---------------------------------------------------------------------------

def bond_cell(rank: int, seed: int) -> InteractionCell:
    """d=2 cell of real rank-r bond projectors on e1 and e2, orthogonal to v0 (x) v0.

    The product state of v0 lies in every kernel, so the cell is
    frustration-free, but its bond terms do not commute.
    """
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(2)
    w = np.kron(v0, v0) / np.linalg.norm(v0) ** 2
    terms = []
    for offset in ((1, 0), (0, 1)):
        g = rng.standard_normal((4, rank))
        q, _ = np.linalg.qr(g - np.outer(w, w @ g))
        terms.append((InteractionShape(((0, 0), offset)), LocalProjector(2, 2, q @ q.T)))
    return InteractionCell(d=2, terms=tuple(terms), R=2)


REGION_CELLS = {
    "commuting": lambda: commuting_cell_2d().payload,
    "random_d2": lambda: random_cell_2d(2, 2, 5150).payload,
    "random_d3": lambda: random_cell_2d(3, 2, 4).payload,
    "bonds_rank1": lambda: bond_cell(1, 1),
    "bonds_rank2": lambda: bond_cell(2, 1),
}
# the real cells (commuting, bonds) run up to 2^12; a complex dense ED at 4096
# costs about 20 s, so the random cells stop at 3^7 (the 7-site rhomboids)
ED_LIMIT = {"commuting": 4096, "random_d2": 3**7, "random_d3": 3**7, "bonds_rank1": 4096,
            "bonds_rank2": 4096}
WINDOWS = {
    "box_2x3": box_region(2, 3),
    "box_3x3": box_region(3, 3),
    "box_3x4": box_region(3, 4),
    "rhomboid_1_2": rhomboid_sites(1, 2, 1)[0],
    "rhomboid_2_1": rhomboid_sites(2, 1, 1)[0],
    "rhomboid_2_2": rhomboid_sites(2, 2, 1)[0],
}


REGION_CASES = [
    (cell_name, window)
    for cell_name in REGION_CELLS
    for window, region in WINDOWS.items()
    if (3 if cell_name == "random_d3" else 2) ** len(region) <= ED_LIMIT[cell_name]
]


@pytest.fixture(scope="module")
def region_cells():
    return {name: make() for name, make in REGION_CELLS.items()}


def region_spectrum(cell, region):
    """Dense ED of a region Hamiltonian (float64, so real arithmetic, for the real cells)."""
    return np.linalg.eigvalsh(region_hamiltonian(cell, region).toarray())


class TestRegionKernels:
    @pytest.mark.parametrize("cell_name, window", REGION_CASES)
    def test_kernel_and_gap_match_dense_ed(self, cell_name, window, region_cells):
        cell, region = region_cells[cell_name], WINDOWS[window]
        assert cell.d ** len(region) <= ED_LIMIT[cell_name]
        K = kernel(region_sum(cell, region))
        assert np.allclose(K.conj().T @ K, np.eye(K.shape[1]), atol=1e-12)
        kernel_dim, gap, scale = ed_kernel_and_gap(region_spectrum(cell, region))
        assert K.shape[1] == kernel_dim
        report = region_gap(cell, region)
        assert report.kernel_dim == kernel_dim
        assert report.gap == pytest.approx(gap, abs=1e-10 * scale)

    def test_bond_cells_need_multi_site_cuts(self, region_cells):
        # rank 1 leaves a two-dimensional kernel on the 3 x 4 box, rank 2 one state
        region = box_region(3, 4)
        assert kernel(region_sum(region_cells["bonds_rank1"], region)).shape[1] == 2
        assert kernel(region_sum(region_cells["bonds_rank2"], region)).shape[1] == 1

    def test_nearly_gapless_window_keeps_its_kernel(self):
        # partial windows of this cell have states of energy ~1e-9 that a later
        # bond lifts; cutting them as soon as a bond separates them amplified
        # the rounding of the kernel columns until the 2-dim kernel was lost
        cell, region = bond_cell(1, 629), rhomboid_sites(3, 1, 1)[0]
        kernel_dim, gap, scale = ed_kernel_and_gap(region_spectrum(cell, region))
        assert (kernel_dim, gap) == (2, pytest.approx(2.06e-7, rel=1e-2))
        assert kernel(region_sum(cell, region)).shape[1] == 2
        report = region_gap(cell, region)
        assert report.kernel_dim == 2
        assert report.gap == pytest.approx(gap, abs=1e-10 * scale)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4)])
    def test_commuting_cell_ground_state_found(self, shape, commuting_cell_spec):
        # the old Lanczos sweep reported kernel_dim 0 and ground energy 1 here
        report = region_gap(commuting_cell_spec.payload, box_region(*shape))
        assert report.kernel_dim == 1
        assert report.ground_energy == pytest.approx(0.0, abs=1e-12)
        assert report.gap == pytest.approx(1.0, abs=1e-10)

    def test_oversized_region_refused_before_assembly(self, monkeypatch, commuting_cell_spec):
        def refuse(*args, **kwargs):
            raise AssertionError("a Hamiltonian was assembled")

        monkeypatch.setattr(LocalSum, "assemble", refuse)
        with pytest.raises(ValueError, match="exceeds the diagonalization cap"):
            region_gap(commuting_cell_spec.payload, box_region(4, 5))

    def test_weights_and_factor_dimensions_checked(self):
        p = np.diag([1.0, 0.0])
        # a zero weight cuts nothing; a negative one breaks the intersection rule
        assert kernel(LocalSum((2, 2), [((0,), p, 0.0), ((1,), p, 1.0)])).shape[1] == 2
        with pytest.raises(ValueError, match="weights >= 0"):
            kernel(LocalSum((2, 2), [((0,), p, -1.0)]))
        with pytest.raises(ValueError, match="equal factor dimensions"):
            kernel(LocalSum((2, 3), [((0,), p, 1.0)]))


class TestKernelCrossCheck:
    @pytest.mark.parametrize("method", ["dense", "deflated"])
    def test_dropped_kernel_vector_raises(self, singlet_spec, method, monkeypatch):
        if method == "deflated":
            monkeypatch.setattr(spectra, "KERNEL_DENSE_CUTOFF", 0)
        ham = chain_hamiltonian(singlet_spec.payload, 6)
        K = chain_kernels(singlet_spec.payload, 6)[-1]
        with pytest.raises(RuntimeError, match="kernel"):
            spectral_gap(ham, kernel=K[:, 1:])

    @pytest.mark.parametrize(
        "fixture, m",
        [("singlet_spec", m) for m in range(6, 11)] + [("aklt_spec", 6), ("aklt_spec", 7)],
    )
    def test_every_dropped_kernel_vector_raises_in_the_deflated_solve(
        self, request, fixture, m, monkeypatch
    ):
        # a Ritz value near 0 never meets ARPACK's relative stopping test, so an
        # unshifted solve could return the gap above a missed kernel vector
        monkeypatch.setattr(spectra, "KERNEL_DENSE_CUTOFF", 0)
        model = request.getfixturevalue(fixture).payload
        ham = chain_hamiltonian(model, m)
        K = chain_kernels(model, m)[-1]
        for column in range(K.shape[1]):
            with pytest.raises(RuntimeError, match="kernel"):
                spectral_gap(ham, kernel=np.delete(K, column, axis=1))

    @pytest.mark.parametrize("method", ["dense", "deflated"])
    def test_added_non_kernel_vector_raises(self, singlet_spec, method, monkeypatch):
        if method == "deflated":
            monkeypatch.setattr(spectra, "KERNEL_DENSE_CUTOFF", 0)
        ham = chain_hamiltonian(singlet_spec.payload, 6)
        K = chain_kernels(singlet_spec.payload, 6)[-1]
        w = np.random.default_rng(3).standard_normal(K.shape[0]).astype(complex)
        w -= K @ (K.conj().T @ w)
        w /= np.linalg.norm(w)
        with pytest.raises(RuntimeError, match="not annihilated"):
            spectral_gap(ham, kernel=np.column_stack([K, w]))

    def test_tiny_true_gap_is_not_counted_as_kernel(self):
        # an eigenvalue below the kernel threshold outside the basis must raise,
        # where the threshold-only count would report the next eigenvalue
        values = np.array([0.0, 1e-13] + [1.0] * 600)
        K = np.zeros((602, 1))
        K[0, 0] = 1.0
        with pytest.raises(RuntimeError, match="kernel"):
            spectral_gap(diag_operator(values), kernel=K)
        assert spectral_gap(diag_operator(values)).kernel_dim == 2

    def test_bad_kernel_arguments_rejected(self):
        with pytest.raises(ValueError):
            spectral_gap(np.eye(4), kernel=np.zeros((3, 1)))


class TestRealArithmetic:
    """Kernels and Lanczos solves of models with real projectors run in float64."""

    @pytest.mark.parametrize(
        "fixture, dtype",
        [("aklt_spec", np.float64), ("singlet_spec", np.float64),
         ("random_chain_d3_boundary", np.complex128)],
    )
    def test_chain_kernels_follow_the_projectors(self, request, fixture, dtype):
        model = request.getfixturevalue(fixture).payload
        assert all(K.dtype == dtype for K in chain_kernels(model, 5))
        # the one-site periodic kernel is C^d, cut by no term
        periodic = chain_kernels(replace(model, bc="periodic"), 5)
        assert periodic[0].dtype == np.float64
        assert all(K.dtype == dtype for K in periodic[1:])

    @pytest.mark.parametrize(
        "cell_name, dtype",
        [("commuting", np.float64), ("bonds_rank1", np.float64), ("bonds_rank2", np.float64),
         ("random_d2", np.complex128), ("random_d3", np.complex128)],
    )
    def test_region_operators_follow_the_cell(self, region_cells, cell_name, dtype):
        cell, region = region_cells[cell_name], WINDOWS["box_2x3"]
        assert region_hamiltonian(cell, region).dtype == dtype
        assert kernel(region_sum(cell, region)).dtype == dtype

    @pytest.mark.parametrize("fixture, m", [("aklt_spec", 7), ("singlet_spec", 12)])
    def test_real_deflated_gap_matches_a_complex_run(self, request, fixture, m):
        model = request.getfixturevalue(fixture).payload
        H, K = chain_hamiltonian(model, m), chain_kernels(model, m)[-1]
        real = chain_gap(model, m)
        cplx = spectral_gap(H.astype(complex), kernel=K.astype(complex))
        assert real.method == cplx.method == "deflated"
        assert real.kernel_dim == cplx.kernel_dim
        scale = m - 1  # a sum of m-1 projectors has norm at most m-1
        assert real.gap == pytest.approx(cplx.gap, abs=1e-10 * scale)
        assert real.ground_energy == pytest.approx(cplx.ground_energy, abs=1e-10 * scale)

    def test_aklt_deflated_solve_is_real(self, monkeypatch, aklt_spec):
        seen = []

        def record(A, **kwargs):
            seen.append((A.shape[0], kwargs.get("which"), A.dtype))
            return eigsh(A, **kwargs)

        monkeypatch.setattr(spectra, "eigsh", record)
        assert chain_gap(aklt_spec.payload, 7).method == "deflated"
        assert seen == [(3**7, "LA", np.float64)] * 2  # lambda_max, then the shifted gap solve
        assert all(dtype == np.float64 for _, _, dtype in seen)
        # the rewrite margin's scale and margin solves follow the ring's dtype
        seen.clear()
        rewrite_margin(aklt_spec.payload, 6, coeffs_1d(3, SQRT6))
        assert [dtype for _, _, dtype in seen] == [np.float64, np.float64]


@st.composite
def random_chains(draw):
    # the (d, rank_bulk, rank_boundary) recipes whose Haar draws are frustration-free
    d, rank_bulk, rank_boundary = draw(
        st.sampled_from([(2, 1, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1)])
    )
    seed = draw(st.integers(0, 10**6))
    try:
        spec = random_ff(d, rank_bulk, rank_boundary, seed, ff_check_depth=4)
    except RuntimeError:
        assume(False)
    return spec.payload


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(model=random_chains())
def test_kernel_and_gap_match_dense_ed_on_random_chains(model):
    """Soundness oracle at every size that dense ED reaches here (dim <= 1024)."""
    n = 10 if model.d == 2 else 6
    for name, chain in families(model).items():
        kernels = chain_kernels(chain, n)
        for m in range(2, n + 1):
            kernel_dim, gap, scale = ed_kernel_and_gap(spectrum(chain, m))
            assert kernels[m - 1].shape[1] == kernel_dim, (name, m)
            report = chain_gap(chain, m, kernels=kernels)
            assert report.kernel_dim == kernel_dim, (name, m)
            assert report.gap == pytest.approx(gap, abs=1e-10 * scale), (name, m)


@st.composite
def random_cells(draw):
    """A frustration-free 2D cell: random single-site projectors (d = 2, 3) or real bonds."""
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(["random_d2", "random_d3", "bonds"]))
    if kind == "bonds":
        return bond_cell(draw(st.integers(1, 2)), seed)
    return random_cell_2d(2 if kind == "random_d2" else 3, draw(st.integers(1, 2)), seed).payload


ORACLE_WINDOWS = [box_region(a, b) for a, b in ((1, 4), (2, 2), (2, 3), (3, 3), (2, 5))] + [
    rhomboid_sites(l1, l2, 1)[0] for l1, l2 in ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1))
]


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cell=random_cells())
def test_kernel_and_gap_match_dense_ed_on_random_cells(cell):
    """Soundness oracle on every box and rhomboid that dense ED reaches here (dim <= 1024)."""
    for region in ORACLE_WINDOWS:
        if cell.d ** len(region) > 1024:
            continue
        kernel_dim, gap, scale = ed_kernel_and_gap(region_spectrum(cell, region))
        assert kernel(region_sum(cell, region)).shape[1] == kernel_dim, region.sites
        report = region_gap(cell, region)
        assert report.kernel_dim == kernel_dim, region.sites
        assert report.gap == pytest.approx(gap, abs=1e-10 * scale), region.sites


EIGENSOLVERS = {"eigsh", "eigs", "eigh", "eigvalsh", "eigvals", "svd", "cholesky"}


@pytest.mark.parametrize(
    "module",
    sorted(p.name for p in Path(ffgap.__file__).parent.glob("*.py") if p.name != "spectra.py"),
)
def test_only_spectra_diagonalizes(module):
    """No module but spectra names an eigensolver or a factorization (a call, attribute or import)."""
    tree = ast.parse((Path(ffgap.__file__).parent / module).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    assert not names & EIGENSOLVERS, f"{module} references {sorted(names & EIGENSOLVERS)}"


def test_tolerances_are_constants():
    """No public function parameter, SuiteConfig field or CLI option is a tolerance (ends in tol).

    The private Lanczos routines (_eigsh, _largest_eigenvalue, _least_eigenvalue)
    keep their ``tol``: they are called with two values.
    """
    params = [
        f"{path.name}: {node.name}({arg.arg})"
        for path in sorted(Path(ffgap.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg.endswith("tol")
    ]
    fields = [field.name for field in dataclasses.fields(SuiteConfig) if field.name.endswith("tol")]
    options, parsers = [], [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            options += [option for option in action.option_strings if option.endswith("-tol")]
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
    assert not params + fields + options


def test_every_gap_in_ffgap_has_a_kernel_basis():
    """Every spectral_gap call in src/ffgap passes a kernel basis, by keyword."""
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(ffgap.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "spectral_gap"
        and not any(keyword.arg == "kernel" for keyword in node.keywords)
    ]
    assert not calls, f"spectral_gap without a kernel basis at {calls}"


def test_spectra_calls_arpack_once():
    """spectra has one eigsh call (by name or attribute), inside _eigsh."""
    tree = ast.parse(Path(spectra.__file__).read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "eigsh"
    ]
    wrapper = next(
        f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == "_eigsh"
    )
    assert len(calls) == 1
    assert any(node is calls[0] for node in ast.walk(wrapper))
