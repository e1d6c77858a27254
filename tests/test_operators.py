"""Operator assembly: embedding, chain/region Hamiltonians, window algebra."""

import numpy as np
import pytest

from ffgap.coefficients import SQRT6, coeffs_1d
from ffgap.lattice import InteractionShape, SiteRegion, box_region, chain_region
from ffgap.models import aklt, random_ff
from ffgap.operators import (
    ChainModel,
    EnlargedChainApplier,
    InteractionCell,
    LocalProjector,
    SparseHermitianOperator,
    chain_hamiltonian,
    cyclic_distance,
    embed,
    enlarged_terms,
    projector_complement_kernel,
    q_and_f,
    region_hamiltonian,
    subchain_support_operator,
)

RNG = np.random.default_rng(8451)


def random_projector(dim: int, rank: int) -> np.ndarray:
    m = RNG.standard_normal((dim, rank)) + 1j * RNG.standard_normal((dim, rank))
    q = np.linalg.qr(m)[0]
    return q @ q.conj().T


def two_site_chain(d: int, seed: int = 0) -> ChainModel:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d * d, 1)) + 1j * rng.standard_normal((d * d, 1))
    q = np.linalg.qr(m)[0]
    return ChainModel(
        d=d,
        P=LocalProjector(2, d, q @ q.conj().T),
        P_L=LocalProjector.zero(1, d),
        P_R=LocalProjector.zero(1, d),
    )


class TestLocalProjector:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            LocalProjector(1, 2, bad)

    def test_rejects_non_idempotent(self):
        bad = 0.5 * np.eye(2)
        with pytest.raises(ValueError):
            LocalProjector(1, 2, bad)

    def test_zero_flag(self):
        assert LocalProjector.zero(1, 3).is_zero
        assert not LocalProjector(1, 2, np.diag([1.0, 0.0])).is_zero


class TestEmbed:
    def test_matches_kron_on_chain(self):
        region = chain_region(3)
        p = random_projector(4, 2)
        got = embed(p, ((1, 0), (2, 0)), region, 2).toarray()
        want = np.kron(p, np.eye(2))
        assert np.allclose(got, want, atol=1e-14)

    def test_site_order_transposes_factors(self):
        region = chain_region(2)
        p = random_projector(4, 1)
        forward = embed(p, ((1, 0), (2, 0)), region, 2).toarray()
        swap = np.reshape(np.transpose(np.reshape(p, (2, 2, 2, 2)), (1, 0, 3, 2)), (4, 4))
        backward = embed(swap, ((2, 0), (1, 0)), region, 2).toarray()
        assert np.allclose(forward, backward, atol=1e-14)

    def test_trace_identity(self):
        # tr(embed(A)) = tr(A) * dim(rest)
        region = box_region(2, 2)
        p = random_projector(2, 1)
        op = embed(p, ((1, 2),), region, 2)
        assert np.trace(op.toarray()) == pytest.approx(np.trace(p) * 2 ** 3)

    def test_mixed_local_dims(self):
        region = chain_region(2)
        p = random_projector(6, 2)
        op = embed(p, ((1, 0), (2, 0)), region, [2, 3])
        assert op.dim == 6
        assert np.allclose(op.toarray(), p, atol=1e-14)

    def test_outside_site_rejected(self):
        region = chain_region(2)
        with pytest.raises(ValueError):
            embed(np.eye(2), ((5, 0),), region, 2)

    def test_wrong_shape_rejected(self):
        region = chain_region(2)
        with pytest.raises(ValueError):
            embed(np.eye(3), ((1, 0),), region, 2)


class TestProjectorComplementKernel:
    def test_projects_onto_support(self):
        p = random_projector(8, 3)
        h = 2.0 * p  # PSD with kernel = complement of range(p)
        out = projector_complement_kernel(h)
        assert np.allclose(out, p, atol=1e-10)

    def test_zero_operator(self):
        out = projector_complement_kernel(np.zeros((4, 4)))
        assert np.allclose(out, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            projector_complement_kernel(np.diag([1.0, -0.5]))


class TestChainHamiltonian:
    def test_open_chain_term_count(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        H = chain_hamiltonian(model, 4).toarray()
        region = chain_region(4)
        want = sum(
            embed(model.P, ((i, 0), (i + 1, 0)), region, 3).toarray() for i in (1, 2, 3)
        )
        want = want + embed(model.P_L, ((1, 0),), region, 3).toarray()
        want = want + embed(model.P_R, ((4, 0),), region, 3).toarray()
        assert np.allclose(H, want, atol=1e-13)

    def test_periodic_adds_wraparound(self):
        model = two_site_chain(2, seed=3)
        periodic = ChainModel(2, model.P, model.P_L, model.P_R, bc="periodic")
        H_open = chain_hamiltonian(model, 4).toarray()
        H_per = chain_hamiltonian(periodic, 4).toarray()
        region = chain_region(4)
        wrap = embed(model.P, ((4, 0), (1, 0)), region, 2).toarray()
        assert np.allclose(H_per, H_open + wrap, atol=1e-13)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            chain_hamiltonian(two_site_chain(2), 1)


class TestRegionHamiltonian:
    def test_single_site_cell_counts_sites(self):
        proj = np.diag([1.0, 0.0])
        cell = InteractionCell(
            d=2,
            terms=((InteractionShape.single_site(), LocalProjector(1, 2, proj)),),
            R=1,
        )
        H = region_hamiltonian(cell, box_region(2, 2)).toarray()
        # eigenvalues count the number of sites in state |0>
        vals = np.sort(np.linalg.eigvalsh(H))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert vals[-1] == pytest.approx(4.0, abs=1e-13)

    def test_straddling_translates_dropped(self):
        pair = InteractionShape.chain_pair()
        proj = random_projector(4, 1)
        cell = InteractionCell(d=2, terms=((pair, LocalProjector(2, 2, proj)),), R=3)
        H2 = region_hamiltonian(cell, box_region(2, 1)).toarray()
        # only one horizontal pair fits in a 2x1 box
        assert np.allclose(H2, proj, atol=1e-14)


class TestEnlargedRing:
    def test_terms_layout(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 4
        terms = enlarged_terms(model, m)
        assert len(terms) == m + 1
        # the m+1 terms act on the m-site space and sum to the open chain
        # (up to rounding: the two sums add the edge terms in another order)
        total = sum(t.toarray() for t in terms)
        assert np.allclose(total, chain_hamiltonian(model, m).toarray(), atol=1e-13)

    def test_zero_boundary_gives_zero_terms(self, random_chain_d2):
        model = random_chain_d2.payload
        terms = enlarged_terms(model, 4)
        assert terms[3].matrix.nnz == 0  # P_R slot
        assert terms[4].matrix.nnz == 0  # P_L slot

    def test_hsquared_identity(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 4
        H = chain_hamiltonian(model, m)
        Q, F = q_and_f(model, m)
        lhs = (H @ H).toarray()
        rhs = H.toarray() + Q.toarray() + F.toarray()
        scale = np.linalg.norm(lhs)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_cyclic_distance(self):
        assert cyclic_distance(1, 5, 5) == 1
        assert cyclic_distance(0, 2, 5) == 2
        assert cyclic_distance(3, 3, 5) == 0


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestSubchainOperators:
    @pytest.mark.parametrize("l", [1, 4, 8, 9])
    def test_window_wraps_cyclically(self, random_chain_d2, l):
        model = random_chain_d2.payload
        m, n = 8, 4
        terms = enlarged_terms(model, m)
        want = sum(terms[(l + k - 1) % (m + 1)].toarray() for k in range(n - 1))
        v = random_state(2 ** m, l)
        got = EnlargedChainApplier(model, m).apply_window(l, (1.0,) * (n - 1), v)
        assert np.allclose(got, want @ v, atol=1e-12)

    def test_deformed_window_weights(self, random_chain_d2):
        model = random_chain_d2.payload
        m, n = 8, 4
        coeffs = coeffs_1d(n, SQRT6)
        terms = enlarged_terms(model, m)
        want = sum(
            coeffs.c[k] * terms[(2 + k - 1) % (m + 1)].toarray() for k in range(n - 1)
        )
        v = random_state(2 ** m, 2)
        got = EnlargedChainApplier(model, m).apply_window(2, coeffs.c, v)
        assert np.allclose(got, want @ v, atol=1e-12)

    def test_window_too_long_rejected(self, random_chain_d2):
        with pytest.raises(ValueError):
            subchain_support_operator(random_chain_d2.payload, 6, 4, 1)

    def test_support_operator_matches_full(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m, n = 6, 3
        coeffs = coeffs_1d(n, SQRT6)
        terms = enlarged_terms(model, m)
        for l in (1, 5, 6, 7, 3):
            full = sum(
                coeffs.c[k] * terms[(l + k - 1) % (m + 1)].toarray() for k in range(n - 1)
            )
            small, sites = subchain_support_operator(model, m, n, l, coeffs)
            # spectra agree up to identity tensor factors
            vals_full = np.unique(np.round(np.linalg.eigvalsh(full), 9))
            vals_small = np.unique(np.round(np.linalg.eigvalsh(small), 9))
            assert np.allclose(vals_full, vals_small, atol=1e-8)
            assert all(1 <= s <= m for s in sites)


class TestEnlargedChainApplier:
    def test_matches_assembled_operators(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 5
        applier = EnlargedChainApplier(model, m)
        assert applier.dim == 3 ** m
        v = random_state(3 ** m, 11)
        terms = enlarged_terms(model, m)
        for j, term in enumerate(terms, start=1):
            assert np.allclose(applier.apply_term(j, v), term.matrix @ v, atol=1e-12)
        H = chain_hamiltonian(model, m)
        assert np.allclose(applier.apply_hamiltonian(v), H.matrix @ v, atol=1e-12)
        Q, F = q_and_f(model, m)
        images = applier.term_images(v)
        assert np.allclose(applier.apply_q_plus_f(images), (Q + F).matrix @ v, atol=1e-11)

    def test_window_application(self, random_chain_d2):
        model = random_chain_d2.payload
        m, n = 8, 4
        coeffs = coeffs_1d(n, SQRT6)
        applier = EnlargedChainApplier(model, m)
        dim = 2 ** m
        assert applier.dim == dim
        v = np.random.default_rng(7).standard_normal(dim).astype(np.complex128)
        terms = enlarged_terms(model, m)
        images = applier.term_images(v)
        for l in (1, 5, 9):
            window = sum(coeffs.c[k] * terms[(l + k - 1) % (m + 1)].matrix for k in range(n - 1))
            want = window @ v
            assert np.allclose(applier.apply_window(l, coeffs.c, v), want, atol=1e-11)
            assert np.allclose(applier.window_from_images(l, coeffs.c, images), want, atol=1e-11)


class TestSparseHermitianOperator:
    def test_arithmetic(self):
        a = SparseHermitianOperator.zero(2)
        p = LocalProjector(1, 2, np.diag([1.0, 0.0]))
        op = embed(p, ((1, 0),), chain_region(1), 2)
        total = a + op + op
        assert np.allclose(total.toarray(), 2 * np.diag([1.0, 0.0]))
        scaled = 0.5 * total
        assert np.allclose(scaled.toarray(), np.diag([1.0, 0.0]))

    def test_hermiticity_assertion(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        import scipy.sparse as sp

        op = SparseHermitianOperator(sp.csr_matrix(mat), 2)
        with pytest.raises(ValueError):
            op.assert_hermitian()


class TestAkltAlgebra:
    def test_bond_projector_rank(self, aklt_spec):
        P = aklt_spec.payload.P.matrix
        assert np.trace(P).real == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_two_site_kernel_dimension(self, aklt_spec):
        H = chain_hamiltonian(aklt_spec.payload, 2).toarray()
        vals = np.linalg.eigvalsh(H)
        assert int(np.sum(vals < 1e-10)) == 4
