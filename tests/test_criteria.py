"""Finite-size criteria, certificates, and the inequality verification suite."""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError, cholesky

from ffgap import criteria, spectra
from ffgap.coefficients import (
    SQRT6,
    autocorr_1d,
    coeffs_1d,
    coeffs_2d,
    optimal_x,
    threshold_1d,
    threshold_2d,
    weight_bruteforce,
    weight_table,
)
from ffgap.coarse_grain import (
    EffectiveModel1D,
    effective_1d,
    effective_2d,
    plaquette_model_hamiltonian,
)
from ffgap.criteria import (
    SuiteConfig,
    apply_pairs,
    certify_2d,
    certify_periodic,
    certify_quasi1d,
    certify_thm1,
    certify_thm2,
    chiral_exclusion,
    hsquared_identity_residual,
    interchange_residual,
    patch_square_table,
    prop2d_margin,
    rewrite_difference,
    rewrite_margin,
    rewrite_table,
    standard_instance_plan,
    term_images,
    verify_chain_instance,
    verify_inequality_suite,
    window_gap_margins,
)
from ffgap.lattice import (
    SiteRegion,
    collar_centers,
    patch,
    plaquette_corner_boxes,
    plaquette_distance,
    plaquette_set,
    rhomboid_sites,
)
from ffgap.models import random_cell_2d
from ffgap.operators import ChainModel, LocalProjector, LocalSum, enlarged_ring
from ffgap.spectra import GapProfile, certified_margin, gap_profile


def kron_rewrite_margin(model, m, n, coeffs) -> tuple[float, float]:
    """Dense (margin, scale) of the rewrite inequality, built from np.kron.

    The enlarged ring has m+1 sites: bonds h_1..h_{m-1}, P_R on site m as
    h_m and P_L on site 1 as h_{m+1}; Q and F follow their definitions.
    Products are taken in CSR, and only the two spectra are dense.
    """
    d, p = model.d, m + 1

    def on_sites(local, first, k):
        eye_left, eye_right = np.eye(d ** (first - 1)), np.eye(d ** (p - first - k + 1))
        return sp.csr_matrix(np.kron(np.kron(eye_left, local), eye_right))

    h = [on_sites(model.P.matrix, j, 2) for j in range(1, m)]
    h += [on_sites(model.P_R.matrix, m, 1), on_sites(model.P_L.matrix, 1, 1)]
    H = sum(h)
    Q = sum(h[i] @ h[(i + 1) % p] + h[(i + 1) % p] @ h[i] for i in range(p))
    F = sum(
        h[i] @ h[j]
        for i in range(p)
        for j in range(p)
        if min(abs(i - j), p - abs(i - j)) >= 2
    )
    c = np.asarray(coeffs.c)
    rhs = (c @ c) * H + (c[:-1] @ c[1:]) * (Q + F)
    diff = rhs.copy()
    for l in range(p):
        B = sum(w * h[(l + k) % p] for k, w in enumerate(c))
        diff -= B @ B
    margin = float(np.linalg.eigvalsh(diff.toarray())[0])
    return margin, max(1.0, float(np.linalg.eigvalsh(rhs.toarray())[-1]))


def regrouped_difference_residual(model, m, n, seed=0) -> float:
    """Worst relative distance of the D matvec of ``rewrite_difference`` from D v taken term by term.

    The reference squares each window by applying it twice, term by term, so
    it shares no grouping with the pair table.
    """
    ring = enlarged_ring(model, m)
    coeffs = coeffs_1d(n, SQRT6)
    c = coeffs.c
    arr = np.asarray(c)

    def apply_window(l, v):
        return sum(w * ring.apply_term((l + a - 1) % (m + 1), v) for a, w in enumerate(c))

    _, difference = rewrite_difference(ring, coeffs)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(3):
        v = rng.standard_normal(ring.dim) + 1j * rng.standard_normal(ring.dim)
        images = term_images(ring, v)
        want = (arr @ arr) * np.sum(images, axis=0)
        want += (arr[:-1] @ arr[1:]) * apply_pairs(ring, 1.0 - np.eye(m + 1), images)
        for l in range(1, m + 2):
            want -= apply_window(l, apply_window(l, v))
        got = difference(v)
        worst = max(worst, float(np.linalg.norm(got - want) / np.linalg.norm(want)))
    return worst


def synthetic_profile(bulk_list, left, right, boundary_trivial=False) -> GapProfile:
    return GapProfile(
        left=tuple(left),
        right=tuple(right),
        bulk_list=tuple(bulk_list),
        boundary_trivial=boundary_trivial,
    )


class TestCertifyThm1:
    def test_certified_when_gaps_clear_threshold(self):
        profile = synthetic_profile(
            (1.0, 0.9, 0.8), (1.0, 0.9, 0.8), (1.0, 0.9, 0.8)
        )
        cert = certify_thm1(profile, 4)
        assert cert.local_gap == pytest.approx(min(0.8, 0.9))
        assert cert.threshold == pytest.approx(threshold_1d(4, "exact"))
        assert cert.prefactor == pytest.approx(1.0 / (2**8 * math.sqrt(24.0)))
        assert cert.verdict == "certified_gapped"
        assert cert.bound == pytest.approx(cert.prefactor * (cert.local_gap - cert.threshold))
        assert cert.bound > 0

    def test_inconclusive_below_threshold(self):
        profile = synthetic_profile(
            (0.1, 0.1, 0.1), (0.1, 0.1, 0.1), (0.1, 0.1, 0.1)
        )
        cert = certify_thm1(profile, 4)
        assert cert.verdict == "inconclusive"
        assert cert.bound < 0

    def test_three_site_case(self):
        profile = synthetic_profile((1.0, 0.9), (1.0, 0.9), (1.0, 0.9))
        cert = certify_thm1(profile, 3)
        assert cert.prefactor == pytest.approx(2.0)
        assert cert.threshold == pytest.approx(0.5)
        assert cert.local_gap == pytest.approx(0.9)
        assert cert.bound == pytest.approx(2.0 * 0.4)

    def test_asymptotic_mode_threshold(self):
        profile = synthetic_profile(
            (1.0,) * 5, (1.0,) * 5, (1.0,) * 5
        )
        cert = certify_thm1(profile, 6, mode="asymptotic")
        assert cert.threshold == pytest.approx(threshold_1d(6, "asymptotic"))
        assert cert.threshold == pytest.approx(2.0 * SQRT6 * 6.0**-1.5)

    def test_aklt_certified(self, aklt_spec):
        profile = gap_profile(aklt_spec.payload, 5)
        cert = certify_thm1(profile, 5)
        assert cert.verdict == "certified_gapped"
        assert cert.local_gap == pytest.approx(
            min(profile.bulk_list[3], profile.edge_min_at(4))
        )
        assert cert.bound > 0

    def test_input_validation(self):
        profile = synthetic_profile((1.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            certify_thm1(profile, 2)
        with pytest.raises(ValueError):
            certify_thm1(profile, 5)  # profile only covers up to n=3


class TestCertifyThm2:
    def test_never_below_plain_criterion(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        profile = gap_profile(model, 4)
        plain = certify_thm1(profile, 4)
        strong = certify_thm2(profile, 4)
        assert strong.local_gap >= plain.local_gap - 1e-15
        assert strong.bound >= plain.bound - 1e-15
        assert strong.threshold == plain.threshold

    def test_short_edge_dip_averaged_out(self):
        # a small gap at the shortest edge window hurts the plain minimum
        # but only enters the strong criterion through weighted averages
        profile = synthetic_profile((1.0, 0.9, 0.8), (0.2, 0.9, 0.9), (0.2, 0.9, 0.9))
        plain = certify_thm1(profile, 4)
        strong = certify_thm2(profile, 4)
        assert plain.local_gap == pytest.approx(0.2)
        assert strong.local_gap > plain.local_gap + 0.01

    def test_one_sided_chain_bare_edge_gap_is_one(self, random_chain_d3_boundary):
        # only P_L is nonzero: e_0 = 1 enters the averages, never +inf
        model = replace(random_chain_d3_boundary.payload, P_R=LocalProjector.zero(1, 3))
        n = 4
        profile = gap_profile(model, n)
        assert not profile.boundary_trivial
        cert = certify_thm2(profile, n)
        c = coeffs_1d(n, optimal_x(n)[0]).c
        e = [1.0] + [min(lg, rg) for lg, rg in zip(profile.left, profile.right)][: n - 2]
        want = sum(w * g for w, g in zip(c, e)) / sum(c)
        assert math.isfinite(cert.constants["edge_averages"][0])
        assert cert.constants["edge_averages"][0] == pytest.approx(want, rel=1e-14)

    def test_mode_controls_x(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        profile = gap_profile(model, 4)
        exact = certify_thm2(profile, 4, mode="exact")
        asym = certify_thm2(profile, 4, mode="asymptotic")
        assert exact.constants["x"] == pytest.approx(optimal_x(4)[0])
        assert asym.constants["x"] == pytest.approx(SQRT6)

    def test_input_validation(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        profile = gap_profile(model, 4)
        with pytest.raises(ValueError):
            certify_thm2(profile, 3)
        with pytest.raises(ValueError):
            certify_thm2(profile, 5)


class TestCertifyPeriodic:
    def test_hand_arithmetic(self):
        cert = certify_periodic(0.5, n=5, m=12)
        assert cert.prefactor == pytest.approx(25.0)
        assert cert.threshold == pytest.approx(0.2)
        assert cert.verdict == "certified_gapped"
        assert cert.bound == pytest.approx(7.5)

    def test_inconclusive(self):
        cert = certify_periodic(0.1, n=5, m=12)
        assert cert.verdict == "inconclusive"

    def test_input_validation(self):
        with pytest.raises(ValueError):
            certify_periodic(0.5, n=4, m=12)
        with pytest.raises(ValueError):
            certify_periodic(0.5, n=5, m=2)
        with pytest.raises(ValueError):
            certify_periodic(0.5, n=5, m=11)


class TestCertifyQuasi1d:
    def test_unit_block_constants(self, commuting_cell_spec):
        eff = EffectiveModel1D(
            P_eff=LocalProjector.zero(2, 2),
            lambda_min=1.0,
            lambda_max=1.0,
            R=1,
            m2=1,
        )
        gaps = {l: 10.0 for l in range(2, 5)}
        cert = certify_quasi1d(
            commuting_cell_spec.payload, 1, 1, 4, gaps, effective=eff
        )
        assert cert.constants["C1"] == pytest.approx(1.0 / (2**10 * math.sqrt(24.0)))
        assert cert.constants["C2"] == pytest.approx(8.0 * SQRT6)
        assert cert.threshold == pytest.approx(8.0 * SQRT6 * 4.0**-1.5)
        assert cert.verdict == "certified_gapped"

    def test_default_effective_model(self, commuting_cell_spec):
        gaps = {l: 0.1 for l in range(2, 5)}
        cert = certify_quasi1d(commuting_cell_spec.payload, 1, 1, 4, gaps)
        assert cert.constants["C1_1d"] == pytest.approx(0.5)
        assert cert.constants["C2_1d"] == pytest.approx(2.0)
        assert cert.local_gap == pytest.approx(0.1)
        assert cert.verdict == "inconclusive"

    def test_effective_model_for_other_m2_rejected(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        gaps = {l: 1.0 for l in range(2, 5)}
        with pytest.raises(ValueError, match="effective model is for m2=1"):
            certify_quasi1d(cell, 3, 1, 4, gaps, effective=effective_1d(cell, 1, 1))

    def test_missing_window_rejected(self, commuting_cell_spec):
        with pytest.raises(ValueError, match=r"missing gap entries.*3"):
            certify_quasi1d(commuting_cell_spec.payload, 1, 1, 4, {2: 1.0, 4: 1.0})
        with pytest.raises(ValueError):
            certify_quasi1d(commuting_cell_spec.payload, 1, 1, 3, {})


class TestChiralExclusion:
    def test_pinned_examples(self):
        n0, table = chiral_exclusion(2.0, 1, 1.0)
        assert n0 == 5
        n0_big, _ = chiral_exclusion(10.0, 3, 2.0)
        assert n0_big == 3601

    def test_trivial_limit(self):
        n0, _ = chiral_exclusion(1.1, 1, 0.1)
        assert n0 == 1

    def test_contradiction_table(self):
        n0, table = chiral_exclusion(2.0, 1, 1.0)
        assert table["rhs_over_C1"] > 0
        lhs = [row["lhs"] for row in table["rows"]]
        assert lhs == sorted(lhs, reverse=True)
        assert lhs[-1] < table["rhs_over_C1"] * 1e-2  # lhs drops below rhs

    def test_input_validation(self):
        with pytest.raises(ValueError):
            chiral_exclusion(1.0, 1, 1.0)
        with pytest.raises(ValueError):
            chiral_exclusion(2.0, 0, 1.0)
        with pytest.raises(ValueError):
            chiral_exclusion(2.0, 1, 0.0)


class TestCertify2d:
    def test_commuting_cell_certificate(self, commuting_cell_spec):
        gaps = {(l1, l2): 10.0 for l1 in (1, 2) for l2 in (1, 2)}
        cert = certify_2d(commuting_cell_spec.payload, 1, 2, gaps)
        assert cert.constants["C1_2d"] == pytest.approx(0.25)
        assert cert.constants["C2_2d"] == pytest.approx(4.0)
        assert cert.threshold == pytest.approx(4.0 * threshold_2d(2))
        assert cert.threshold == pytest.approx(9.6)
        assert cert.local_gap == pytest.approx(10.0)
        assert cert.verdict == "certified_gapped"
        assert cert.bound > 0
        for key in ("alpha", "sigma", "c_mid", "g_2d", "metaspin_dim"):
            assert key in cert.constants

    def test_effective_model_for_other_R_rejected(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        gaps = {(l1, l2): 10.0 for l1 in (1, 2) for l2 in (1, 2)}
        with pytest.raises(ValueError, match="effective model is for R=1"):
            certify_2d(cell, 3, 2, gaps, effective=effective_2d(cell, 1))

    def test_window_coverage_required(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="missing gap entries"):
            certify_2d(commuting_cell_spec.payload, 1, 2, {(1, 1): 1.0})

    def test_even_window_required(self, commuting_cell_spec):
        with pytest.raises(ValueError):
            certify_2d(commuting_cell_spec.payload, 1, 3, {})

    def test_certificate_serializes(self, commuting_cell_spec):
        gaps = {(l1, l2): 10.0 for l1 in (1, 2) for l2 in (1, 2)}
        cert = certify_2d(commuting_cell_spec.payload, 1, 2, gaps)
        doc = cert.to_json()
        assert doc["schema_version"] == criteria.SCHEMA_VERSION
        assert doc["criterion"] == "two_d"
        assert doc["verdict"] == "certified_gapped"
        json.dumps(doc)  # must be JSON-serializable as-is


def prop2d_with_dense_reference(monkeypatch, cell, m1, m2):
    """prop2d_margin at n=2, and the dense least eigenvalue of the D it certified.

    Also returns the dense largest eigenvalue of the rhomboid Hamiltonian.
    """
    seen = []

    def record(op, scale):
        seen.append(op.toarray())
        return certified_margin(op, scale)

    monkeypatch.setattr(criteria, "certified_margin", record)
    result = prop2d_margin(cell, 2, m1, m2)
    H = plaquette_model_hamiltonian(effective_2d(cell, cell.R), m1, m2).toarray()
    return result, float(np.linalg.eigvalsh(seen[0])[0]), float(np.linalg.eigvalsh(H)[-1])


class TestProp2dMargin:
    @pytest.mark.parametrize(
        "which, m1, m2",
        [(0, 1, 3), (1, 3, 1), ("commuting", 1, 3), ("commuting", 3, 1)],
    )
    def test_matches_dense_reference(
        self, monkeypatch, random_cells_2d, commuting_cell_spec, which, m1, m2
    ):
        spec = commuting_cell_spec if which == "commuting" else random_cells_2d[which]
        result, margin, lam_h = prop2d_with_dense_reference(monkeypatch, spec.payload, m1, m2)
        beta = weight_table(2).beta
        assert result["lambda_max_H"] == pytest.approx(lam_h, abs=1e-10)
        assert result["scale"] == pytest.approx(max(1.0, lam_h**2 + beta * lam_h), abs=1e-10)
        assert result["margin"] == pytest.approx(margin, abs=1e-12 * result["scale"])
        assert result["pass"]

    def test_corrupted_alpha_fails_with_dense_margin(self, monkeypatch, random_cells_2d):
        table = weight_table(2)
        monkeypatch.setattr(
            criteria, "weight_table", lambda n: replace(table, alpha=table.alpha * 1.0001)
        )
        cell = random_cells_2d[0].payload
        result, margin, _ = prop2d_with_dense_reference(monkeypatch, cell, 1, 3)
        assert not result["pass"]
        assert result["margin"] == pytest.approx(margin, abs=1e-10 * result["scale"])

    def test_failed_cholesky_falls_back_to_dense(self, monkeypatch, random_cells_2d):
        least = spectra._least_eigenvalue

        def shifted(*args, **kwargs):
            theta, residual = least(*args, **kwargs)
            return theta + 1.0, residual

        monkeypatch.setattr(spectra, "_least_eigenvalue", shifted)
        failures = []

        def record_failure(*args, **kwargs):
            try:
                return cholesky(*args, **kwargs)
            except LinAlgError:
                failures.append(True)
                raise

        monkeypatch.setattr(spectra, "cholesky", record_failure)
        cell = random_cells_2d[0].payload
        result, margin, _ = prop2d_with_dense_reference(monkeypatch, cell, 1, 3)
        assert failures == [True]
        assert result["margin"] == pytest.approx(margin, abs=1e-12 * result["scale"])

    def test_least_eigenvalue_finds_degenerate_zero(self, monkeypatch, commuting_cell_spec):
        # D is diagonal with 124 zero entries; ARPACK "SA" on it returned 2.0
        seen = []

        def record(op, scale):
            seen.append((op, scale))
            return 0.0

        monkeypatch.setattr(criteria, "certified_margin", record)
        prop2d_margin(commuting_cell_spec.payload, 2, 1, 3)
        (D, scale), = seen
        theta, _ = spectra._least_eigenvalue(lambda v: D @ v, D.shape[0], D.dtype, scale)
        assert abs(theta) <= 1e-12 * scale

    def test_oversized_rhomboid_rejected_before_assembly(self, monkeypatch):
        cell = random_cell_2d(3, 2, 12).payload  # metaspin 3, 10 boxes: dim 3^10
        eff = effective_2d(cell, cell.R)

        def must_not_assemble(*args, **kwargs):
            raise AssertionError("assembled before the size check")

        monkeypatch.setattr(LocalSum, "assemble", must_not_assemble)
        with pytest.raises(ValueError, match="dense-diagonalizable"):
            prop2d_margin(cell, 2, 1, 3, effective=eff)

    @pytest.mark.parametrize(
        "which, m1, m2",
        [(0, 1, 3), (1, 3, 1), ("commuting", 1, 3), ("commuting", 3, 1)],
    )
    def test_difference_matches_patch_squares(
        self, monkeypatch, random_cells_2d, commuting_cell_spec, which, m1, m2
    ):
        # D against its definition, with each patch operator B assembled from its members
        spec = commuting_cell_spec if which == "commuting" else random_cells_2d[which]
        seen = []

        def record(op, scale):
            seen.append(op)
            return 0.0

        monkeypatch.setattr(criteria, "certified_margin", record)
        prop2d_margin(spec.payload, 2, m1, m2)
        eff = effective_2d(spec.payload, spec.payload.R)
        H = plaquette_model_hamiltonian(eff, m1, m2)
        region = SiteRegion(rhomboid_sites(m1, m2, eff.R)[1])
        ambient = plaquette_set(m1, m2, eff.R)
        wt, c2d = weight_table(2), coeffs_2d(2)
        want = H @ H + wt.beta * H
        for center in collar_centers(ambient, 2):
            patch_ = patch(2, center, ambient)
            terms = [
                (
                    tuple(map(region.index, plaquette_corner_boxes(p, eff.R))),
                    eff.h_plaquette.matrix,
                    c2d.at(plaquette_distance(patch_, p)),
                )
                for p in patch_.members
            ]
            B = LocalSum((eff.metaspin_dim,) * len(region), terms).assemble()
            want = want - wt.alpha * (B @ B)
        (got,) = seen
        assert sp.linalg.norm(got - want) <= 1e-12 * sp.linalg.norm(want)

    @pytest.mark.parametrize("n", [2, 4])
    def test_patch_square_table_matches_bruteforce(self, n):
        # the clipped boundary patches need no correction: every pair weight is
        # the sum over all covering balls of the infinite lattice
        c = coeffs_2d(n)
        for m1 in range(1, 5):
            for m2 in range(1, 5):
                ambient = plaquette_set(m1, m2)
                W = patch_square_table(ambient, n)
                for i, p in enumerate(ambient.plaquettes):
                    for j, q in enumerate(ambient.plaquettes):
                        assert W[i, j] == weight_bruteforce(n, c, p, q), (m1, m2, p, q)


class TestOperatorChecks:
    def test_hsquared_identity(self, random_chain_d2):
        assert hsquared_identity_residual(random_chain_d2.payload, 6) < 1e-12

    def test_interchange_identity(self, random_chain_d2):
        coeffs = coeffs_1d(4, SQRT6)
        assert interchange_residual(random_chain_d2.payload, 8, coeffs) < 1e-12

    def test_interchange_matfree(self, random_chain_d2):
        coeffs = coeffs_1d(4, SQRT6)
        assert interchange_residual(random_chain_d2.payload, 8, coeffs, seed=7) < 1e-12

    def test_interchange_catches_broken_window(self, monkeypatch, random_chain_d2):
        coeffs = coeffs_1d(4, SQRT6)
        window_from_images = criteria.window_from_images

        def drop_last_term(l, c, images):
            return window_from_images(l, c[:-1], images)

        monkeypatch.setattr(criteria, "window_from_images", drop_last_term)
        assert interchange_residual(random_chain_d2.payload, 8, coeffs, seed=7) > 1e-12

    def test_rewrite_margin_nonnegative(self, random_chain_d2):
        coeffs = coeffs_1d(4, SQRT6)
        margin, scale = rewrite_margin(random_chain_d2.payload, 8, coeffs)
        assert scale >= 1.0
        assert margin >= -1e-9 * scale

    @pytest.mark.parametrize(
        "chain, m, n",
        [("random_chain_d2", 8, 4), ("random_chain_d3_boundary", 6, 3), ("aklt_spec", 6, 3)],
        ids=["d2", "d3", "aklt"],
    )
    def test_rewrite_margin_matches_kron_reference(self, request, chain, m, n):
        model = request.getfixturevalue(chain).payload
        coeffs = coeffs_1d(n, SQRT6)
        dense_margin, dense_scale = kron_rewrite_margin(model, m, n, coeffs)
        free_margin, free_scale = rewrite_margin(model, m, coeffs)
        assert free_margin == pytest.approx(dense_margin, abs=1e-9 * dense_scale)
        assert free_scale == pytest.approx(dense_scale, rel=1e-12)

    @pytest.mark.parametrize(
        "chain, m, n",
        [("random_chain_d2", 8, 4), ("random_chain_d3_boundary", 6, 3)],
        ids=["d2", "d3"],
    )
    def test_rewrite_difference_matches_window_squares(self, request, chain, m, n):
        model = request.getfixturevalue(chain).payload
        assert regrouped_difference_residual(model, m, n) <= 1e-12

    def test_rewrite_difference_catches_perturbed_table(self, monkeypatch, random_chain_d2):
        table = criteria.rewrite_table

        def perturb_one_entry(coeffs, period):
            W = table(coeffs, period)
            assert W[2, 5] != 0.0  # cyclic distance 3
            W[2, 5] *= 1.0 + 1e-9
            return W

        monkeypatch.setattr(criteria, "rewrite_table", perturb_one_entry)
        assert regrouped_difference_residual(random_chain_d2.payload, 8, 4) > 1e-12

    @pytest.mark.parametrize("n", range(3, 9))
    def test_rewrite_table_closed_form(self, n):
        # the dominating table (sum c^2 on the diagonal, sum c c' off it) minus
        # sum_l B_l^2 expanded pair by pair: window l puts c_a c_b on (l+a, l+b)
        coeffs = coeffs_1d(n, SQRT6)
        c = np.asarray(coeffs.c)
        period = 2 * n + 1
        squares = np.zeros((period, period))
        for l in range(period):
            for a, b in itertools.product(range(n - 1), repeat=2):
                squares[(l + a) % period, (l + b) % period] += c[a] * c[b]
        dominating = np.full((period, period), c[:-1] @ c[1:])
        np.fill_diagonal(dominating, c @ c)
        want = dominating - squares
        got = rewrite_table(coeffs, period)
        k = np.arange(period)
        delta = np.minimum(np.abs(k[:, None] - k), period - np.abs(k[:, None] - k))
        # exactly 0 at cyclic distance 0 and 1, q(1) - q(delta) beyond
        assert np.all(got[delta <= 1] == 0.0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * autocorr_1d(coeffs)[0])

    def test_matvec_applies_nonzero_terms_only(self, monkeypatch, random_chain_d2):
        # d=2 without boundary terms at m=8: 9 ring terms, of which the 7 bonds are nonzero
        ring = enlarged_ring(random_chain_d2.payload, 8)
        _, difference = rewrite_difference(ring, coeffs_1d(4, SQRT6))
        applied = []
        apply_term = LocalSum.apply_term

        def counting(self, t, v):
            applied.append(t)
            return apply_term(self, t, v)

        monkeypatch.setattr(LocalSum, "apply_term", counting)
        difference(np.ones(ring.dim))
        assert len(applied) == 2 * 7

    def test_rewrite_margin_window_bounds(self, random_chain_d2):
        coeffs = coeffs_1d(4, SQRT6)
        with pytest.raises(ValueError):
            rewrite_margin(random_chain_d2.payload, 6, coeffs)  # n > m/2

    def test_window_gap_margins(self, random_chain_d2):
        model = random_chain_d2.payload
        coeffs = coeffs_1d(4, SQRT6)
        profile = gap_profile(model, 4)
        windows = window_gap_margins(model, 8, coeffs, profile.bulk_list[2], profile.edge_min_at(3))
        assert len(windows) == 9
        regimes = [w["regime"] for w in windows]
        assert regimes == ["bulk"] * 5 + ["edge"] * 4
        assert all(w["margin"] >= -1e-9 * w["scale"] for w in windows)
        assert all(w["kappa"] > 0 for w in windows)


class TestSuite:
    def test_instance_plan_cycles(self):
        plan = standard_instance_plan(8)
        assert [p["d"] for p in plan] == [2, 2, 2, 3, 2, 2, 2, 3]
        assert [p["identity_m"] for p in plan[:3]] == [4, 5, 6]
        assert plan[3]["identity_m"] == 4
        assert all(p["rank_bulk"] == 1 and p["rank_boundary"] == 0 for p in plan if p["d"] == 2)
        assert all(p["rank_bulk"] == 2 and p["rank_boundary"] == 1 for p in plan if p["d"] == 3)

    def test_chain_instance_record(self, random_chain_d2):
        record = verify_chain_instance(random_chain_d2.payload, 4, SuiteConfig(), seed=1)
        for key in (
            "ff",
            "identity_residual",
            "interchange_residual",
            "rewrite_margin",
            "windows",
            "pass",
        ):
            assert key in record
        assert record["pass"]

    def test_ff_precondition_from_the_kernel_recursion(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the FF precondition computed a gap")

        monkeypatch.setattr(spectra, "spectral_gap", refuse)
        zero = LocalProjector.zero(1, 2)
        full_rank_bond = ChainModel(2, LocalProjector(2, 2, np.eye(4)), zero, zero)
        record = verify_chain_instance(full_rank_bond, 4, SuiteConfig())
        assert record == {"ff": False, "failure": "ff_precondition", "pass": False}

    def test_suite_deterministic(self):
        a = verify_inequality_suite(3, 2, SuiteConfig())
        b = verify_inequality_suite(3, 2, SuiteConfig())
        assert a == b
        assert a["pass"]
        assert a["schema_version"] == criteria.SCHEMA_VERSION
        assert len(a["instances"]) == 2
        assert a["suite"] == "1d"
