"""Release checklist: one verdict per verifiable end-to-end claim.

Each test in this module asserts exactly one checklist item, with its
tolerance and size budget pinned inline, against an oracle that does not
share code with the implementation under test (closed forms vs. brute-force
enumeration, exact diagonalization vs. certified bounds, combinatorial
product-structure arguments vs. assembled operators).

Two checks document known findings rather than implementation defects: the
exact 1D threshold is still ~2.4% below its large-n asymptote at n = 10^4
(test_criterion_02b), and boundary-clipped collar patches at even-even
rotated centers are genuinely not rhomboid translates (test_criterion_11).
Both assertions state the intended property literally and their failure
messages carry the measured counterexamples.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

from ffgap.coarse_grain import effective_1d, group_1d
from ffgap.coefficients import (
    autocorr_1d,
    coeffs_1d,
    coeffs_2d,
    optimal_x,
    sigma_bruteforce,
    threshold_1d,
    threshold_2d,
    weight_bruteforce,
    weight_table,
)
from ffgap.criteria import (
    certify_2d,
    certify_thm1,
    certify_thm2,
    chiral_exclusion,
    prop2d_margin,
)
from ffgap.lattice import (
    box_region,
    collar_centers,
    patch,
    plaquette_ball,
    plaquette_corner_boxes,
    plaquette_set,
    rhomboid_sites,
    to_rotated,
)
from ffgap.operators import chain_hamiltonian, region_hamiltonian
from ffgap.spectra import gap_profile, psd_margin, region_gap, spectral_gap


@pytest.fixture(scope="module")
def aklt_profile(aklt_spec):
    """Bulk/edge gap profile of the AKLT chain up to 10 sites (dim <= 3^10)."""
    return gap_profile(aklt_spec.payload, 10)


@pytest.fixture(scope="module")
def singlet_profile(singlet_spec):
    """Gap profile of the gapless singlet-projector chain up to 10 sites."""
    return gap_profile(singlet_spec.payload, 10)


# ---------------------------------------------------------------------------
# 1D thresholds and coefficients
# ---------------------------------------------------------------------------

ROUNDED_THRESHOLDS = {
    4: 0.3246,
    5: 0.2361,
    6: 0.1833,
    7: 0.1484,
    8: 0.1238,
    9: 0.1056,
}


def test_criterion_01_threshold_table():
    """Exact G(n) for n = 4..9 reproduces the frozen table after 4-decimal round-up."""
    got = {
        n: math.ceil(threshold_1d(n, "exact") * 1e4) / 1e4 for n in ROUNDED_THRESHOLDS
    }
    assert got == ROUNDED_THRESHOLDS


def test_criterion_02a_threshold_bounds():
    """G(n) stays strictly below min{1/(n-1), 2*sqrt(6)*n^(-3/2)} for 4 <= n <= 200."""
    for n in range(4, 201):
        g = threshold_1d(n, "exact")
        assert g < 1.0 / (n - 1), n
        assert g < 2.0 * math.sqrt(6.0) * n**-1.5, n


def test_criterion_02b_asymptotic_ratio():
    """G(10^4) sits within 1% of its asymptote 2*sqrt(6)*n^(-3/2)."""
    ratio = threshold_1d(10**4, "exact") / (2.0 * math.sqrt(6.0) * 1e-6)
    assert 0.99 <= ratio <= 1.01, (
        f"G(10^4) / (2*sqrt(6)*10^-6) = {ratio:.15f}: the exact threshold approaches "
        f"its asymptote from below like 1 - sqrt(6/n) and is still ~2.4% away at "
        f"n = 10^4 (the ratio first enters the 1% window near n = 6*10^4)"
    )


def test_criterion_05_autocorrelation_non_increasing():
    """Coefficient autocorrelation q(k) never increases in the lag, n <= 200."""
    for n in range(3, 201):
        xs = [math.sqrt(6.0)] + ([optimal_x(n)[0]] if n >= 4 else [])
        for x in xs:
            q = autocorr_1d(coeffs_1d(n, x))
            assert len(q) == n - 1
            for k in range(len(q) - 1):
                assert q[k] >= q[k + 1], (n, x, k)


# ---------------------------------------------------------------------------
# operator identities and inequality margins (shared 20-instance suite)
# ---------------------------------------------------------------------------


def test_criterion_03_square_identity_on_random_chains(suite_report):
    """H^2 = H + Q + F holds to 1e-12 relative on all 20 random FF chains."""
    records = suite_report["instances"]
    assert len(records) == 20
    assert suite_report["config"]["identity_rtol"] == 1e-12
    assert {r["d"] for r in records} == {2, 3}
    assert {r["identity_m"] for r in records if r["d"] == 2} == {4, 5, 6, 7, 8}
    assert {r["identity_m"] for r in records if r["d"] == 3} == {4, 5, 6}
    failing = [
        (r["name"], r["identity_residual"], r["interchange_residual"])
        for r in records
        if not (r["identity_pass"] and r["interchange_pass"])
    ]
    assert not failing, f"identity residual above tolerance: {failing}"


def test_criterion_04_rewrite_and_window_margins(suite_report):
    """Rewrite and per-window PSD margins stay above -1e-9*scale on all instances."""
    assert suite_report["config"]["n"] == 4
    assert suite_report["config"]["margin_m"] == 8
    assert suite_report["config"]["margin_rtol"] == 1e-9
    for record in suite_report["instances"]:
        assert record["rewrite_margin"] >= -1e-9 * record["rewrite_scale"], record["name"]
        for window in record["windows"]:
            assert window["margin"] >= -1e-9 * window["scale"], (record["name"], window)
    assert suite_report["pass"]


# ---------------------------------------------------------------------------
# certification on reference chains
# ---------------------------------------------------------------------------


def test_criterion_06_gapless_chain_never_certifies(singlet_spec, singlet_profile):
    """The singlet chain matches its one-magnon gaps and stays inconclusive."""
    for m in range(2, 11):
        expected = 1.0 - math.cos(math.pi / m)
        assert singlet_profile.bulk_list[m - 2] == pytest.approx(expected, abs=1e-8)
    for n in range(4, 11):
        weak = certify_thm1(singlet_profile, n)
        strong = certify_thm2(singlet_profile, n)
        assert weak.verdict == "inconclusive", (n, weak.local_gap, weak.threshold)
        assert strong.verdict == "inconclusive", (n, strong.local_gap, strong.threshold)


def test_criterion_07_aklt_chain_certifies(aklt_profile):
    """Some size n <= 10 certifies the AKLT chain with a strictly positive bound."""
    certificates = {n: certify_thm1(aklt_profile, n) for n in range(4, 11)}
    certified = {
        n: c for n, c in certificates.items() if c.verdict == "certified_gapped"
    }
    assert certified, {
        n: (c.local_gap, c.threshold) for n, c in certificates.items()
    }
    assert all(c.bound > 0 for c in certified.values())


# ---------------------------------------------------------------------------
# coarse-graining
# ---------------------------------------------------------------------------


def test_criterion_08_strip_coarse_graining(random_cells_2d):
    """Strip grouping of five random cells: reconstruction, kernel, sandwich, gap."""
    for spec in random_cells_2d:
        cell = spec.payload
        eff = effective_1d(cell, m2=2, R=1)
        for m1 in (3, 4):
            dense = region_hamiltonian(cell, box_region(m1, 2))
            blocks = group_1d(cell, m1, 2, 1)
            total = blocks[0]
            for block in blocks[1:]:
                total = total + block
            diff = total - dense
            assert diff.nnz == 0 or np.abs(diff.data).max() <= 1e-13, spec.name

            coarse_ham = chain_hamiltonian(eff.chain_model(), m1)
            original = spectral_gap(dense)
            coarse = spectral_gap(coarse_ham)
            assert original.kernel_dim == coarse.kernel_dim, (spec.name, m1)

            H = dense.toarray()
            Heff = coarse_ham.toarray()
            scale = float(np.linalg.eigvalsh(H)[-1])
            assert psd_margin(H - eff.C1 * Heff) >= -1e-9 * scale, (spec.name, m1)
            assert psd_margin(eff.C2 * Heff - H) >= -1e-9 * scale, (spec.name, m1)
            assert eff.C1 * coarse.gap <= original.gap + 1e-9 * scale, (spec.name, m1)
            assert original.gap <= eff.C2 * coarse.gap + 1e-9 * scale, (spec.name, m1)


# ---------------------------------------------------------------------------
# 2D weights and geometry
# ---------------------------------------------------------------------------


def test_criterion_09_weights_match_bruteforce():
    """Closed-form weights equal enumeration; no pair weight exceeds the edge weight."""
    anchor = (1, 1)
    for n in (2, 4, 6, 8):
        c = coeffs_2d(n)
        table = weight_table(n, c)
        assert table.W_edge == table.W_corner
        assert weight_bruteforce(n, c, anchor, anchor) == pytest.approx(
            table.W_self, rel=1e-9
        )
        assert weight_bruteforce(n, c, anchor, (3, 1)) == pytest.approx(
            table.W_edge, rel=1e-9
        )
        assert weight_bruteforce(n, c, anchor, (3, 3)) == pytest.approx(
            table.W_corner, rel=1e-9
        )
        ceiling = table.W_edge * (1.0 + 1e-12)
        for p1, p2 in itertools.combinations(plaquette_ball(anchor, n), 2):
            assert weight_bruteforce(n, c, p1, p2) <= ceiling, (n, p1, p2)
    for n in range(2, 13, 2):
        c = coeffs_2d(n)
        assert sigma_bruteforce(n, c) == pytest.approx(
            weight_table(n, c).sigma, rel=1e-12
        )


def test_criterion_10_plaquette_rewrite_margin(random_cells_2d):
    """2D rewrite inequality margin stays above -1e-9*scale on three random cells."""
    for spec in random_cells_2d[:3]:
        result = prop2d_margin(spec.payload)
        assert result["margin"] >= -1e-9 * result["scale"], (spec.name, result)
        assert result["pass"], (spec.name, result)


def test_criterion_11_collar_patches_are_rhomboid_translates():
    """Every collar patch (m <= 6, n in {2, 4}) is a translate of a rhomboid."""
    failures = []
    total = 0
    for m in range(1, 7):
        ambient = plaquette_set(m, m)
        for n in (2, 4):
            for center in collar_centers(ambient, n):
                total += 1
                clipped = patch(n, center, ambient)
                if clipped.shape is None:
                    s, t = to_rotated(center)
                    failures.append((m, n, center, (s % 2, t % 2), len(clipped)))
    assert not failures, (
        f"{len(failures)} of {total} collar patches are not rhomboid translates; "
        f"every failing center has even-even rotated coordinates and a boundary-"
        f"clipped ball whose member set has an odd rotated side length, which no "
        f"rhomboid translate can match (first example (m, n, center, parity, "
        f"members): {failures[0]})"
    )


# ---------------------------------------------------------------------------
# 2D certification end to end
# ---------------------------------------------------------------------------


def test_criterion_12_end_to_end_2d_certificate(commuting_cell_spec):
    """certify_2d yields a finite, fully populated certificate, sound vs. direct gaps."""
    cell = commuting_cell_spec.payload
    ((shape, projector),) = cell.terms
    assert len(shape.offsets) == 1
    eigenvalues = np.linalg.eigvalsh(projector.matrix)
    positive = eigenvalues[eigenvalues > 1e-12]
    # A single one-site term makes every region Hamiltonian a direct sum of
    # commuting site terms: its spectrum is the set of subset sums of the
    # positive site eigenvalues, so the gap of any region -- including the
    # (4, 4) rhomboid, far beyond diagonalization -- is the smallest positive
    # site eigenvalue.
    gamma_direct = float(positive.min())
    assert gamma_direct == pytest.approx(1.0, abs=1e-12)

    gaps = {}
    for l1 in (1, 2):
        for l2 in (1, 2):
            region, _ = rhomboid_sites(l1, l2, 1)
            gaps[(l1, l2)] = region_gap(cell, region).gap
    # honest diagonalization cross-check of the product-structure argument
    assert gaps[(2, 2)] == pytest.approx(gamma_direct, abs=1e-9)

    certificate = certify_2d(cell, 1, 2, gaps)
    assert certificate.criterion == "two_d"
    assert certificate.verdict in {"certified_gapped", "inconclusive"}
    for value in (
        certificate.local_gap,
        certificate.threshold,
        certificate.prefactor,
        certificate.bound,
    ):
        assert math.isfinite(value)
    expected_keys = {
        "C1_2d",
        "C2_2d",
        "C1",
        "C2",
        "g_2d",
        "alpha",
        "sigma",
        "c_mid",
        "metaspin_dim",
    }
    assert expected_keys <= set(certificate.constants)
    assert all(math.isfinite(v) for v in certificate.constants.values())
    assert len(certificate.provenance) == 4
    assert certificate.bound == pytest.approx(
        certificate.prefactor * (certificate.local_gap - certificate.threshold)
    )
    if certificate.bound > 0:
        assert certificate.bound <= gamma_direct + 1e-12

    # the direct gap really is attainable: some box of the (4, 4) rhomboid sits
    # on exactly one plaquette, so one flipped box costs exactly one violation
    memberships = Counter(
        box
        for p in plaquette_set(4, 4, 1).plaquettes
        for box in plaquette_corner_boxes(p, 1)
    )
    assert min(memberships.values()) == 1


def test_criterion_13_2d_threshold_scaling(record_property):
    """G_2d(n)*n^(3/2) is bounded, increasing, and slowing; both routes agree."""
    sizes = [4, 8, 16, 32, 64, 128, 256]
    scaled = []
    for n in sizes:
        direct, telescoped = threshold_2d(n, with_routes=True)
        assert abs(direct - telescoped) <= 1e-12 * direct, n
        scaled.append(direct * n**1.5)
    assert all(a < b for a, b in zip(scaled, scaled[1:])), scaled
    assert all(value < 36.0 for value in scaled), scaled
    steps = [b - a for a, b in zip(scaled, scaled[1:])]
    assert steps[-1] < steps[-2], steps
    record_property("scaled_threshold_at_n256", scaled[-1])


# ---------------------------------------------------------------------------
# chiral-exclusion arithmetic
# ---------------------------------------------------------------------------


def _scan_first_window_size(C: float, R: int, C2: float) -> int:
    """Least n with 1/(C*R*n) > C2*n^(-3/2), by exact upward integer scan.

    Squaring gives n > (C*R*C2)^2; with grid values that are multiples of 1/2
    the comparison 64*n > (8*C*R*C2)^2 is exact integer arithmetic.
    """
    a = round(8 * C * R * C2)
    target = a * a
    n = 1
    while 64 * n <= target:
        n += 1
    return n


def test_criterion_14_chiral_exclusion_grid():
    """chiral_exclusion matches a direct scan on a 100-triple parameter grid."""
    grid = [
        (C, R, C2)
        for C in (1.5, 2.0, 5.0, 10.0, 20.0)
        for R in (1, 2, 3, 5)
        for C2 in (0.5, 1.0, 2.0, 4.0, 8.0)
    ]
    assert len(grid) == 100
    for C, R, C2 in grid:
        n0, _ = chiral_exclusion(C, R, C2)
        assert n0 == _scan_first_window_size(C, R, C2), (C, R, C2, n0)
