"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines live; the
whole suite is desk scale (largest dense eigensolves are 256 x 256).
"""

import numpy as np
import pytest

from symplitz import core, entropy, symbols, szego, toeplitz
from symplitz.errors import DegeneratePairError
from conftest import (ENTROPY, geometric_weights, mode_entropy_shannon, numerical_range_edge, quadratic_form, random_gmatrix,
                      random_pd, state_entropy, symbol_corpus)

GRID = symbols.GridSpec(4096)
PHI = symbols.scalar_symbol([2.0, 0.5])  # 2 + cos(theta)
FACT_TOL = 1e-8  # the williamson verb's default residual tolerance


def report(cid, ok, detail):
    print(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid}: {detail}"


@pytest.fixture(scope="module")
def phi_spectra():
    return szego.truncated_spectra(PHI, range(1, 65))


@pytest.fixture(scope="module")
def acceptance_corpus():
    return symbol_corpus()


@pytest.fixture(scope="module")
def pd_corpus_4_16():
    rng = np.random.default_rng(102)
    return [random_pd(rng, 2 * int(rng.integers(2, 9))) for _ in range(200)]


def test_01_determinant_oracle():
    rng = np.random.default_rng(101)
    mats = np.stack([random_pd(rng, 2, 0.2, 4.0) for _ in range(1000)])
    d = core.symplectic_eigenvalues(mats)[:, 0]
    oracle = np.sqrt(np.linalg.det(mats))
    worst = float(np.abs(d / oracle - 1.0).max())
    report(1, worst <= 1e-12, f"1000 random 2x2: worst relative error {worst:.3e} (tol 1e-12)")


def test_02_nonsymmetric_eig_oracle(pd_corpus_4_16):
    worst = 0.0
    for A in pd_corpus_4_16:
        d = core.symplectic_eigenvalues(A)
        ev = np.linalg.eigvals(core.symplectic_form(A.shape[0] // 2) @ A)
        oracle = np.sort(np.abs(ev.imag))[::2]
        worst = max(worst, float(np.abs(d - oracle).max()))
    report(2, worst <= 1e-10, f"200 random dims 4-16 vs |Im eig(JA)|: worst {worst:.3e} (tol 1e-10)")


def test_03_williamson_residuals(pd_corpus_4_16):
    cases = list(pd_corpus_4_16) + [
        random_gmatrix(3, [1.5, 1.5, 2.0], seed=31),
        random_gmatrix(3, [1.0, 1.0, 1.0], seed=32),
        random_gmatrix(4, [0.7, 0.7, 0.7, 0.7], seed=33),
        np.diag([1.0, 1.0, 3.0, 3.0]),
    ]
    worst_diag, worst_symp = 0.0, 0.0
    for A in cases:
        fact = core.williamson(A)
        worst_diag = max(worst_diag, fact.diag_residual / np.linalg.norm(A, 2))
        worst_symp = max(worst_symp, fact.symplectic_residual)
    ok = worst_diag <= 1e-8 and worst_symp <= 1e-8
    report(3, ok, f"residuals on {len(cases)} inputs: diag {worst_diag:.3e}, symplectic {worst_symp:.3e} (tol 1e-8)")


def test_04_classical_szego_reduction(phi_spectra):
    worst_spec = 0.0
    for n in range(1, 65):
        closed = np.sort(2.0 + np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
        worst_spec = max(worst_spec, float(np.abs(phi_spectra.spectra[n] - closed).max()))
    details = [f"closed-form spectra worst {worst_spec:.3e} (tol 1e-10)"]
    ok = worst_spec <= 1e-10
    for f, limit in ((szego.monomial(1), 2.0), (szego.monomial(2), 4.5)):
        gap8 = abs(szego.szego_average(phi_spectra.spectra[8], 8, f) - limit)
        gap64 = abs(szego.szego_average(phi_spectra.spectra[64], 64, f) - limit)
        # gap8 / 4 floored at 1e-12: for f = x both gaps are exactly zero in
        # theory and the comparison would be float noise against float noise
        decay_ok = gap64 <= max(gap8 / 4.0, 1e-12)
        ok = ok and gap64 <= 0.05 and decay_ok
        details.append(f"{f.name}: gap(64) {gap64:.3e} gap(8) {gap8:.3e}")
    report(4, ok, "; ".join(details))


def test_05_constant_symbol_exactness():
    A = random_gmatrix(2, [0.8, 2.5], seed=7)
    const = symbols.constant_symbol(A)
    traj = szego.truncated_spectra(const, range(1, 33))
    worst = 0.0
    curves = symbols.symplectic_curves(const, GRID)
    for f in (szego.monomial(1), szego.monomial(2), ENTROPY):
        integral = szego.symbol_integral(curves, f)
        for n in traj.ns:
            worst = max(worst, abs(szego.szego_average(traj.spectra[n], n, f) - integral))
    report(5, worst <= 1e-12, f"constant symbol, n <= 32, f in {{x, x^2, entropy}}: worst gap {worst:.3e} (tol 1e-12)")


def test_06_fixed_index_trajectories(phi_spectra):
    m_hat = symbols.symplectic_curves(PHI, GRID).min()
    details = []
    ok = True
    # first index: stated bound 2.5e-3 at n = 64
    d1 = [float(phi_spectra.spectra[n][0]) for n in range(1, 65)]
    mono1 = max(b - a for a, b in zip(d1, d1[1:]))
    gap1 = abs(d1[-1] - m_hat)
    ok = ok and gap1 <= 2.5e-3 and mono1 <= 1e-10
    details.append(f"d_1: |d_1(64) - m| = {gap1:.3e} (tol 2.5e-3), drift {mono1:.2e}")
    # second index: the same closed form gives |d_2(64) - m| = 2 - cos(2 pi / 65) - 1
    # which is 4.67e-3, so the value is pinned by its oracle and the convergence
    # bound is the oracle-calibrated 1e-2
    d2 = [float(phi_spectra.spectra[n][1]) for n in range(2, 65)]
    mono2 = max(b - a for a, b in zip(d2, d2[1:]))
    closed2 = 2.0 - np.cos(2.0 * np.pi / 65.0)
    pin2 = abs(d2[-1] - closed2)
    gap2 = abs(d2[-1] - m_hat)
    ok = ok and pin2 <= 1e-10 and gap2 <= 1e-2 and mono2 <= 1e-10
    details.append(f"d_2: closed-form pin {pin2:.3e} (tol 1e-10), |d_2(64) - m| = {gap2:.3e} (tol 1e-2), drift {mono2:.2e}")
    report(6, ok, "; ".join(details))


def test_07_symbol_lower_bound(acceptance_corpus):
    worst = np.inf
    for name, s in acceptance_corpus.items():
        m_hat = symbols.symplectic_curves(s, GRID).min()
        traj = szego.truncated_spectra(s, range(1, 65))
        margin = min(float(traj.spectra[n].min()) - m_hat for n in traj.ns)
        worst = min(worst, margin)
    report(7, worst >= -1e-8, f"corpus of {len(acceptance_corpus)}, every n <= 64: worst margin min d - m = {worst:.3e} (tol -1e-8)")


def test_08_counting_ratio(phi_spectra):
    ratio = szego.szego_average(phi_spectra.spectra[64], 64, szego.indicator((2.0, 3.0)))
    gap = abs(ratio - 0.5)  # analytic angular measure of {2 + cos >= 2} is 1/2
    report(8, gap <= 0.05, f"c_64([2,3])/64 = {ratio:.6f} vs analytic 1/2: gap {gap:.3e} (tol 0.05)")


def test_09_density():
    rep = szego.density_check(PHI, 64, 0.05, GRID)
    escape = rep.escape_ratios[64]
    ok = rep.coverage_distance <= 0.05 and escape <= 0.02
    report(9, ok, f"coverage {rep.coverage_distance:.4f} (tol 0.05), escape at 64 {escape:.4f} (tol 0.02)")


def test_10_gchain_desk_equivalence():
    margin = symbols.scalar_symbol([0.7, 0.05])  # bottom curve min 0.6
    violator = symbols.scalar_symbol([0.6, 0.1])  # bottom curve min 0.4
    m_first, _ = toeplitz.gchain_sweep(margin, 32, tol=1e-8)
    v_first, v_worst = toeplitz.gchain_sweep(violator, 32, tol=1e-6)
    ok = m_first is None and v_first is not None and v_first <= 32 and v_worst < -1e-6
    report(
        10,
        ok,
        f"margin symbol passes up to 32; violator first fails at n = {v_first} "
        f"with witness min eigenvalue {v_worst:.4f} < -1e-6",
    )


def test_11_entropy_rate():
    fam = symbols.ab_family(2.0 * np.eye(2), 0.5 * np.eye(2), geometric_weights(8), 8)
    rep = szego.convergence_report(fam, ENTROPY, [8, 16, 32, 64], symbols.symplectic_curves(fam, GRID))
    decreasing = all(a > b for a, b in zip(rep.gaps, rep.gaps[1:]))
    ok = rep.gaps[-1] <= 0.02 and decreasing
    A = random_gmatrix(2, [0.8, 2.5], seed=7)
    const_symbol = symbols.constant_symbol(A)
    const = szego.convergence_report(const_symbol, ENTROPY, [1, 4, 16], symbols.symplectic_curves(const_symbol, GRID))
    const_gap = max(abs(r - state_entropy(A)) for r in const.averages)
    ok = ok and const_gap <= 1e-12
    report(
        11,
        ok,
        f"geometric family |S(T_64)/64 - integral| = {rep.gaps[-1]:.3e} (tol 0.02), "
        f"gaps decreasing: {decreasing}; constant-symbol rate gap {const_gap:.3e} (tol 1e-12)",
    )


def test_12_entropy_identity():
    rng = np.random.default_rng(112)
    d = rng.uniform(0.5, 20.0, 1000)
    worst = float(np.abs(entropy.mode_entropy(d) - mode_entropy_shannon(d)).max())
    boundary_exact = entropy.mode_entropy(0.5) == 0.0
    ok = worst <= 1e-12 and boundary_exact
    report(12, ok, f"two entropy forms over d in [1/2, 20]: worst gap {worst:.3e} (tol 1e-12); f(1/2) == 0: {boundary_exact}")


def test_13_numerical_range_edge():
    rng = np.random.default_rng(113)
    worst_err, worst_viol = 0.0, 0.0
    for i in range(50):
        dim = int(rng.choice([4, 6, 8]))
        A = random_pd(rng, dim)
        d1 = float(core.symplectic_eigenvalues(A)[0])
        probe = numerical_range_edge(A)
        worst_err = max(worst_err, abs(probe.value - d1))
        pairs = np.random.default_rng(1000 + i).standard_normal((64, 2, dim))
        for u, v in pairs:
            try:
                worst_viol = max(worst_viol, d1 - core.symplectic_rayleigh(A, u, v))
            except DegeneratePairError:
                continue
    ok = worst_err <= 1e-12 and worst_viol <= 1e-9
    report(13, ok, f"50 random dims 4-8: worst |edge - d_1| = {worst_err:.3e} (tol 1e-12), worst random-pair undershoot {worst_viol:.3e} (tol 1e-9)")


def test_14_quadratic_form_identity():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 3))
        degree = int(rng.integers(0, 4))
        blocks = rng.standard_normal((degree + 1, 2 * k, 2 * k))
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        s = symbols.TrigMatrixPolynomial(blocks)
        m = int(rng.integers(1, 6))
        xs = rng.standard_normal((m, 2 * k))
        worst = max(worst, quadratic_form(s, xs, symbols.GridSpec(256))[2])
    report(14, worst <= 1e-10, f"100 random (symbol, sequence) pairs: worst gap {worst:.3e} (tol 1e-10)")


@pytest.mark.parametrize("spread", [1e4, 1e5])
def test_15_wide_spread(spread):
    # a valid G-matrix whose spectrum spans 4-5 decades; squaring the
    # spectrum (an eigensolve of -K^2) loses the pairing of the small d_j
    d_true = np.array([0.5, 1.0, spread])
    A = random_gmatrix(3, d_true, seed=15)
    d = core.symplectic_eigenvalues(A)
    fact = core.williamson(A)
    err = float(np.abs(d / d_true - 1.0).max())
    w_err = float(np.abs(fact.spectrum / d_true - 1.0).max())
    diag = fact.diag_residual / np.linalg.norm(A, 2)
    ok = err <= 1e-10 and w_err <= 1e-10 and diag <= FACT_TOL and fact.symplectic_residual <= FACT_TOL
    report(
        15,
        ok,
        f"spread {spread:.0e}: relative error {err:.3e}, Williamson {w_err:.3e} (tol 1e-10); "
        f"residuals diag {diag:.3e}, symplectic {fact.symplectic_residual:.3e} (tol 1e-8)",
    )
