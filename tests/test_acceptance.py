"""Acceptance suite: one test per shipping criterion.

Each test records a [PASS]/[FAIL] line through the ``acceptance`` fixture
(printed in the terminal summary) and then asserts, so a red criterion still
reports its measured numbers.
"""

import json

import numpy as np
import pytest
from numpy.polynomial import polynomial as nppoly
from scipy.integrate import simpson

from ergofilt import chains, filters, harness, markov

import exact_references
from ergofilt.cli import cli_main

CYCLE_LAM = chains.cycle_lambda_low(11)
GLAUBER_LAM = chains.glauber_lambda_low(chains.GlauberParams.uniform(4, 0.2, 1.0))


def _metadata_floats(path):
    comment = path.read_text().splitlines()[0]
    pairs = dict(part.split("=") for part in comment[2:].strip().split(", "))
    return float(pairs["lambda_low"]), float(pairs["pi_f"])


def test_criterion_01_cycle_frequency_bound(acceptance, tmp_path):
    lam = chains.cycle_lambda_low(11)
    deviation = abs(lam - 88.0 / 1200.0)
    out = tmp_path / "cycle.csv"
    code = cli_main(["cycle-walk", "--paper-defaults", "--k-max", "1", "--out", str(out)])
    printed, _ = _metadata_floats(out)
    rendered = f"{printed:.4f}"
    ok = deviation <= 1e-12 and code == 0 and rendered == "0.0733"
    acceptance(
        "01 cycle frequency bound",
        ok,
        f"lambda_low={lam:.10f} (|dev|={deviation:.2e}), CLI prints {rendered}",
    )
    assert deviation <= 1e-12
    assert code == 0
    assert rendered == "0.0733"


def test_criterion_02_glauber_frequency_bound(acceptance, tmp_path):
    lam = chains.glauber_lambda_low(chains.GlauberParams.uniform(4, 0.2, 1.0))
    deviation = abs(lam - (1.0 - np.tanh(0.4)) / 4.0)
    out = tmp_path / "glauber.csv"
    code = cli_main(["glauber", "--paper-defaults", "--k-max", "1", "--out", str(out)])
    printed, _ = _metadata_floats(out)
    rendered = f"{printed:.3f}"
    ok = deviation <= 1e-6 and code == 0 and rendered == "0.155"
    acceptance(
        "02 glauber frequency bound",
        ok,
        f"lambda_low={lam:.10f} (|dev|={deviation:.2e}), CLI prints {rendered}",
    )
    assert deviation <= 1e-6
    assert code == 0
    assert rendered == "0.155"


def test_criterion_03_degree20_error_ordering(acceptance):
    notes = []
    ok = True
    for experiment, p in (("cycle-walk", 11), ("glauber", 4)):
        config = harness.ExperimentConfig(
            experiment=experiment, p=p, k_max=20, use_reference_signal=True
        )
        results, _ = harness.run_experiment(config)
        first, last = (dict(zip(harness.FILTER_ORDER, row)) for row in results[[0, -1]])
        checks = (
            last["chebyshev"] < last["bernstein"],
            last["legendre"] < last["bernstein"],
            last["bernstein"] <= last["ergodic"],
            last["chebyshev"] < 1e-2 * first["chebyshev"],
            last["legendre"] < 1e-2 * first["legendre"],
        )
        ok = ok and all(checks)
        notes.append(
            f"{experiment}: erg={last['ergodic']:.3e} bern={last['bernstein']:.3e} "
            f"cheb={last['chebyshev']:.3e} leg={last['legendre']:.3e}"
        )
    acceptance("03 degree-20 error ordering", ok, "; ".join(notes))
    assert ok


def test_criterion_04_chebyshev_sup_norm_optimality(acceptance):
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    worst_margin = np.inf
    ok = True
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        grid = np.linspace(lam, 2.0, 10**4)
        for K in (3, 8, 15):
            sup = np.abs(filters.chebyshev_scalar(grid, K, lam)).max()
            target = 1.0 / np.cosh(K * np.arccosh((2.0 + lam) / (2.0 - lam)))
            worst_rel = max(worst_rel, abs(sup - target) / target)
            ok = ok and abs(sup - target) <= 1e-6 * target
            for _ in range(200):
                coeffs = rng.uniform(-1.0, 1.0, K + 1)
                while abs(coeffs[0]) < 1e-6:
                    coeffs = rng.uniform(-1.0, 1.0, K + 1)
                competitor = np.abs(nppoly.polyval(grid, coeffs / coeffs[0])).max()
                worst_margin = min(worst_margin, competitor - sup)
                ok = ok and competitor >= sup - 1e-9
    acceptance(
        "04 chebyshev sup-norm optimality",
        bool(ok),
        f"worst rel dev {worst_rel:.2e} vs 1e-6; closest competitor margin {worst_margin:.2e}",
    )
    assert ok


def test_criterion_05_legendre_squared_norm_optimality(acceptance):
    worst_rel = 0.0
    ok = True
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        grid = np.linspace(lam, 2.0, 10001)
        for K in (3, 8, 15):
            vals = filters.legendre_scalar(grid, K, lam)
            discretized = simpson(vals * vals, x=grid)
            oracle = exact_references.l2_optimal_oracle(K, lam)
            nodes, weights = exact_references.stopband_gauss(K + 1, lam)
            exact = weights @ filters.legendre_scalar(nodes, K, lam) ** 2
            rel_grid = abs(discretized - oracle.objective) / oracle.objective
            rel_sum = abs(oracle.objective - exact) / oracle.objective
            worst_rel = max(worst_rel, rel_grid, rel_sum)
            ok = ok and rel_grid <= 1e-6 and rel_sum <= 1e-6
    acceptance(
        "05 legendre squared-norm optimality",
        bool(ok),
        f"worst rel dev {worst_rel:.2e} vs 1e-6",
    )
    assert ok


def test_criterion_06_bernstein_approximation_bound(acceptance):
    worst_ratio = 0.0
    ok = True
    for lam in (CYCLE_LAM, GLAUBER_LAM):
        grid = np.linspace(0.0, 2.0, 10**4)
        target = filters.triangle(grid, lam)
        for K in (4, 25, 100, 400):
            err = np.abs(filters.bernstein_scalar(grid, K, lam) - target).max()
            bound = 1.5 * min(1.0, 2.0 / (np.sqrt(K) * lam))
            worst_ratio = max(worst_ratio, err / bound)
            ok = ok and err <= bound
    acceptance(
        "06 bernstein approximation bound",
        bool(ok),
        f"worst error/bound ratio {worst_ratio:.3f} (must stay <= 1)",
    )
    assert ok


def test_criterion_07_variation_identity(acceptance, cycle_chain, glauber_chain):
    rng = np.random.default_rng(107)
    worst = 0.0
    for chain in (cycle_chain, glauber_chain):
        laplacian = np.eye(chain.n) - exact_references.dense_transition(chain)
        for _ in range(100):
            f = rng.uniform(0.0, 10.0, chain.n)
            f = f / markov.pi_norm(f, chain)
            tv = markov.total_variation(f, chain)
            quad = np.sqrt(2.0 * markov.pi_inner(f, laplacian @ f, chain))
            worst = max(worst, abs(tv - quad))
    acceptance(
        "07 variation identity",
        worst <= 1e-10,
        f"max |TV - quadratic-form route| = {worst:.2e} over 200 unit-norm signals",
    )
    assert worst <= 1e-10


def test_criterion_08a_running_average_equivalence(acceptance, cycle_chain, glauber_chain):
    rng = np.random.default_rng(108)
    worst = 0.0
    for chain in (cycle_chain, glauber_chain):
        laplacian = np.eye(chain.n) - exact_references.dense_transition(chain)
        f = rng.uniform(0.0, 10.0, chain.n)
        for t in range(1, 16):
            direct = filters.ergodic_apply(chain, f, t)
            coeffs = exact_references.ergodic_laplacian_coeffs(t)
            acc = coeffs[0] * f
            power = f.copy()
            for a in coeffs[1:]:
                power = laplacian @ power
                acc = acc + a * power
            worst = max(worst, np.abs(direct - acc).max())
    acceptance(
        "08a running-average equivalence",
        worst <= 1e-9,
        f"max power-sum vs coefficient-form gap {worst:.2e} for t <= 15",
    )
    assert worst <= 1e-9


def test_criterion_08b_running_average_t500(acceptance, cycle_chain):
    # Mean ergodic theorem, exactly: avg_t f - pi(f) = L+ (I - P^t)(f - pi(f)) / t,
    # with L+ the inverse of L on pi-mean-zero signals. Once P^t has mixed, the
    # error is ||g||_inf / t for the Poisson solution g = L+ (f - pi(f)), so the
    # 1e-2 tolerance holds from t* = ceil(||g||_inf / 1e-2), not at t = 500.
    f = harness.CYCLE_REFERENCE_SIGNAL
    pi, transition = cycle_chain.pi, exact_references.dense_transition(cycle_chain)
    centred = f - pi @ f
    l_plus = np.linalg.pinv(np.eye(cycle_chain.n) - transition)

    def poisson(rhs):
        g = l_plus @ rhs
        return g - pi @ g

    def error_at(t):
        # the running average at horizon t is the ergodic filter of degree t - 1
        sweep = (("ergodic", filters._ergodic_steps, ()),)
        return filters._errors(cycle_chain, f, t - 1, sweep)[0][0, -1]

    t, tol = 500, 1e-2
    err = error_at(t)
    mixed = np.linalg.matrix_power(transition, t) @ centred
    predicted = np.abs(poisson(centred - mixed)).max() / t
    gap = abs(err - predicted) / predicted
    t_star = int(np.ceil(np.abs(poisson(centred)).max() / tol))
    err_star = error_at(t_star)
    ok = gap <= 1e-9 and err_star <= tol
    acceptance(
        "08b running-average t=500 error",
        ok,
        f"max |avg - mean| = {err:.6f} at t={t}, predicted {predicted:.6f} "
        f"(rel gap {gap:.1e}); {err_star:.7f} <= {tol:g} at t*={t_star}",
    )
    assert gap <= 1e-9
    assert err_star <= tol


def test_criterion_09_exact_projection(
    acceptance, cycle_chain, cycle_spec, glauber_chain, glauber_spec
):
    rng = np.random.default_rng(109)
    worst = 0.0
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        for _ in range(20):
            f = rng.uniform(0.0, 10.0, chain.n)
            out = filters.lagrange_exact_apply(spec, f)
            worst = max(worst, np.abs(out - markov.pi_expectation(f, chain)).max())
    acceptance(
        "09 exact projection",
        worst <= 1e-8,
        f"max deviation from stationary mean {worst:.2e} over 40 signals",
    )
    assert worst <= 1e-8


def test_criterion_10_spectral_diagonalization(
    acceptance, cycle_chain, cycle_spec, glauber_chain, glauber_spec
):
    rng = np.random.default_rng(110)
    worst = 0.0
    for chain, spec in ((cycle_chain, cycle_spec), (glauber_chain, glauber_spec)):
        f = rng.uniform(0.0, 10.0, chain.n)
        fhat = markov.gft(f, spec)
        lam = chain.lambda_low
        eigs = spec.eigenvalues
        for K in range(0, 21):
            pairs = (
                (filters.ergodic_apply(chain, f, K + 1), filters.ergodic_scalar(eigs, K + 1)),
                (filters.bernstein_apply(chain, f, K, lam), filters.bernstein_scalar(eigs, K, lam)),
                (filters.chebyshev_apply(chain, f, K, lam), filters.chebyshev_scalar(eigs, K, lam)),
                (filters.legendre_apply(chain, f, K, lam), filters.legendre_scalar(eigs, K, lam)),
            )
            for out, response in pairs:
                gap = np.abs(markov.gft(out, spec) - response * fhat).max()
                worst = max(worst, gap)
    acceptance(
        "10 spectral diagonalization",
        worst <= 1e-9,
        f"max transform-domain gap {worst:.2e} across 4 filters x 21 degrees x 2 chains",
    )
    assert worst <= 1e-9


def test_criterion_11_cli_determinism(acceptance, tmp_path):
    identical = True
    for experiment in ("cycle-walk", "glauber"):
        first = tmp_path / f"{experiment}-1.csv"
        second = tmp_path / f"{experiment}-2.csv"
        for path in (first, second):
            assert cli_main([experiment, "--paper-defaults", "--out", str(path)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    json_first = tmp_path / "cycle-1.json"
    json_second = tmp_path / "cycle-2.json"
    for path in (json_first, json_second):
        args = ["cycle-walk", "--paper-defaults", "--json", "--out", str(path)]
        assert cli_main(args) == 0
    identical = identical and json_first.read_bytes() == json_second.read_bytes()
    json.loads(json_first.read_text())
    acceptance(
        "11 CLI determinism",
        identical,
        "repeated runs byte-identical (cycle-walk CSV, glauber CSV, cycle-walk JSON)",
    )
    assert identical
