"""End-to-end acceptance checks.

One test per release criterion.  Each prints a `[ACCEPTANCE] C<n> <name>:
PASS/FAIL` verdict on the real stdout (bypassing pytest capture) before
asserting, so a full run shows the per-criterion outcome inline even when
later assertions stop the test.

The corpus-scale checks (C9-C11) re-run the benchmark pipeline on 50-site
synthetic corpora and take a few minutes each; they carry the `slow`
marker but run in the default session.
"""

import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

import oracles
from rainfit.cli import main as cli_main
from rainfit.corpus import build_preset, simulate_corpus
from rainfit.egpd import (
    EgpdParams,
    conditional_pwms,
    egpd_cdf,
    egpd_quantile,
    egpd_simulate,
    fit_mle,
    fit_pwm,
)
from rainfit.evaluation import classify, log_ratio_metric, summarize
from rainfit.gamma_mixture import (
    GammaMixtureParams,
    fit_map,
    mixture_cdf,
    mixture_log_pdf,
    mixture_quantile,
    mixture_simulate,
)
from rainfit.numerics import RngState
from rainfit.pipeline import RunConfig, run_fits

SEVEN_P = (0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99)
EGPD_TRUTH = EgpdParams(kappa=2.0, sigma=5.0, xi=0.2)


def announce(capsys, code: str, name: str, ok: bool) -> None:
    with capsys.disabled():
        print(f"[ACCEPTANCE] {code} {name}: {'PASS' if ok else 'FAIL'}")


def recovery_error(fitted: EgpdParams, truth: EgpdParams, ps=SEVEN_P) -> float:
    return max(
        abs(math.log(float(egpd_quantile(p, fitted)) / float(egpd_quantile(p, truth))))
        for p in ps
    )


# --- C1: quantile/CDF roundtrip --------------------------------------------


def test_c01_egpd_roundtrip(capsys):
    ps = np.concatenate(([0.001], np.linspace(0.01, 0.99, 99), [0.999]))
    t0 = time.perf_counter()
    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        for sigma in (0.5, 5.0):
            for xi in (-0.2, 0.0, 0.3):
                params = EgpdParams(kappa=kappa, sigma=sigma, xi=xi)
                err = np.abs(egpd_cdf(egpd_quantile(ps, params), params) - ps)
                worst = max(worst, float(np.max(err)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    announce(capsys, "C1", "egpd-roundtrip", ok)
    assert worst <= 1e-9
    assert elapsed < 1.0


# --- C2: PWM closed form vs quadrature --------------------------------------


def test_c02_pwm_closed_form(capsys):
    nodes, weights = np.polynomial.legendre.leggauss(32)

    def quad_pwm(params: EgpdParams, j: int, panels: int = 96) -> float:
        # integral_0^1 Q(u) u^j du with u = 1 - (1-t)^4 concentrating nodes
        # at the u -> 1 endpoint, where Q blows up like (1-u)^{-xi}.
        total = 0.0
        for k in range(panels):
            a, b = k / panels, (k + 1) / panels
            t = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            u = 1.0 - (1.0 - t) ** 4
            du = 4.0 * (1.0 - t) ** 3
            u = np.clip(u, 1e-300, 1.0 - 2.0**-53)
            q = egpd_quantile(u, params)
            total += 0.5 * (b - a) * float(np.sum(weights * q * u**j * du))
        return total

    worst_rel = 0.0
    for kappa in (0.5, 1.0, 2.0):
        for sigma in (0.5, 5.0):
            for xi in (-0.2, 0.1, 0.5):
                params = EgpdParams(kappa=kappa, sigma=sigma, xi=xi)
                for j in (0, 1, 2):
                    ref = quad_pwm(params, j)
                    rel = abs(conditional_pwms(params, 0.0)[j] - ref) / abs(ref)
                    worst_rel = max(worst_rel, rel)

    worst_gp = 0.0
    for sigma in (0.5, 5.0):
        for xi in (-0.2, 0.1, 0.5):
            val = conditional_pwms(EgpdParams(kappa=1.0, sigma=sigma, xi=xi), 0.0)[0]
            worst_gp = max(worst_gp, abs(val - sigma / (1.0 - xi)))

    ok = worst_rel <= 1e-6 and worst_gp <= 1e-10
    announce(capsys, "C2", "pwm-closed-form", ok)
    assert worst_rel <= 1e-6
    assert worst_gp <= 1e-10


# --- C3/C4: parameter recovery ----------------------------------------------


def test_c03_mle_recovery(capsys):
    x = egpd_simulate(20000, EGPD_TRUTH, RngState(seed=7))
    t0 = time.perf_counter()
    fitted, diag = fit_mle(x, rng=RngState(seed=7).derive(1))
    elapsed = time.perf_counter() - t0
    worst = recovery_error(fitted, EGPD_TRUTH)
    ok = diag["converged"] and worst <= 0.02 and elapsed < 10.0
    announce(capsys, "C3", "mle-recovery", ok)
    assert diag["converged"]
    assert worst <= 0.02
    assert elapsed < 10.0


def test_c04_pwm_recovery(capsys):
    x = egpd_simulate(50000, EGPD_TRUTH, RngState(seed=3))
    fitted, diag = fit_pwm(x, rng=RngState(seed=3).derive(1))
    worst = recovery_error(fitted, EGPD_TRUTH)
    ok = diag["converged"] and worst <= 0.05
    announce(capsys, "C4", "pwm-recovery", ok)
    assert diag["converged"]
    assert worst <= 0.05


# --- C5: censoring correctness -----------------------------------------------


def test_c05_censoring_correctness(capsys):
    x = egpd_simulate(2000, EGPD_TRUTH, RngState(seed=20))
    plain, _ = fit_mle(x, rng=RngState(seed=20).derive(1))
    cens, _ = fit_mle(x, 0.5 * float(np.min(x)), rng=RngState(seed=20).derive(1))
    bitwise = (
        plain.kappa == cens.kappa
        and plain.sigma == cens.sigma
        and plain.xi == cens.xi
    )

    y = egpd_simulate(20000, EGPD_TRUTH, RngState(seed=13))
    y = np.round(y / 0.2) * 0.2
    y = y[y > 0.0]
    q99_true = float(egpd_quantile(0.99, EGPD_TRUTH))
    results = {}
    for name, fit in (("mle-c", fit_mle), ("pwm-c", fit_pwm)):
        fitted, diag = fit(y, 1.0, rng=RngState(seed=13).derive(1))
        d99 = abs(math.log(float(egpd_quantile(0.99, fitted)) / q99_true))
        results[name] = (diag["converged"], d99)

    ok = bitwise and all(c and d <= 0.05 for c, d in results.values())
    announce(capsys, "C5", "censoring-correctness", ok)
    assert bitwise
    for name, (converged, d99) in results.items():
        assert converged, name
        assert d99 <= 0.05, (name, d99)


# --- C6/C7: mixture recovery and normalization --------------------------------


@pytest.fixture(scope="module")
def k3_mixture_fit():
    truth = GammaMixtureParams(
        weights=(0.3, 0.5, 0.2), shapes=(0.5, 2.0, 8.0), scales=(0.5, 2.0, 5.0)
    )
    x = mixture_simulate(20000, truth, RngState(seed=7))
    t0 = time.perf_counter()
    fitted, diag = fit_map(x, 3, rng=RngState(seed=7).derive(1))
    elapsed = time.perf_counter() - t0
    return truth, fitted, diag, elapsed


def test_c06_mixture_recovery(capsys, k3_mixture_fit):
    truth, fitted, diag, elapsed = k3_mixture_fit
    worst = max(
        abs(math.log(mixture_quantile(p, fitted) / mixture_quantile(p, truth)))
        for p in SEVEN_P
    )
    ok = diag["converged"] and worst <= 0.05 and elapsed < 60.0
    announce(capsys, "C6", "mixture-recovery", ok)
    assert diag["converged"]
    assert worst <= 0.05
    assert elapsed < 60.0


def test_c07_mixture_normalization(capsys, k3_mixture_fit):
    _, k3_fitted, _, _ = k3_mixture_fit
    x = mixture_simulate(
        2000,
        GammaMixtureParams(weights=(1.0,), shapes=(2.0,), scales=(3.0,)),
        RngState(seed=10),
    )
    k2_fitted, k2_diag = fit_map(x, 2, rng=RngState(seed=10).derive(1))
    assert k2_diag["converged"]

    ps = (0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999)
    worst_mass = 0.0
    worst_rt = 0.0
    for params in (k3_fitted, k2_fitted):
        hi = mixture_quantile(1.0 - 1e-12, params) * 4.0
        mass, quad_err = integrate.quad(
            lambda y: math.exp(mixture_log_pdf(y, params)),
            0.0,
            hi,
            points=[a * b for a, b in zip(params.shapes, params.scales)],
            limit=400,
            epsabs=1e-11,
            epsrel=1e-11,
        )
        assert quad_err < 1e-9
        worst_mass = max(worst_mass, abs(mass - 1.0))
        rt = max(abs(mixture_cdf(mixture_quantile(p, params), params) - p) for p in ps)
        worst_rt = max(worst_rt, rt)

    ok = worst_mass <= 1e-6 and worst_rt <= 1e-8
    announce(capsys, "C7", "mixture-normalization", ok)
    assert worst_mass <= 1e-6
    assert worst_rt <= 1e-8


# --- C8: metric and classification ---------------------------------------------


def test_c08_metric_and_classes(capsys):
    identities = (
        log_ratio_metric(7.5, 7.5) == 0.0
        and log_ratio_metric(2.0 * math.e, 2.0) == 1.0
        and log_ratio_metric(1.0, 2.0) == math.log(0.5)
        and log_ratio_metric(2.0, 1.0) == math.log(2.0)
    )
    classes = (
        classify([-0.4, -0.3, -0.2, -0.1]) == "U"
        and classify([0.1, 0.2, 0.3, 0.4]) == "O"
        and classify([-0.2, -0.1, 0.1, 0.2]) == "N"
        and classify([0.0, 0.0, 0.0, 1.0]) == "N"
        and classify([-1.0, 0.0, 0.0, 0.0]) == "N"
    )
    ok = identities and classes
    announce(capsys, "C8", "metric-and-classes", ok)
    assert identities
    assert classes


# --- C9: pipeline determinism ----------------------------------------------------

BENCH_METHODS = "naveau-mle,naveau-pwm-c,gamma-mixture-2"
TABLE_CSVS = ("medians.csv", "classes.csv", "boxplots.csv")


@pytest.mark.slow
def test_c09_pipeline_determinism(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    rc = cli_main(
        ["simulate", "--preset", "paper-like-50", "--seed", "1", "--out", str(corpus)]
    )
    assert rc == 0
    outputs = {}
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}"
        rc = cli_main(
            [
                "benchmark",
                "--manifest",
                str(corpus / "manifest.json"),
                "--out",
                str(out),
                "--methods",
                BENCH_METHODS,
                "--jobs",
                jobs,
                "--egpd-restarts",
                "2",
                "--mixture-restarts",
                "2",
            ]
        )
        assert rc == 0
        outputs[jobs] = {name: (out / name).read_bytes() for name in TABLE_CSVS}
    ok = all(outputs["1"][name] == outputs["8"][name] for name in TABLE_CSVS)
    announce(capsys, "C9", "pipeline-determinism", ok)
    for name in TABLE_CSVS:
        assert outputs["1"][name] == outputs["8"][name], name


# --- C10/C11: corpus-level behavior ------------------------------------------------


@pytest.mark.slow
def test_c10_corpus_self_consistency(capsys):
    mix_sites = simulate_corpus(build_preset("mixture-50", 11))
    mix_config = RunConfig(
        methods=("gamma-mixture-3", "gamma-mixture-4"), mixture_restarts=2
    )
    mix_summary = summarize(run_fits(mix_sites, mix_config))

    egpd_sites = simulate_corpus(build_preset("egpd-50", 11))
    egpd_config = RunConfig(methods=("naveau-mle",), egpd_restarts=2)
    egpd_summary = summarize(run_fits(egpd_sites, egpd_config))

    gm3 = mix_summary.cells[("gamma-mixture-3", 0.5)]
    gm4 = mix_summary.cells[("gamma-mixture-4", 0.5)]
    mle = egpd_summary.cells[("naveau-mle", 0.5)]
    ok = (
        abs(gm3.median) <= 0.05
        and abs(gm4.median) <= 0.05
        and gm3.klass == "N"
        and gm4.klass == "N"
        and abs(mle.median) <= 0.05
    )
    announce(capsys, "C10", "corpus-self-consistency", ok)
    assert abs(gm3.median) <= 0.05 and gm3.klass == "N", gm3
    assert abs(gm4.median) <= 0.05 and gm4.klass == "N", gm4
    assert abs(mle.median) <= 0.05, mle


@pytest.mark.slow
def test_c11_discretization_bias(capsys):
    sites = simulate_corpus(build_preset("egpd-50-discretized", 11))
    config = RunConfig(egpd_restarts=2, mixture_restarts=2)
    summary = summarize(run_fits(sites, config))
    medians = {m: summary.cells[(m, 0.01)].median for m in summary.methods}
    ok = len(medians) == 7 and all(v < 0.0 for v in medians.values())
    announce(capsys, "C11", "discretization-bias", ok)
    assert len(medians) == 7
    for method, median in medians.items():
        assert median < 0.0, (method, median)


# --- C12: frozen fixtures reproduce their oracles -----------------------------------


def test_c12_frozen_oracles(capsys):
    recomputed = {}

    recomputed["REG_GAMMA_3_3"] = (
        -math.expm1(-3.0) - math.exp(-3.0) * (3.0 + 4.5),
        oracles.REG_GAMMA_3_3,
    )

    with mp.workdps(40):
        # median of the unit-scale shape-3 gamma via closed-form bisection
        f = lambda t: 1 - mp.e ** (-t) * (1 + t + t * t / 2) - mp.mpf(1) / 2
        lo, hi = mp.mpf(0), mp.mpf(20)
        for _ in range(200):
            mid = (lo + hi) / 2
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        recomputed["GAMMA3_MEDIAN"] = (float((lo + hi) / 2), oracles.GAMMA3_MEDIAN)

    def splitmix64(state: int) -> int:
        state = (state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
        return z ^ (z >> 31)

    recomputed["SPLITMIX64_OF_0"] = (splitmix64(0), oracles.SPLITMIX64_OF_0)

    raw = np.random.Generator(
        np.random.Philox(key=np.array([1, 0], dtype=np.uint64))
    ).random(4)
    recomputed["RNG_1_0_FIRST_UNIFORMS"] = (
        tuple(float(v) for v in np.clip(raw, 2.0**-53, 1.0 - 2.0**-53)),
        oracles.RNG_1_0_FIRST_UNIFORMS,
    )

    beta_2_34 = 1 / (Fraction(7, 4) * Fraction(3, 4))
    recomputed["PWM_K2_S1_XI025_J0"] = (
        float(4 * (2 * beta_2_34 - 1)),
        oracles.PWM_K2_S1_XI025_J0,
    )

    def harmonic(n: int) -> Fraction:
        return sum(Fraction(1, k) for k in range(1, n + 1))

    recomputed["PWM_K2_S1_XI0"] = (
        tuple(float(harmonic(2 * m) / m) for m in (1, 2, 3)),
        oracles.PWM_K2_S1_XI0,
    )

    with mp.workdps(40):
        kappa, sigma, xi = mp.mpf(2), mp.mpf(5), mp.mpf(1) / 5
        p_l = (1 - (1 + xi / sigma) ** (-1 / xi)) ** kappa
        quantile = lambda v: (sigma / xi) * ((1 - v ** (1 / kappa)) ** (-xi) - 1)
        cond = tuple(
            float(mp.quad(lambda t: quantile(p_l + (1 - p_l) * t) * t**j, [0, 1]))
            for j in (0, 1, 2)
        )
    recomputed["COND_PWMS"] = (cond, oracles.COND_PWMS_K2_S5_XI02_YL1)

    recomputed["P_L"] = (
        float((1 - Fraction(26, 25) ** -5) ** 2),
        oracles.P_L_K2_S5_XI02_YL1,
    )

    with mp.workdps(40):
        prior = mp.mpf("1.1") * mp.log(2) - mp.loggamma(mp.mpf("1.1")) - 2
    recomputed["PRIOR_TERM_A1_B1"] = (float(prior), oracles.PRIOR_TERM_A1_B1)

    recomputed["MIX_CDF_AT_1"] = (
        -0.5 * math.expm1(-1.0) - 0.5 * math.expm1(-1.0 / 3.0),
        oracles.MIX_CDF_AT_1,
    )
    recomputed["ASINH_8"] = (math.log(8.0 + math.sqrt(65.0)), oracles.ASINH_8)
    recomputed["KS_CONST_1PCT"] = (1.63, oracles.KS_CONST_1PCT)

    mismatches = {k: v for k, v in recomputed.items() if v[0] != v[1]}
    ok = not mismatches
    announce(capsys, "C12", "frozen-oracles", ok)
    assert not mismatches, mismatches
