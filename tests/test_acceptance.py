"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here.  Monte Carlo criteria run on fixed seeds, so
a green run is reproducible; statistical bands (4 standard errors, 99%
confidence / binomial CIs, KS noise bands) are harness calibrations of
qualitative limit statements.
"""

import json
import math

import numpy as np

from lwf.experiments import (
    run_convergence,
    run_drift_oracle,
    run_duality,
    run_fixation,
    run_rps_lyapunov,
    run_successive_extinction,
)
from lwf.measures import (
    BetaLaw,
    FiniteAtoms,
    PointMass,
    UniformLaw,
    ZeroMeasure,
    collision_pairs,
    lambda_nk_quadrature,
)
from lwf.rng import RngStream
from lwf.rules import NeutralRule
from lwf.sde import zeta
from lwf.selection import DriftFunction


def _criterion(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_01_zeta_factorization():
    rng = RngStream(101).generator()
    worst = 0.0
    for K in (2, 3, 4, 5, 6):
        pts = rng.dirichlet(np.ones(K), size=10_000)
        # mix in near-boundary states with coordinates down at 1e-8
        pts[:K] = np.eye(K) * (1.0 - 1e-8 * (K - 1)) + 1e-8 * (1.0 - np.eye(K))
        Z = zeta(pts)
        outer = np.einsum("rij,rkj->rik", Z, Z)
        target = pts[:, :, None] * (np.eye(K) - pts[:, None, :])
        worst = max(worst, float(np.abs(outer - target).max()))
    _criterion(1, "zeta factorization", worst <= 1e-8, f"max entrywise error {worst:.3g} (tol 1e-8)")


def test_02_drift_oracle_suite():
    report = run_drift_oracle(points=25, samples=10**6, seed=102, threads=1)
    detail = "; ".join(f"{m.name.split(':')[1]}={m.value:.2f}" for m in report.metrics)
    _criterion(2, "drift oracle (4 SE, 25 points, 1e6 samples)", report.passed, detail)


def test_03_collision_integrals_closed_vs_quadrature():
    variants = [
        PointMass(0.5, 2.0),
        PointMass(1.0, 1.0),
        FiniteAtoms([(0.2, 0.3), (0.9, 0.7)]),
        UniformLaw(1.5),
        BetaLaw(2.0, 3.0, 1.0),
        BetaLaw(0.5, 0.5, 2.0),
        ZeroMeasure(),
    ]
    worst = 0.0
    for measure in variants:
        for n in range(2, 21):
            rates = measure.collision_rates(*collision_pairs(np.array([n])))
            for k in range(2, n + 1):
                closed = rates[k - 2] / math.comb(n, k)
                quad = lambda_nk_quadrature(measure, n, k)
                scale = max(abs(quad), 1e-15)
                worst = max(worst, abs(closed - quad) / scale)
    _criterion(3, "lambda_nk closed form vs quadrature (n <= 20)", worst <= 1e-9, f"max rel error {worst:.3g}")


def test_04_neutral_fixation():
    report = run_fixation(
        kappa=0.0,
        increments={1: 1.0},
        sigma=1.0,
        measure=ZeroMeasure(),
        x0=[0.2, 0.3, 0.5],
        dt=5e-4,
        tol_ext=0.0,
        max_time=200.0,
        replicates=4000,
        seed=104,
        threads=1,
    )
    vec = next(m for m in report.metrics if m.name == "fixation_vector")
    _criterion(
        4,
        "neutral fixation probabilities (99% binomial CI, all replicates fix)",
        report.passed,
        f"empirical {np.round(vec.value, 4).tolist()} vs (0.2, 0.3, 0.5)",
    )


def test_05a_transitive_dichotomy_transient():
    report = run_fixation(
        kappa=6.0,  # kappa* = 4 log 2 = 2.77 for the size-1/2 atom
        increments={1: 1.0},
        sigma=0.0,
        measure=PointMass(0.5, 1.0),
        x0=[0.5, 0.5, 0.0],
        dt=1e-3,
        tol_ext=1e-8,
        max_time=500.0,
        replicates=2000,
        seed=105,
        threads=1,
    )
    wins = next(m for m in report.metrics if m.name == "top_label_fixes")
    _criterion(
        5,
        "transitive dichotomy (a): top present label fixes",
        report.passed,
        f"type 2 fixed in {wins.value}/2000 replicates",
    )


def test_05b_transitive_dichotomy_recurrent():
    report = run_fixation(
        kappa=1.0,
        increments={1: 1.0},
        sigma=0.0,
        measure=PointMass(0.5, 1.0),
        x0=[0.2, 0.3, 0.5],
        dt=2e-3,
        tol_ext=1e-8,
        max_time=500.0,
        replicates=2000,
        stationary_time=2e5,
        seed=1055,
        threads=1,
    )
    vec = next(m for m in report.metrics if m.name == "fixation_vector")
    _criterion(
        5,
        "transitive dichotomy (b): pgf-increment prediction (4 combined SE)",
        report.passed,
        f"empirical {np.round(vec.value, 4).tolist()} vs predicted {np.round(vec.details['prediction'], 4).tolist()}",
    )


def test_06_moment_duality():
    neutral = run_duality(
        kappa=0.0,
        increments={1: 1.0},
        sigma=1.0,
        measure=ZeroMeasure(),
        xs=(0.3,),
        ts=(0.5,),
        n0s=(1, 2),
        dt=1e-3,
        replicates=20_000,
        seed=106,
        threads=1,
    )
    names = [m.name.split(":")[0] for m in neutral.metrics]
    assert "martingale" in names and "moment_ode" in names
    transitive = run_duality(
        kappa=0.5,
        increments={1: 1.0},
        sigma=1.0,
        measure=ZeroMeasure(),
        xs=(0.3, 0.7),
        ts=(0.5, 1.0),
        n0s=(1, 2, 3),
        dt=1e-3,
        replicates=20_000,
        seed=107,
        threads=1,
    )
    ok = neutral.passed and transitive.passed
    cells = len(neutral.metrics) + len(transitive.metrics)
    _criterion(6, "moment duality (martingale, moment ODE at 5%, 4 SE + truncation bound cells)", ok, f"{cells} cells")


def test_07_rps_lyapunov_dichotomy():
    noisy_diffusion = run_rps_lyapunov(
        kappa=1.0, sigma=0.5, measure=ZeroMeasure(), delta=0.05, T=2.0,
        dt=1e-3, replicates=2000, seed=108, threads=1,
    )
    noisy_jumps = run_rps_lyapunov(
        kappa=1.0, sigma=0.0, measure=PointMass(0.3, 1.0), delta=0.0, T=2.0,
        dt=1e-3, replicates=2000, seed=109, threads=1,
    )
    flat = run_rps_lyapunov(
        kappa=1.0, sigma=0.0, measure=ZeroMeasure(), delta=0.0, T=2.0,
        dt=1e-3, replicates=8, seed=110, threads=1,
    )
    ok = noisy_diffusion.passed and noisy_jumps.passed and flat.passed
    slopes = [noisy_diffusion.metrics[0].value, noisy_jumps.metrics[0].value, flat.metrics[0].value]
    _criterion(
        7,
        "cyclic-contest log-product trend (99% confidence / exact flat)",
        ok,
        f"slopes diffusion={slopes[0]:.3f}, jumps={slopes[1]:.3f}, none={slopes[2]:.1e}",
    )


def test_08_successive_extinctions():
    results = {}
    for label, drift in (("neutral", DriftFunction.neutral(3)), ("rps", DriftFunction.rps(1.0))):
        report = run_successive_extinction(
            drift=drift,
            sigma=1.0,
            x0=[0.2, 0.3, 0.5],
            dt=1e-4,
            tol_ext=1e-6,
            max_time=200.0,
            min_fraction=0.99,
            replicates=1000,
            seed=111,
            threads=1,
        )
        results[label] = report
    ok = all(r.passed for r in results.values())
    fracs = {k: next(m for m in r.metrics if m.name == "distinct_extinction_times").value for k, r in results.items()}
    _criterion(
        8,
        "successive (non-simultaneous) extinctions (>= 99% of replicates)",
        ok,
        f"distinct-time fractions {fracs}",
    )


def test_09_convergence_to_limit_process():
    report = run_convergence(
        rule=NeutralRule(2),
        drift=DriftFunction.neutral(2),
        measure=ZeroMeasure(),
        tail={2: 1.0},
        alpha=0.25,
        kappa=1.0,
        sigma=1.0,
        x0=[0.5, 0.5],
        T=0.5,
        N_grid=(200, 800, 3200),
        dt=1e-3,
        final_ks_threshold=0.06,
        replicates=2000,
        seed=112,
        threads=1,
    )
    ks = report.metrics[0].value
    _criterion(
        9,
        "rescaled-chain convergence (KS nonincreasing, final < 0.06)",
        report.passed,
        f"KS per N {np.round(np.array(ks)[:, 0], 4).tolist()}",
    )


def test_10_determinism_byte_for_byte():
    runs = {
        "drift-oracle": lambda threads: run_drift_oracle(points=2, samples=4000, seed=113, threads=threads),
        "convergence": lambda threads: run_convergence(
            rule=NeutralRule(2), drift=DriftFunction.neutral(2), measure=ZeroMeasure(), tail={2: 1.0},
            alpha=0.25, kappa=1.0, sigma=1.0, x0=[0.5, 0.5], T=0.1, N_grid=(50, 100), dt=5e-3, replicates=120,
            seed=113, threads=threads,
        ),
        "fixation": lambda threads: run_fixation(
            kappa=0.0, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), x0=[0.3, 0.7],
            dt=2e-3, replicates=120, seed=113, threads=threads,
        ),
        "duality": lambda threads: run_duality(
            kappa=0.5, increments={1: 1.0}, sigma=1.0, measure=ZeroMeasure(), xs=(0.3,), ts=(0.3,),
            n0s=(1,), dt=2e-3, replicates=600, seed=113, threads=threads,
        ),
        "rps-lyapunov": lambda threads: run_rps_lyapunov(
            kappa=1.0, sigma=0.4, measure=ZeroMeasure(), delta=0.05, T=0.5, dt=2e-3, replicates=600,
            seed=113, threads=threads,
        ),
        "successive-extinction": lambda threads: run_successive_extinction(
            drift=DriftFunction.neutral(3), sigma=1.0, x0=[0.3, 0.3, 0.4], dt=1e-3, replicates=120,
            seed=113, threads=threads,
        ),
    }
    bad = []
    for name, factory in runs.items():
        blobs = {
            json.dumps(factory(threads).to_dict(), sort_keys=True, indent=2)
            for threads in (1, 1, 3)
        }
        if len(blobs) != 1:
            bad.append(name)
    _criterion(
        10,
        "determinism: identical seeds reproduce reports byte-for-byte (threads 1 and 3)",
        not bad,
        f"experiments checked: {sorted(runs)}; mismatches: {bad or 'none'}",
    )
