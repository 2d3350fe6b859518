"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy experiment artifacts (the margin sweep, the high-dimensional attack
sweep, the univariate reconstruction and warm-up runs) are computed once per
session and shared, each by the package's sweep function on its config in
``configs/``.  Criteria and tolerances:

 1. margin sweep, d=100: mean test fraction at/above margin <= 0.10
 2. margin sweep, d=20: mean test fraction strictly below margin in [0.60, 0.95]
 3. margin sweep: mean train on-margin fraction at d=500 >= 0.85 and >= d=5
 4. known-margin attack at d=1000: mean AUC >= 0.99, mean accuracy >= 0.95
 5. reconstruction (n=6, k=64, 25 runs): >= 25% of candidates are training
    points (1e-3 match) in >= 80% of runs; <= 4 margin points per window
 6. warm-up (n=1, k=1): training point recovered to 1e-6 in 10/10 seeds
 7. dual estimation: residual < 1e-8 and dual error < 1e-6 on 20 exact
    constructions; residual < 1e-2 on the trained univariate runs
 8. every trained run with loss < 1/(2e) has margin > 1/e
 9. analytic gradient matches central differences to 1e-5 relative
10. scaling parameters by b multiplies outputs by b^2 to 1e-9 relative
11. sphere d=10000, n=30: n * delta / Delta < 0.5 in >= 95/100 seeds;
    a duplicated point drives the ratio to >= n
"""
import math
from pathlib import Path

import numpy as np
import pytest

import marginleak as ml
from marginleak.experiment import config_from_file
from kkt_constructions import construction_suite, parameter_vector, scaled, verify_stationarity
from train_reference import gradient

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def desk_config(name: str) -> ml.ExperimentConfig:
    return config_from_file(CONFIG_DIR / f"{name}_desk.toml")


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def margin_sweep():
    """configs/margin_desk.toml: width 1000, n=20, 1000 test points, 10 seeds,
    dims {5, 20, 100, 500}."""
    return ml.run_margin_experiment(desk_config("margin"))


@pytest.fixture(scope="session")
def attack_sweep():
    """configs/attack_desk.toml: margin cells at d=1000, k=256; each carries
    the known-margin attack on its 1000 test points."""
    return ml.run_margin_experiment(desk_config("attack"))


@pytest.fixture(scope="session")
def recon_runs():
    """configs/recon_desk.toml: 25 univariate runs at n=6, k=64 on two-cluster data."""
    return ml.run_reconstruction_sweep(desk_config("recon"))


@pytest.fixture(scope="session")
def warmup_runs():
    """configs/warmup_desk.toml: 10 single-point runs at k=1."""
    return ml.run_reconstruction_sweep(desk_config("warmup"))


def aggregate_for(result, dim):
    return next(a for a in result.aggregates if a.dim == dim)


def test_criterion_1_membership_separation_d100(margin_sweep):
    agg = aggregate_for(margin_sweep, 100)
    value = agg.frac_test_on_or_above_margin_mean
    report(1, agg.n_cells == len(desk_config("margin").seeds) and value <= 0.10,
           f"mean frac_test_on_or_above_margin at d=100 is {value:.4f} (need <= 0.10)")


def test_criterion_2_membership_separation_d20(margin_sweep):
    agg = aggregate_for(margin_sweep, 20)
    below = 1.0 - agg.frac_test_on_or_above_margin_mean
    report(2, agg.n_cells == len(desk_config("margin").seeds) and 0.60 <= below <= 0.95,
           f"mean fraction of test points below margin at d=20 is {below:.4f} "
           f"(need within [0.60, 0.95])")


def test_criterion_3_margin_fraction_trend(margin_sweep):
    high = aggregate_for(margin_sweep, 500).frac_train_on_margin_mean
    low = aggregate_for(margin_sweep, 5).frac_train_on_margin_mean
    report(3, high >= 0.85 and high >= low,
           f"mean frac_train_on_margin: d=500 {high:.4f} vs d=5 {low:.4f} "
           f"(need d=500 >= 0.85 and >= d=5)")


def test_criterion_4_attack_quality_d1000(attack_sweep):
    agg = aggregate_for(attack_sweep, 1000)
    report(4, agg.n_cells == len(desk_config("attack").seeds)
           and agg.auc_mean >= 0.99 and agg.accuracy_mean >= 0.95,
           f"known-margin attack at d=1000: AUC {agg.auc_mean:.4f} (need >= 0.99), "
           f"accuracy {agg.accuracy_mean:.4f} (need >= 0.95)")


def test_criterion_5_reconstruction_success_rate(recon_runs):
    successes = sum(r.matched_fraction >= 0.25 for r in recon_runs)
    window_ok = all(
        max(r.candidates.window_crossing_counts, default=0) <= 4 for r in recon_runs
    )
    rate = successes / len(recon_runs)
    report(5, rate >= 0.80 and window_ok,
           f"{successes}/{len(recon_runs)} runs matched >= 25% of candidates "
           f"(need >= 80%); per-window margin points <= 4: {window_ok}")


def test_criterion_6_warmup_recovery(warmup_runs):
    errors = [
        abs(r.candidates.points[0] - r.true_points[0]) for r in warmup_runs
    ]
    hits = sum(e <= 1e-6 for e in errors)
    report(6, hits == len(warmup_runs),
           f"{hits}/{len(warmup_runs)} single-point runs recovered to 1e-6 "
           f"(worst error {max(errors):.2e})")


def test_criterion_7_dual_estimation(recon_runs, warmup_runs):
    worst_residual = 0.0
    worst_lambda = 0.0
    for net, data, lam, _ in construction_suite(20, seed=3):
        assert verify_stationarity(net, data, lam) < 1e-12
        rep = ml.estimate_lambdas(net, data)
        worst_residual = max(worst_residual, rep.stationarity_residual)
        worst_lambda = max(worst_lambda, float(np.max(np.abs(rep.lambdas - lam))))
    trained_worst = max(r.kkt_residual for r in recon_runs + warmup_runs)
    report(7, worst_residual < 1e-8 and worst_lambda < 1e-6 and trained_worst < 1e-2,
           f"constructed: residual {worst_residual:.2e} (< 1e-8), dual error "
           f"{worst_lambda:.2e} (< 1e-6); trained univariate runs: worst "
           f"residual {trained_worst:.2e} (< 1e-2)")


def test_criterion_8_margin_lower_bound(margin_sweep, attack_sweep, recon_runs):
    threshold = 1.0 / (2.0 * math.e)
    floor = 1.0 / math.e
    checked = 0
    ok = True
    for rec in margin_sweep.records + attack_sweep.records:
        if not rec.diverged and rec.final_loss < threshold:
            checked += 1
            ok = ok and rec.margin > floor
    for r in recon_runs:
        if r.final_loss < threshold:
            checked += 1
            ok = ok and r.margin > floor
    report(8, ok and checked > 0,
           f"{checked} trained runs reached loss < 1/(2e); all margins > 1/e: {ok}")


def test_criterion_9_gradient_check():
    from test_training import finite_difference_gradient

    rng = np.random.default_rng(2024)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 20:
        attempts += 1
        assert attempts < 500
        d, k, n = (int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(2, 7)))
        w = rng.normal(0, 0.8, (k, d))
        b = rng.normal(0, 0.8, k)
        v = rng.normal(0, 0.8, k)
        xs = rng.normal(size=(n, d))
        if np.min(np.abs(xs @ w.T + b)) < 1e-2:
            continue
        net = ml.NetworkParams(w, b, v)
        data = ml.LabeledDataset(xs, rng.choice([-1.0, 1.0], n))
        kind = ("exponential", "logistic")[checked % 2]
        analytic = parameter_vector(gradient(net, data, kind))
        fd = finite_difference_gradient(net, data, kind)
        scale = np.maximum(np.abs(fd), 1e-4)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
        checked += 1
    report(9, worst < 1e-5,
           f"worst relative gradient deviation over 20 kink-free instances: {worst:.2e}")


def test_criterion_10_homogeneity():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, 8))
        net = ml.NetworkParams(
            rng.normal(size=(k, d)), rng.normal(size=k), rng.normal(size=k)
        )
        x = rng.normal(size=(1, d))
        base = ml.forward_batch(net, x)[0]
        for factor in (0.5, 2.0, 10.0):
            out = ml.forward_batch(scaled(net, factor), x)[0]
            want = factor**2 * base
            worst = max(worst, abs(out - want) / max(1e-12, abs(want)))
    report(10, worst < 1e-9,
           f"worst relative homogeneity deviation over 100 networks: {worst:.2e}")


def test_criterion_11_assumption_checker():
    hits = 0
    for seed in range(100):
        batch = ml.sample(ml.DistributionSpec("uniform-sphere", 10_000, rng_seed=seed), 30)
        if ml.check_assumption(batch.points).ratio < 0.5:
            hits += 1
    x = np.array([2.0, -1.0, 0.5])
    duplicated = np.vstack([x, x, np.array([0.3, 0.3, 0.1])])
    dup_ratio = ml.check_assumption(duplicated).ratio
    report(11, hits >= 95 and dup_ratio >= duplicated.shape[0],
           f"sphere ratio < 0.5 in {hits}/100 seeds (need >= 95); duplicated-point "
           f"ratio {dup_ratio:.2f} >= n={duplicated.shape[0]}")
