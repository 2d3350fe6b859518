"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy experiment artifacts (the margin sweep, the high-dimensional attack
runs, the univariate reconstruction runs) are computed once per session and
shared.  Criteria and tolerances:

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
from dataclasses import replace

import numpy as np
import pytest

import marginleak as ml
from marginleak.experiment import _cell_seeds, _sample_labeled
from kkt_constructions import construction_suite, parameter_vector, verify_stationarity

MARGIN_DIMS = (5, 20, 100, 500)
MARGIN_SEEDS = tuple(range(10))
ATTACK_SEEDS = tuple(range(10))
RECON_SEEDS = tuple(range(25))
WARMUP_SEEDS = tuple(range(10))


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="session")
def margin_sweep():
    """Width 1000, n=20, 1000 test points, 10 seeds, dims {5, 20, 100, 500}."""
    train = ml.TrainConfig(
        width=1000,
        loss_kind="exponential",
        init_scale=1e-2,
        learning_rate=1e-2,
        lr_growth=1.02,
        max_steps=2500,
        loss_target=1e-8,
        kkt_residual_target=5e-3,
        checkpoint_every=100,
    )
    cfg = ml.ExperimentConfig(
        dims=MARGIN_DIMS, seeds=MARGIN_SEEDS, train=train, n_train=20, n_test=1000
    )
    return ml.run_margin_experiment(cfg)


@pytest.fixture(scope="session")
def attack_runs():
    """Trained d=1000 runs plus the known-margin evaluation on fresh points."""
    train = ml.TrainConfig(
        width=256,
        loss_kind="exponential",
        init_scale=1e-4,
        learning_rate=1e-2,
        lr_growth=1.02,
        max_steps=2500,
        loss_target=1e-8,
        kkt_residual_target=5e-3,
        checkpoint_every=100,
    )
    runs = []
    for seed in ATTACK_SEEDS:
        data_seed, test_seed, init_seed = _cell_seeds(seed)
        data = _sample_labeled(1000, 20, 1.0, data_seed)
        fresh = ml.sample(ml.two_gaussian_mixture(1000, rng_seed=test_seed), 1000).points
        net, trace = ml.train(data, replace(train, rng_seed=init_seed))
        m, _ = ml.margin(net, data)
        evaluation = ml.evaluate_attack(net, data.points, fresh, "known-margin", margin=m)
        runs.append((net, data, trace, m, evaluation))
    return runs


@pytest.fixture(scope="session")
def recon_runs():
    """25 univariate runs at n=6, k=64 on two-cluster data."""
    train = ml.TrainConfig(
        width=64,
        loss_kind="exponential",
        init_scale=1e-4,
        learning_rate=5e-2,
        lr_growth=1.02,
        max_steps=30_000,
        loss_target=1e-9,
        kkt_residual_target=1e-3,
        checkpoint_every=2000,
    )
    cfg = ml.ExperimentConfig(
        dims=(1,),
        seeds=RECON_SEEDS,
        train=train,
        n_train=6,
        n_test=10,
        recon_data_scheme="two-clusters",
        recon_require_convergence=True,
    )
    return [ml.run_reconstruction_pipeline(cfg, seed) for seed in RECON_SEEDS]


@pytest.fixture(scope="session")
def warmup_runs():
    train = ml.TrainConfig(
        width=1,
        loss_kind="exponential",
        init_scale=1e-4,
        learning_rate=5e-2,
        lr_growth=1.02,
        max_steps=6000,
        loss_target=1e-9,
        kkt_residual_target=1e-6,
        checkpoint_every=200,
    )
    cfg = ml.ExperimentConfig(
        dims=(1,), seeds=WARMUP_SEEDS, train=train, n_train=1, n_test=5
    )
    return [ml.run_reconstruction_pipeline(cfg, seed) for seed in WARMUP_SEEDS]


def aggregate_for(result, dim):
    return next(a for a in result.aggregates if a.dim == dim)


def test_criterion_1_membership_separation_d100(margin_sweep):
    agg = aggregate_for(margin_sweep, 100)
    value = agg.frac_test_on_or_above_margin_mean
    report(1, agg.n_cells == len(MARGIN_SEEDS) and value <= 0.10,
           f"mean frac_test_on_or_above_margin at d=100 is {value:.4f} (need <= 0.10)")


def test_criterion_2_membership_separation_d20(margin_sweep):
    agg = aggregate_for(margin_sweep, 20)
    below = 1.0 - agg.frac_test_on_or_above_margin_mean
    report(2, agg.n_cells == len(MARGIN_SEEDS) and 0.60 <= below <= 0.95,
           f"mean fraction of test points below margin at d=20 is {below:.4f} "
           f"(need within [0.60, 0.95])")


def test_criterion_3_margin_fraction_trend(margin_sweep):
    high = aggregate_for(margin_sweep, 500).frac_train_on_margin_mean
    low = aggregate_for(margin_sweep, 5).frac_train_on_margin_mean
    report(3, high >= 0.85 and high >= low,
           f"mean frac_train_on_margin: d=500 {high:.4f} vs d=5 {low:.4f} "
           f"(need d=500 >= 0.85 and >= d=5)")


def test_criterion_4_attack_quality_d1000(attack_runs):
    aucs = [ev.auc for *_, ev in attack_runs]
    accs = [ev.accuracy for *_, ev in attack_runs]
    mean_auc = float(np.mean(aucs))
    mean_acc = float(np.mean(accs))
    report(4, mean_auc >= 0.99 and mean_acc >= 0.95,
           f"known-margin attack at d=1000: AUC {mean_auc:.4f} (need >= 0.99), "
           f"accuracy {mean_acc:.4f} (need >= 0.95)")


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


def test_criterion_8_margin_lower_bound(margin_sweep, attack_runs, recon_runs):
    threshold = 1.0 / (2.0 * math.e)
    floor = 1.0 / math.e
    checked = 0
    ok = True
    for rec in margin_sweep.records:
        if not rec.diverged and rec.final_loss < threshold:
            checked += 1
            ok = ok and rec.margin > floor
    for _, _, trace, m, _ in attack_runs:
        if trace.final().loss < threshold:
            checked += 1
            ok = ok and m > floor
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
        analytic = parameter_vector(ml.gradient(net, data, kind))
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
            scaled = ml.forward_batch(net.scaled(factor), x)[0]
            want = factor**2 * base
            worst = max(worst, abs(scaled - want) / max(1e-12, abs(want)))
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
