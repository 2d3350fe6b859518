import argparse
import csv
import importlib.util
import json
import math
from dataclasses import fields, replace
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import marginleak as ml
from marginleak import experiment, training
from marginleak.cli import build_parser, main
from marginleak.experiment import (
    RECONSTRUCTION_MATCH_TOL,
    config_from_file,
    margin_fractions,
    match_candidates,
    run_margin_cell,
    write_margin_plot_csv,
    write_margin_results_csv,
)
from kkt_constructions import opposite_pair_network
from test_model import SPECIAL_FLOATS, encode, same_bits

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"


def tiny_margin_config(seeds=(0, 1)):
    train = ml.TrainConfig(width=32, init_scale=1e-2, learning_rate=5e-2,
                           max_steps=2000, loss_target=1e-4, kkt_residual_target=0.9,
                           checkpoint_every=100)
    return ml.ExperimentConfig(dims=(2, 3), seeds=seeds, train=train,
                               n_train=4, n_test=12)


class TestMarginExperiment:
    def test_records_and_aggregates(self):
        cfg = tiny_margin_config()
        result = ml.run_margin_experiment(cfg)
        assert len(result.records) == 4
        # The run of cell (2, 1) stays live but ends at loss 0.26, above
        # 1/n = 0.25, and a live run that does not fit is not re-seeded.
        assert [(r.dim, r.seed) for r in result.records if r.diverged] == [(2, 1)]
        for rec in result.records:
            if rec.diverged:
                assert math.isnan(rec.auc) and math.isnan(rec.accuracy)
                continue
            assert 0.0 <= rec.frac_train_on_margin <= 1.0
            assert 0.0 <= rec.frac_test_on_or_above_margin <= 1.0
        for agg in result.aggregates:
            cells = [r for r in result.records if r.dim == agg.dim and not r.diverged]
            want = np.mean([c.frac_train_on_margin for c in cells])
            assert agg.frac_train_on_margin_mean == pytest.approx(want, abs=1e-12)
            assert agg.auc_mean == np.mean([c.auc for c in cells])
            assert agg.accuracy_mean == np.mean([c.accuracy for c in cells])

    def test_cell_reports_the_known_margin_attack(self):
        # The cell's attack figures are evaluate_attack's on the cell's own
        # network, training points and test points.
        cfg = tiny_margin_config()
        rec = run_margin_cell(cfg, 3, 0)
        data_seed, test_seed, init_seed = experiment._cell_seeds(0)
        data = experiment._sample_labeled(3, cfg.n_train, cfg.mixture_mean_coord, data_seed)
        test = ml.sample(ml.two_gaussian_mixture(3, cfg.mixture_mean_coord, rng_seed=test_seed),
                         cfg.n_test).points
        net, _, _ = ml.train_non_degenerate(data, replace(cfg.train, rng_seed=init_seed))
        m, _ = ml.margin(net, data)
        ev = ml.evaluate_attack(net, data.points, test, "known-margin", margin=m)
        assert (rec.margin, rec.auc, rec.accuracy) == (m, ev.auc, ev.accuracy)
        assert 0.5 < rec.auc < 1.0 and rec.accuracy < 1.0

    def test_single_training_point_defines_margin(self):
        train = ml.TrainConfig(width=16, init_scale=1e-2, max_steps=300,
                               loss_target=1e-3, kkt_residual_target=0.9)
        cfg = ml.ExperimentConfig(dims=(2,), seeds=(0,), train=train, n_train=1, n_test=5)
        result = ml.run_margin_experiment(cfg)
        assert result.records[0].frac_train_on_margin == 1.0

    def test_margin_fractions_use_the_package_margin(self):
        net, data, _, _ = opposite_pair_network([2.0])
        test = ml.membership_scores(net, np.array([[0.0], [5.0]]))
        scores = ml.membership_scores(net, data.points)
        assert margin_fractions(scores, test, 0.1)[0] == ml.margin(net, data)[0]
        with pytest.raises(ml.DegenerateNetworkError):
            margin_fractions(np.zeros(2), test, 0.1)

    def test_ordering_sorted_by_dim_then_seed(self):
        cfg = tiny_margin_config(seeds=(1, 0))
        result = ml.run_margin_experiment(cfg)
        assert [(r.dim, r.seed) for r in result.records] == [(2, 0), (2, 1), (3, 0), (3, 1)]

    def test_csv_bodies_reproducible(self, tmp_path):
        cfg = tiny_margin_config()
        paths = []
        for run in range(2):
            result = ml.run_margin_experiment(cfg)
            path = tmp_path / f"results{run}.csv"
            write_margin_results_csv(result, path, metadata=f"run={run}")
            paths.append(path)
        bodies = [p.read_text().splitlines()[1:] for p in paths]
        assert bodies[0] == bodies[1]

    def test_plot_csv_columns(self, tmp_path):
        result = ml.run_margin_experiment(tiny_margin_config())
        path = tmp_path / "plot.csv"
        write_margin_plot_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == [
            "d", "frac_train_on_margin_mean", "frac_train_on_margin_std",
            "frac_test_on_or_above_margin_mean", "frac_test_on_or_above_margin_std",
        ]
        assert len(lines) == 2 + 2  # metadata + header + one row per dim


def recon_config(seeds, scheme="two-clusters", n_train=6, width=32, max_steps=4000):
    train = ml.TrainConfig(width=width, init_scale=1e-4, learning_rate=5e-2,
                           max_steps=max_steps, loss_target=1e-6,
                           kkt_residual_target=5e-3, checkpoint_every=250)
    return ml.ExperimentConfig(dims=(1,), seeds=seeds, train=train, n_train=n_train,
                               n_test=4, recon_data_scheme=scheme)


class TestReconstructionPipeline:
    def test_symmetric_pair_recovers_both_points(self):
        # Explicit {-1, +1} data; candidates should contain both points in
        # at least 9 of 10 seeds.
        data = ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
        cfg = recon_config(tuple(range(10)), n_train=2, width=16)
        hits = 0
        for seed in range(10):
            report = ml.run_reconstruction_pipeline(cfg, seed, data=data)
            found = [
                any(abs(p - t) <= 1e-3 for p in report.candidates.points)
                for t in (-1.0, 1.0)
            ]
            hits += all(found)
        assert hits >= 9

    def test_matched_fraction_on_cluster_data(self):
        cfg = recon_config(tuple(range(5)))
        reports = ml.run_reconstruction_sweep(cfg)
        assert sum(r.matched_fraction >= 0.25 for r in reports) >= 4

    @pytest.mark.parametrize("points, true_points", [((), (0.5,)), ((0.5,), ()), ((), ())])
    def test_match_candidates_empty_inputs(self, points, true_points):
        assert match_candidates(points, true_points) == 0

    def test_match_candidates_counts_within_the_tolerance(self):
        tol = RECONSTRUCTION_MATCH_TOL
        points = (tol, -tol, np.nextafter(tol, 1.0), 2.0 + 0.5 * tol, 5.0)
        assert match_candidates(points, (0.0, 2.0)) == 3

    def test_single_point_uses_closed_form(self):
        cfg = recon_config((0,), n_train=1, width=1, max_steps=2500)
        report = ml.run_reconstruction_pipeline(cfg, 0)
        assert report.used_single_recovery
        assert abs(report.candidates.points[0] - report.true_points[0]) <= 1e-6

    def test_warmup_reseeds_only_dead_runs(self):
        # The acceptance warm-up config: seed 6 needs 7 re-seeds and seed 8
        # needs 5, each after a run whose neuron died.
        train = ml.TrainConfig(width=1, init_scale=1e-4, learning_rate=5e-2, max_steps=6000,
                               loss_target=1e-9, kkt_residual_target=1e-6,
                               checkpoint_every=200)
        cfg = ml.ExperimentConfig(dims=(1,), seeds=(6, 8), train=train, n_train=1, n_test=5)
        assert [ml.run_reconstruction_pipeline(cfg, s).retries for s in (6, 8)] == [7, 5]

    def test_require_convergence_raises_unless_targets_met(self):
        cfg = recon_config((0,))
        cfg = replace(cfg, train=replace(cfg.train, kkt_residual_target=1e-12))
        assert ml.run_reconstruction_pipeline(cfg, 0).retries == 0
        with pytest.raises(ml.DegenerateNetworkError, match="max-steps"):
            ml.run_reconstruction_pipeline(replace(cfg, recon_require_convergence=True), 0)

    def test_config_takes_integer_dims_and_seeds(self):
        train = ml.TrainConfig(width=4)
        cfg = ml.ExperimentConfig(dims=np.array([2, 3]), seeds=[np.int64(1)], train=train)
        assert (cfg.dims, cfg.seeds) == ((2, 3), (1,))
        assert type(cfg.seeds[0]) is int
        for dims, seeds in (((2.5,), (0,)), ((2.0,), (0,)), ((2,), (0.5,))):
            with pytest.raises(ValueError, match="integers"):
                ml.ExperimentConfig(dims=dims, seeds=seeds, train=train)

    def test_requires_univariate_config(self):
        train = ml.TrainConfig(width=4, max_steps=10)
        cfg = ml.ExperimentConfig(dims=(2,), seeds=(0,), train=train, n_train=2, n_test=2)
        with pytest.raises(ValueError):
            ml.run_reconstruction_pipeline(cfg, 0)


# One valid TOML value for each config key, and the field value it gives.
CONFIG_KEY_SAMPLES = {
    "dims": ("[2, 3]", (2, 3)),
    "seeds": ("[4, 0]", (4, 0)),
    "width": ("8", 8),
    "loss_kind": ('"logistic"', "logistic"),
    "init_scale": ("1", 1.0),
    "learning_rate": ("0.5", 0.5),
    "lr_growth": ("1.5", 1.5),
    "max_steps": ("7", 7),
    "loss_target": ("1e-3", 1e-3),
    "kkt_residual_target": ("0.25", 0.25),
    "checkpoint_every": ("3", 3),
    "n_train": ("5", 5),
    "n_test": ("6", 6),
    "margin_slack": ("0.2", 0.2),
    "mixture_mean_coord": ("-2", -2.0),
    "recon_data_scheme": ('"two-clusters"', "two-clusters"),
    "recon_require_convergence": ("true", True),
}

MINIMAL_CONFIG = "dims = [2]\nseeds = [0]\nwidth = 8\n"

# Config files that are not TOML, give a key a value of the wrong type, or
# give a value out of range.
BAD_CONFIGS = {
    "flat-list": "dims = 2, 3\nseeds = [0]\nwidth = 8\n",
    "bare-string": MINIMAL_CONFIG + "loss_kind = exponential\n",
    "duplicate-key": MINIMAL_CONFIG + "width = 4\n",
    "not-utf8": b"dims = [2]\nseeds = [0]\nwidth = \xff\n",
    "unknown-key": MINIMAL_CONFIG + "wibble = 3\n",
    "rng_seed-key": MINIMAL_CONFIG + "rng_seed = 3\n",
    "train-table": MINIMAL_CONFIG + "[train]\nwidth = 3\n",
    "float-width": "dims = [2]\nseeds = [0]\nwidth = 2.5\n",
    "bool-width": "dims = [2]\nseeds = [0]\nwidth = true\n",
    "float-dims": "dims = [2.5]\nseeds = [0]\nwidth = 8\n",
    "bool-seeds": "dims = [2]\nseeds = [true]\nwidth = 8\n",
    "scalar-seeds": "dims = [2]\nseeds = -1\nwidth = 8\n",
    "string-slack": MINIMAL_CONFIG + 'margin_slack = "0.1"\n',
    "int-loss-kind": MINIMAL_CONFIG + "loss_kind = 3\n",
    "string-bool": MINIMAL_CONFIG + 'recon_require_convergence = "true"\n',
    "out-dir-key": MINIMAL_CONFIG + 'out_dir = "out"\n',
    "missing-width": "dims = [2]\nseeds = [0]\n",
    "negative-seed": "dims = [2]\nseeds = [0, -1]\nwidth = 8\n",
    "zero-dim": "dims = [0]\nseeds = [0]\nwidth = 8\n",
    "empty-seeds": "dims = [2]\nseeds = []\nwidth = 8\n",
    "nan-mean-coord": MINIMAL_CONFIG + "mixture_mean_coord = nan\n",
    "inf-mean-coord": MINIMAL_CONFIG + "mixture_mean_coord = -inf\n",
    "inf-init-scale": MINIMAL_CONFIG + "init_scale = inf\n",
    "nan-learning-rate": MINIMAL_CONFIG + "learning_rate = nan\n",
    "inf-lr-growth": MINIMAL_CONFIG + "lr_growth = inf\n",
    "zero-loss-target": MINIMAL_CONFIG + "loss_target = 0\n",
    "unknown-scheme": MINIMAL_CONFIG + 'recon_data_scheme = "spiral"\n',
}


def write_config(path, text):
    (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
    return path


class TestFlatConfig:
    """Experiment configs: TOML documents of top-level keys only."""

    def test_parse_types(self, tmp_path):
        path = write_config(tmp_path / "c.toml", """
        # comment
        dims = [5, 20]
        seeds = [0, 1, 2]
        width = 8
        margin_slack = 0.2
        init_scale = 1
        loss_kind = "logistic"
        recon_require_convergence = false
        """)
        cfg = config_from_file(path)
        assert (cfg.dims, cfg.seeds, cfg.train.width) == ((5, 20), (0, 1, 2), 8)
        assert cfg.margin_slack == 0.2
        assert cfg.train.loss_kind == "logistic"
        assert cfg.recon_require_convergence is False
        # An integer in a float field becomes a float, as the old reader made it.
        assert "init_scale=1.0," in repr(cfg.train)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.toml", MINIMAL_CONFIG + "wibble = 3\n")
        with pytest.raises(ml.FileFormatError, match="wibble"):
            config_from_file(path)

    def test_every_config_field_is_a_key(self, tmp_path):
        train_keys = {f.name for f in fields(ml.TrainConfig)} - {"rng_seed"}
        exp_keys = {f.name for f in fields(ml.ExperimentConfig)} - {"train"}
        assert set(CONFIG_KEY_SAMPLES) == train_keys | exp_keys
        assert len(CONFIG_KEY_SAMPLES) == 17
        path = write_config(tmp_path / "c.toml", "".join(
            f"{key} = {text}\n" for key, (text, _) in CONFIG_KEY_SAMPLES.items()))
        cfg = config_from_file(path)
        for key, (_, want) in CONFIG_KEY_SAMPLES.items():
            got = getattr(cfg.train if key in train_keys else cfg, key)
            assert (got, type(got)) == (want, type(want)), key
        for key in ("rng_seed", "train"):
            write_config(path, MINIMAL_CONFIG + f"{key} = 3\n")
            with pytest.raises(ml.FileFormatError, match=f"unknown config key '{key}'"):
                config_from_file(path)

    def test_every_shipped_config_loads(self):
        import tomllib

        paths = sorted(p for p in CONFIG_DIR.rglob("*") if p.is_file())
        assert paths
        for path in paths:
            tomllib.loads(path.read_text())
            assert isinstance(config_from_file(path), ml.ExperimentConfig), path

    def test_benchmark_runs_the_shipped_settings(self, monkeypatch):
        # perfbench/workloads.py types its settings out; they must stay the
        # desk configs'.  Constructing a workload patches
        # training.train_non_degenerate, so monkeypatch restores it after.
        monkeypatch.setattr(training, "train_non_degenerate", training.train_non_degenerate)
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        monkeypatch.setattr(workloads.AttackD1000, "catalogue_size", 1)

        margin = config_from_file(CONFIG_DIR / "margin_desk.toml",
                                  overrides={"dims": (100,), "seeds": (0,)})
        assert workloads.MarginD100(0).cfg == margin
        recon = config_from_file(CONFIG_DIR / "recon_desk.toml", overrides={"seeds": (0,)})
        assert workloads.Recon1D(0).cfg == recon
        attack = config_from_file(CONFIG_DIR / "attack_desk.toml")
        assert workloads.AttackD1000(0).train_cfg == attack.train
        for entry in range(workloads.Recon1D.catalogue_size):
            data_seed = experiment._cell_seeds(entry)[0]
            want = experiment._two_cluster_1d_dataset(recon.n_train, data_seed)
            got = workloads.two_cluster_dataset(recon.n_train, data_seed)
            assert np.array_equal(got.points, want.points)
            assert np.array_equal(got.labels, want.labels)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.toml", BAD_CONFIGS["duplicate-key"])
        with pytest.raises(ml.FileFormatError):
            config_from_file(path)

    def test_override_applies_after_the_type_check(self, tmp_path):
        path = write_config(tmp_path / "c.toml", "dims = [3]\nseeds = [0]\nwidth = 8\n")
        assert config_from_file(path, overrides={"dims": (1,)}).dims == (1,)
        write_config(path, "seeds = [0]\nwidth = 8\n")
        assert config_from_file(path, overrides={"dims": (1,)}).dims == (1,)
        write_config(path, BAD_CONFIGS["float-dims"])
        with pytest.raises(ml.FileFormatError, match="dims"):
            config_from_file(path, overrides={"dims": (1,)})

    def test_config_file_to_experiment(self, tmp_path):
        path = write_config(
            tmp_path / "c.toml",
            "dims = [2, 3]\nseeds = [0]\nwidth = 8\nn_train = 4\nn_test = 6\n"
            'max_steps = 50\nloss_kind = "exponential"\n'
        )
        cfg = config_from_file(path)
        assert cfg.dims == (2, 3)
        assert cfg.train.width == 8
        assert cfg.train.max_steps == 50

    def test_missing_required_keys(self, tmp_path):
        path = write_config(tmp_path / "c.toml", "dims = [2]\nseeds = [0]\n")
        with pytest.raises(ml.FileFormatError, match="width"):
            config_from_file(path)
        write_config(path, "width = 8\n")
        with pytest.raises(ml.FileFormatError, match="dims, seeds"):
            config_from_file(path)

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2(self, tmp_path, capsys, case):
        # main returns (no exception escapes, so no traceback) with one error line.
        path = write_config(tmp_path / "c.toml", BAD_CONFIGS[case])
        code = main(["experiment", "margin", "--config", str(path),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()


class TestCli:
    def write_dataset(self, tmp_path, n=4, d=2, seed=0):
        batch = ml.sample(ml.two_gaussian_mixture(d, rng_seed=seed), n)
        data = ml.LabeledDataset(batch.points, ml.label_by_component(batch.components))
        path = tmp_path / "data.csv"
        ml.write_dataset_csv(data, path)
        return path, data

    def test_train_writes_model_and_trace(self, tmp_path, capsys):
        data_path, _ = self.write_dataset(tmp_path)
        code = main([
            "train", "--data", str(data_path), "--width", "8", "--max-steps", "200",
            "--init-scale", "1e-2", "--loss-target", "1e-3", "--kkt-target", "0.9",
            "--out-model", str(tmp_path / "model.json"),
            "--out-trace", str(tmp_path / "trace.csv"),
        ])
        assert code == 0
        assert (tmp_path / "model.json").exists()
        assert (tmp_path / "trace.csv").exists()
        net = ml.load_network(tmp_path / "model.json")
        assert net.width == 8

    def test_verify_kkt_on_constructed_model(self, tmp_path, capsys):
        net, data, lam, m = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        ml.save_network(net, tmp_path / "model.json")
        ml.write_dataset_csv(data, tmp_path / "data.csv")
        code = main([
            "verify-kkt", "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / "data.csv"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["stationarity_residual"] < 1e-8

    def test_attack_reconstruct_candidates(self, tmp_path):
        from test_reconstruct import v_shape_network

        ml.save_network(v_shape_network(), tmp_path / "model.json")
        code = main([
            "attack", "reconstruct", "--model", str(tmp_path / "model.json"),
            "--margin", "0.5", "--out", str(tmp_path / "candidates.csv"),
        ])
        assert code == 0
        lines = (tmp_path / "candidates.csv").read_text().splitlines()
        xs = sorted(float(row.split(",")[0]) for row in lines[1:])
        np.testing.assert_allclose(xs, [-0.75, -0.25, 0.25, 0.75], atol=1e-12)

    def test_attack_membership_from_scores(self, tmp_path):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "point_id,score\np0,1.5\np1,0.74\np2,0.76\np3,0.75\n"
        )
        out = tmp_path / "verdicts.csv"
        code = main([
            "attack", "membership", "--rule", "known-margin", "--margin", "1.5",
            "--scores", str(scores), "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        verdicts = {row[0]: row[2] for row in rows}
        # Threshold is m / 2 = 0.75, ties count as members.
        assert verdicts == {"p0": "1", "p1": "0", "p2": "1", "p3": "1"}

    def test_check_dist_reports_ratio(self, tmp_path, capsys):
        code = main([
            "check-dist", "--kind", "uniform-sphere", "--dim", "256", "--n", "8",
            "--seed", "0",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 8
        assert doc["min_sq_norm"] == pytest.approx(256.0, rel=1e-9)

    def test_experiment_margin_from_config(self, tmp_path, capsys):
        config = tmp_path / "c.toml"
        config.write_text(
            "dims = [2, 3]\nseeds = [0, 1]\nwidth = 32\nn_train = 4\nn_test = 6\n"
            "max_steps = 2000\ninit_scale = 1e-2\nlearning_rate = 5e-2\n"
            "loss_target = 1e-3\nkkt_residual_target = 0.9\n"
        )
        out = tmp_path / "results"
        code = main(["experiment", "margin", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[1].split(",")[0:2] == ["d", "seed"]
        # 4 cells + 2 aggregate rows.
        assert len(lines) == 1 + 1 + 4 + 2
        assert (out / "plot_margin.csv").exists()

    def test_experiment_reconstruct_from_config(self, tmp_path):
        config = tmp_path / "c.toml"
        config.write_text(
            "dims = [1]\nseeds = [0, 1]\nwidth = 16\nn_train = 2\nn_test = 2\n"
            "max_steps = 3000\ninit_scale = 1e-2\nlearning_rate = 5e-2\n"
            "loss_target = 1e-5\nkkt_residual_target = 0.5\n"
            'recon_data_scheme = "two-clusters"\n'
        )
        out = tmp_path / "recon"
        code = main(["experiment", "reconstruct", "--config", str(config), "--out-dir", str(out)])
        assert code == 0
        lines = (out / "recon_results.csv").read_text().splitlines()
        assert lines[-1].startswith("success-rate")
        assert (out / "candidates_seed0.csv").exists()

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main(["train", "--no-such-flag"])
        assert exc_info.value.code == 2

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        config = tmp_path / "c.toml"
        config.write_text("nonsense = 1\n")
        assert main(["experiment", "margin", "--config", str(config)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["train", "--data", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["sample-dataset", "--dim", "2", "--n", "4", "--out", "adir"],
        ["sample-dataset", "--dim", "2", "--n", "4", "--out", ""],
        ["train", "--data", "adir"],
    ], ids=["out-dir", "out-empty", "data-dir"])
    def test_directory_as_file_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        Path("adir").mkdir()
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert not any(Path("adir").iterdir())

    def test_runtime_failure_exits_1(self, tmp_path):
        # Zero network: leaked-points rule cannot hold numerically.
        net = ml.NetworkParams(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        ml.save_network(net, tmp_path / "model.json")
        data = ml.LabeledDataset(np.array([[1.0], [2.0]]), np.array([1.0, -1.0]))
        ml.write_dataset_csv(data, tmp_path / "points.csv")
        code = main([
            "attack", "membership", "--rule", "leaked-points",
            "--model", str(tmp_path / "model.json"),
            "--points", str(tmp_path / "points.csv"),
            "--out", str(tmp_path / "v.csv"),
        ])
        assert code == 1

    def test_default_output_ignores_environment(self, tmp_path, monkeypatch, capsys):
        # No setting moves a default output: it goes to the working directory.
        monkeypatch.setenv("MARGINLEAK_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        Path("s.csv").write_text("point_id,score\np0,1.0\n")
        code = main([
            "attack", "membership", "--rule", "bounded-margin", "--threshold", "0.5",
            "--scores", "s.csv",
        ])
        assert code == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "verdicts.csv"]

    def test_out_dir_only_on_commands_writing_several_files(self):
        # Every command's parser: the leaves of the subparser tree.
        def commands(parser, prefix=()):
            subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            if not subs:
                yield " ".join(prefix), parser
            for action in subs:
                for name, sub in action.choices.items():
                    yield from commands(sub, (*prefix, name))

        with_out_dir = {name for name, parser in commands(build_parser())
                        if "--out-dir" in parser._option_string_actions}
        assert with_out_dir == {"train", "experiment margin", "experiment reconstruct"}

    @pytest.mark.parametrize("command", ["experiment-reconstruct", "experiment-margin"])
    def test_out_dir_naming_a_file_exits_2(self, tmp_path, capsys, command):
        afile = tmp_path / "afile"
        afile.write_text("keep\n")
        config = write_config(tmp_path / "c.toml", MINIMAL_CONFIG)
        argv = ["experiment", command.split("-")[1], "--config", str(config)]
        code = main([*argv, "--out-dir", str(afile)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == f"error: output directory {afile} is not a directory\n"
        assert afile.read_text() == "keep\n"

    @pytest.mark.parametrize("argv", [
        ["membership", "--rule", "known-margin", "--margin", "-1"],
        ["membership", "--rule", "known-margin", "--margin", "0"],
        ["membership", "--rule", "known-margin", "--margin", "nan"],
        ["membership", "--rule", "known-margin", "--margin", "inf"],
        ["membership", "--rule", "bounded-margin", "--threshold", "-1"],
        ["membership", "--rule", "bounded-margin", "--threshold", "nan"],
        ["reconstruct", "--margin", "-1"],
        ["reconstruct", "--margin", "nan"],
        ["verify-kkt", "--slack", "-1"],
        ["verify-kkt", "--slack", "nan"],
        ["check-dist", "--n", "0"],
        ["check-dist", "--n", "1"],
        ["sample-dataset", "--dim", "0"],
        ["sample-dataset", "--n", "0"],
        ["train", "--width", "0"],
        ["train", "--learning-rate", "-1"],
        ["train", "--learning-rate", "nan"],
        ["train", "--lr-growth", "nan"],
        ["train", "--init-scale", "inf"],
        ["train", "--data", "label-only.csv"],
        # A command that writes one file names it with --out only.
        ["verify-kkt", "--out-dir", "out"],
        ["reconstruct", "--out-dir", "out"],
        ["membership", "--out-dir", "out"],
        ["sample-dataset", "--out-dir", "out"],
    ], ids=lambda argv: "_".join([argv[0], argv[-2].lstrip("-"), argv[-1]]))
    def test_bad_margin_or_threshold_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        # Every bad flag value or input named here ends in exit 2 and writes
        # nothing.  The bad flag comes last and overrides the valid value of
        # the same flag, if any.
        from test_reconstruct import v_shape_network

        monkeypatch.chdir(tmp_path)
        ml.save_network(v_shape_network(), "model.json")
        ml.write_dataset_csv(
            ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0])), "data.csv"
        )
        Path("scores.csv").write_text("point_id,score\np0,1.0\np1,0.0\n")
        Path("label-only.csv").write_text("label\n1\n-1\n")
        before = sorted(tmp_path.iterdir())
        inputs = {
            "membership": ["attack", "membership", "--scores", "scores.csv", "--out", "out"],
            "reconstruct": ["attack", "reconstruct", "--model", "model.json", "--out", "out"],
            "verify-kkt": ["verify-kkt", "--model", "model.json", "--data", "data.csv",
                           "--out", "out"],
            "check-dist": ["check-dist", "--kind", "gaussian", "--dim", "2", "--n", "4",
                           "--out", "out"],
            "sample-dataset": ["sample-dataset", "--dim", "2", "--n", "4", "--out", "out"],
            "train": ["train", "--data", "data.csv", "--out-model", "out"],
        }[argv[0]]
        if argv[-2] in ("--margin", "--threshold", "--slack", "--out-dir"):
            # Rejected by argparse, before any file is read.
            with pytest.raises(SystemExit) as exc_info:
                main([*inputs, *argv[1:]])
            code = exc_info.value.code
        else:
            code = main([*inputs, *argv[1:]])
        assert code == 2
        assert sorted(tmp_path.iterdir()) == before

    def test_reconstruct_zero_data_margin_exits_1(self, tmp_path, capsys):
        from test_reconstruct import v_shape_network

        # Phi(-0.5) = 0 and Phi(2) = 1: the margin taken from the data is 0.
        ml.save_network(v_shape_network(), tmp_path / "model.json")
        data = ml.LabeledDataset(np.array([[-0.5], [2.0]]), np.array([1.0, 1.0]))
        ml.write_dataset_csv(data, tmp_path / "data.csv")
        out = tmp_path / "candidates.csv"
        code = main([
            "attack", "reconstruct", "--model", str(tmp_path / "model.json"),
            "--data", str(tmp_path / "data.csv"), "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify-kkt", "--data"],
        ["attack", "membership", "--rule", "leaked-points", "--points"],
    ], ids=lambda command: command[-2])
    def test_dimension_mismatch_exits_1(self, tmp_path, capsys, command):
        # A d=3 model against a d=1 dataset.
        rng = np.random.default_rng(0)
        net = ml.NetworkParams(rng.normal(size=(2, 3)), np.zeros(2), np.ones(2))
        ml.save_network(net, tmp_path / "model.json")
        data = ml.LabeledDataset(np.arange(4.0).reshape(4, 1), np.array([1.0, -1.0, 1.0, -1.0]))
        ml.write_dataset_csv(data, tmp_path / "data.csv")
        out = tmp_path / "out"
        code = main([*command, str(tmp_path / "data.csv"),
                     "--model", str(tmp_path / "model.json"), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: inputs have shape (4, 1), network expects (n, 3)"]
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["train", "--out-dir", "out", "--data"],
        ["verify-kkt", "--model", "model.json", "--data"],
        ["attack", "membership", "--rule", "leaked-points", "--model", "model.json", "--points"],
        ["attack", "membership", "--rule", "leaked-points", "--scores"],
    ], ids=["train", "verify-kkt", "membership-points", "membership-scores"])
    def test_file_not_utf8_exits_2(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        ml.save_network(ml.NetworkParams(np.ones((1, 1)), np.zeros(1), np.ones(1)), "model.json")
        Path("bad.csv").write_bytes(b"\xff\xfe\x00garbage")
        before = sorted(tmp_path.iterdir())
        code = main([*command, "bad.csv"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("scores", [["nan", "1.0", "0.9"], ["-5", "-1"], ["1.0", "inf"]],
                             ids=lambda scores: scores[0])
    def test_bad_scores_exit_2(self, tmp_path, scores):
        path = tmp_path / "scores.csv"
        path.write_text("point_id,score\n" + "".join(
            f"p{i},{s}\n" for i, s in enumerate(scores)))
        out = tmp_path / "verdicts.csv"
        code = main([
            "attack", "membership", "--rule", "leaked-points",
            "--scores", str(path), "--out", str(out),
        ])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["verify-kkt", "--data", "data.csv"],
        ["attack", "reconstruct", "--margin", "0.5"],
        ["attack", "membership", "--rule", "leaked-points", "--points", "data.csv"],
    ], ids=lambda command: command[-3])
    @pytest.mark.parametrize("case", [
        "bad-base64", "one-float-short", "width-2.5", "width-true", "format-version-3",
        "format-version-true", "encoded-nan", "format-1",
    ])
    def test_malformed_model_exits_2(self, tmp_path, monkeypatch, capsys, command, case):
        # A format-2 model of width 2 on d=1, spoiled one way.
        monkeypatch.chdir(tmp_path)
        doc = {"format_version": 2, "input_dim": 1, "width": 2,
               "weights": encode([1.0, -1.0]), "biases": encode([0.0, 0.0]),
               "out_weights": encode([1.0, 1.0])}
        doc.update({
            "bad-base64": {"weights": "AAAAAAAA8D8*AAAAAADwvw=="},
            "one-float-short": {"weights": encode([1.0])},
            "width-2.5": {"width": 2.5},
            "width-true": {"width": True},
            "format-version-3": {"format_version": 3},
            "format-version-true": {"format_version": True},
            "encoded-nan": {"out_weights": encode([1.0, float("nan")])},
            "format-1": {"format_version": 1, "neurons": [{"w": [1.0], "b": 0.0, "v": 1.0},
                                                          {"w": [-1.0], "b": 0.0, "v": 1.0}]},
        }[case])
        Path("model.json").write_text(json.dumps(doc))
        ml.write_dataset_csv(
            ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0])), "data.csv"
        )
        before = sorted(tmp_path.iterdir())
        code = main([*command, "--model", "model.json", "--out", "out"])
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("rule", ["known-margin", "bounded-margin", "leaked-points"])
def test_cli_membership_verdicts_match_library(tmp_path, rule):
    from test_membership import scoring_network

    # scoring_network scores |x|.  Every rule's threshold is 0.75 here (m/2
    # with m = 1.5, C = 0.75, half the maximum score 1.5), so 0.75 is a tie.
    members = np.array([[1.5], [0.75], [0.2]])
    fresh = np.array([[0.74], [0.76], [0.75], [0.0]])
    points = np.concatenate([members, fresh])
    net = scoring_network()
    kwargs = {"known-margin": {"margin": 1.5},
              "bounded-margin": {"threshold": 0.75}, "leaked-points": {}}[rule]

    ev = ml.evaluate_attack(net, members, fresh, rule, **kwargs)
    from_eval = [row.verdict for row in ev.rows]
    threshold, from_lib = ml.membership_verdicts(
        rule, ml.membership_scores(net, points), **kwargs)

    scores = tmp_path / "scores.csv"
    scores.write_text("point_id,score\n" + "".join(
        f"p{i},{float(s)!r}\n" for i, s in enumerate(ml.membership_scores(net, points))
    ))
    flags = {"known-margin": ["--margin", "1.5"],
             "bounded-margin": ["--threshold", "0.75"], "leaked-points": []}[rule]
    out = tmp_path / "verdicts.csv"
    assert main(["attack", "membership", "--rule", rule, *flags,
                 "--scores", str(scores), "--out", str(out)]) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    from_cli = [row[2] == "1" for row in rows]

    assert from_cli == from_eval == from_lib.tolist()
    assert {float(row[4]) for row in rows} == {threshold}
    ties = [bool(v) for v, x in zip(from_cli, points[:, 0]) if x == 0.75]
    assert ties == [rule != "bounded-margin"] * 2


# Scores files as `attack membership --scores` reads them: finite nonnegative
# scores come back bit for bit in verdicts.csv; anything else exits 2.
RULE_FLAGS = {"known-margin": ["--margin", "1.0"], "bounded-margin": ["--threshold", "0.5"],
              "leaked-points": []}
VALID_SCORES = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
BAD_SCORES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1.0", "-5e-324"]),
    st.floats(max_value=-5e-324).map(repr),
)


def _run_scores_file(tmp_path, cells, rule):
    path = tmp_path / "scores.csv"
    path.write_text("point_id,score\n" + "".join(f"p{i},{c}\n" for i, c in enumerate(cells)))
    out = tmp_path / "verdicts.csv"
    out.unlink(missing_ok=True)
    code = main(["attack", "membership", "--rule", rule, *RULE_FLAGS[rule],
                 "--scores", str(path), "--out", str(out)])
    return code, out


@hypothesis.settings(
    deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(scores=st.lists(VALID_SCORES, min_size=1, max_size=8),
                  rule=st.sampled_from(sorted(RULE_FLAGS)))
@hypothesis.example(scores=SPECIAL_FLOATS, rule="known-margin")
@hypothesis.example(scores=SPECIAL_FLOATS, rule="leaked-points")
def test_scores_file_round_trips_bit_exact(tmp_path, scores, rule):
    code, out = _run_scores_file(tmp_path, map(repr, scores), rule)
    if rule == "leaked-points" and max(scores) == 0.0:
        assert code == 1  # every score zero: no margin estimate
        return
    assert code == 0
    with out.open(newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["point_id", "score", "verdict", "rule", "threshold"]
    assert [row[0] for row in rows] == [f"p{i}" for i in range(len(scores))]
    assert same_bits(np.array([float(row[1]) for row in rows]), np.array(scores))
    threshold = float(rows[0][4])
    member = [s > threshold if rule == "bounded-margin" else s >= threshold for s in scores]
    assert [row[2] for row in rows] == [str(int(m)) for m in member]


@hypothesis.settings(
    deadline=None, max_examples=40,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(scores=st.lists(VALID_SCORES, max_size=5), bad=BAD_SCORES,
                  at=st.integers(0, 5), rule=st.sampled_from(sorted(RULE_FLAGS)))
def test_nonfinite_or_negative_score_exits_2_and_writes_nothing(tmp_path, scores, bad, at, rule):
    cells = [repr(s) for s in scores]
    cells.insert(at, bad)
    code, out = _run_scores_file(tmp_path, cells, rule)
    assert code == 2
    assert not out.exists()
