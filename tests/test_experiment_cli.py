import csv
import json
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import marginleak as ml
from marginleak.cli import main
from marginleak.experiment import (
    RECONSTRUCTION_MATCH_TOL,
    config_from_file,
    match_candidates,
    parse_flat_config,
    write_margin_plot_csv,
    write_margin_results_csv,
)
from kkt_constructions import opposite_pair_network
from test_model import SPECIAL_FLOATS, same_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        for rec in result.records:
            assert 0.0 <= rec.frac_train_on_margin <= 1.0
            assert 0.0 <= rec.frac_test_on_or_above_margin <= 1.0
        for agg in result.aggregates:
            cells = [r for r in result.records if r.dim == agg.dim and not r.diverged]
            want = np.mean([c.frac_train_on_margin for c in cells])
            assert agg.frac_train_on_margin_mean == pytest.approx(want, abs=1e-12)

    def test_single_training_point_defines_margin(self):
        train = ml.TrainConfig(width=16, init_scale=1e-2, max_steps=300,
                               loss_target=1e-3, kkt_residual_target=0.9)
        cfg = ml.ExperimentConfig(dims=(2,), seeds=(0,), train=train, n_train=1, n_test=5)
        result = ml.run_margin_experiment(cfg)
        assert result.records[0].frac_train_on_margin == 1.0

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

    def test_requires_univariate_config(self):
        train = ml.TrainConfig(width=4, max_steps=10)
        cfg = ml.ExperimentConfig(dims=(2,), seeds=(0,), train=train, n_train=2, n_test=2)
        with pytest.raises(ValueError):
            ml.run_reconstruction_pipeline(cfg, 0)


class TestFlatConfig:
    def test_parse_types(self):
        text = """
        # comment
        dims = [5, 20]
        seeds = 0, 1, 2
        width = 8
        margin_slack = 0.2
        loss_kind = logistic
        """
        values = parse_flat_config(text)
        assert values["dims"] == (5, 20)
        assert values["seeds"] == (0, 1, 2)
        assert values["width"] == 8
        assert values["margin_slack"] == 0.2
        assert values["loss_kind"] == "logistic"

    def test_unknown_key_rejected(self):
        with pytest.raises(ml.FileFormatError):
            parse_flat_config("wibble = 3")

    def test_every_shipped_config_loads(self):
        paths = sorted(p for p in CONFIG_DIR.rglob("*") if p.is_file())
        assert paths
        for path in paths:
            assert isinstance(config_from_file(path), ml.ExperimentConfig), path

    def test_duplicate_key_rejected(self):
        with pytest.raises(ml.FileFormatError):
            parse_flat_config("width = 3\nwidth = 4")

    def test_config_file_to_experiment(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text(
            "dims = 2, 3\nseeds = 0\nwidth = 8\nn_train = 4\nn_test = 6\n"
            "max_steps = 50\nloss_kind = exponential\n"
        )
        cfg = config_from_file(path)
        assert cfg.dims == (2, 3)
        assert cfg.train.width == 8
        assert cfg.train.max_steps == 50

    def test_missing_required_keys(self, tmp_path):
        path = tmp_path / "c.toml"
        path.write_text("dims = 2\nseeds = 0\n")
        with pytest.raises(ml.FileFormatError):
            config_from_file(path)


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
            "dims = 2, 3\nseeds = 0, 1\nwidth = 32\nn_train = 4\nn_test = 6\n"
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
            "dims = 1\nseeds = 0, 1\nwidth = 16\nn_train = 2\nn_test = 2\n"
            "max_steps = 3000\ninit_scale = 1e-2\nlearning_rate = 5e-2\n"
            "loss_target = 1e-5\nkkt_residual_target = 0.5\n"
            "recon_data_scheme = two-clusters\n"
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

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MARGINLEAK_OUT_DIR", str(tmp_path / "envout"))
        scores = tmp_path / "scores.csv"
        scores.write_text("point_id,score\np0,1.0\n")
        code = main([
            "attack", "membership", "--rule", "bounded-margin", "--threshold", "0.5",
            "--scores", str(scores),
        ])
        assert code == 0
        assert (tmp_path / "envout" / "verdicts.csv").exists()

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
        ["train", "--data", "label-only.csv"],
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
        if argv[-2] in ("--margin", "--threshold", "--slack"):
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
    if rule == "known-margin":
        from_attack = [ml.attack_known_margin(net, 1.5, x).is_member for x in points]
    elif rule == "bounded-margin":
        from_attack = [ml.attack_bounded_margin(net, 0.75, x).is_member for x in points]
    else:
        from_attack = [v.is_member for v in ml.attack_leaked_points(net, points)]

    scores = tmp_path / "scores.csv"
    scores.write_text("point_id,score\n" + "".join(
        f"p{i},{float(s)!r}\n" for i, s in enumerate(ml.membership_scores(net, points))
    ))
    flags = {"known-margin": ["--margin", "1.5"],
             "bounded-margin": ["--threshold", "0.75"], "leaked-points": []}[rule]
    out = tmp_path / "verdicts.csv"
    assert main(["attack", "membership", "--rule", rule, *flags,
                 "--scores", str(scores), "--out", str(out)]) == 0
    from_cli = [row.split(",")[2] == "1" for row in out.read_text().splitlines()[1:]]

    assert from_cli == from_eval == from_attack
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
