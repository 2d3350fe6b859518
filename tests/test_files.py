"""Exact bytes of every file the package writes, on tiny fixed inputs.

The shared convention: an optional ``# ...`` metadata line ending in ``\\n``,
then rows (header first) with the csv module's bytes, each ending in
``\\r\\n``, floats at full round-trip precision (``repr``); JSON documents are
``indent=1`` with a trailing newline, and the model document holds its arrays
as base64 float64 bytes.  The dataset rows are rendered directly;
``test_model.py`` and ``test_distributions.py`` check the dataset and model
bytes against the csv and json modules on random values.
"""
import math

import numpy as np

import marginleak as ml
from marginleak import experiment, kkt
from marginleak.model import _read_csv
from marginleak.cli import main
from marginleak.membership import AttackEvaluation, EvaluationRow
from marginleak.training import TraceRecord, TrainTrace


def test_dataset_csv(tmp_path):
    data = ml.LabeledDataset(np.array([[0.1, -2.5], [1e-300, 3.0]]), np.array([1.0, -1.0]))
    path = tmp_path / "data.csv"
    ml.write_dataset_csv(data, path)
    assert path.read_bytes() == (
        b"# labeled-dataset d=2 n=2\n"
        b"x0,x1,label\r\n"
        b"0.1,-2.5,1\r\n"
        b"1e-300,3.0,-1\r\n"
    )


def test_trace_csv(tmp_path):
    trace = TrainTrace(records=[
        TraceRecord(0, 1.0, -0.5, 0.25, -8.0, 1.0, "degenerate", 0.01, 0),
        TraceRecord(100, 1e-9, 2.0 / 3.0, 4.0, 0.125, 0.001, "direct+kink-refinement",
                    0.1 * 1.02**3, 2),
    ])
    path = tmp_path / "trace.csv"
    ml.write_trace_csv(trace, path)
    assert path.read_bytes() == (
        b"step,loss,min_margin,param_norm,normalized_margin,kkt_residual,"
        b"residual_method,learning_rate,refused_steps\r\n"
        b"0,1.0,-0.5,0.25,-8.0,1.0,degenerate,0.01,0\r\n"
        b"100,1e-09,0.6666666666666666,4.0,0.125,0.001,direct+kink-refinement,"
        b"0.10612080000000002,2\r\n"
    )


def test_candidates_csv(tmp_path):
    cands = ml.CandidateSet((-0.75, 0.1), ("crossing", "flat-boundary"))
    path = tmp_path / "candidates.csv"
    ml.write_candidates_csv(cands, path)
    assert path.read_bytes() == (
        b"x,provenance\r\n"
        b"-0.75,crossing\r\n"
        b"0.1,flat-boundary\r\n"
    )


def test_evaluation_csv(tmp_path):
    ev = AttackEvaluation(1, 0, 1, 0, 1.0, 1.0, 0.0, 1.0, "known-margin", (
        EvaluationRow("member-0", 1.5, True, True),
        EvaluationRow("fresh-0", 0.1, False, False),
    ))
    path = tmp_path / "evaluation.csv"
    ml.write_evaluation_csv(ev, path)
    assert path.read_bytes() == (
        b"point_id,score,truth,verdict,rule\r\n"
        b"member-0,1.5,1,1,known-margin\r\n"
        b"fresh-0,0.1,0,0,known-margin\r\n"
    )


def margin_result():
    records = (
        ml.ExperimentRecord(5, 0, 0.5, 0.1, 1e-9, 2.5, 0.01, 3.0),
        ml.ExperimentRecord(5, 1, math.nan, math.nan, math.nan, math.nan, math.nan, 1.0,
                            diverged=True),
    )
    aggregates = (experiment.AggregateRecord(5, 1, 0.5, 0.0, 0.1, 0.0, 1e-9, 2.5, 0.01),)
    return ml.MarginExperimentResult(records, aggregates)


def test_margin_results_csv(tmp_path):
    path = tmp_path / "results.csv"
    experiment.write_margin_results_csv(margin_result(), path, "k=v")
    assert path.read_bytes() == (
        b"# margin-experiment k=v\n"
        b"d,seed,frac_train_on_margin,frac_test_on_or_above_margin,final_loss,margin,"
        b"kkt_residual,diverged\r\n"
        b"5,0,0.5,0.1,1e-09,2.5,0.01,0\r\n"
        b"5,1,nan,nan,nan,nan,nan,1\r\n"
        b"5,mean,0.5,0.1,1e-09,2.5,0.01,0\r\n"
    )


def test_margin_plot_csv(tmp_path):
    path = tmp_path / "plot.csv"
    experiment.write_margin_plot_csv(margin_result(), path)
    assert path.read_bytes() == (
        b"# margin-experiment-plot \n"
        b"d,frac_train_on_margin_mean,frac_train_on_margin_std,"
        b"frac_test_on_or_above_margin_mean,frac_test_on_or_above_margin_std\r\n"
        b"5,0.5,0.0,0.1,0.0\r\n"
    )


def test_reconstruction_csv(tmp_path):
    cands = ml.CandidateSet((-0.75, 0.75), ("crossing", "crossing"))
    reports = [
        ml.ReconstructionReport(3, cands, (-0.75, 0.75), 2, 1.0, 0.5, 1e-9, 0.001,
                                False, 0, False),
        ml.ReconstructionReport(4, ml.CandidateSet((), (), degenerate=True), (0.1,), 0,
                                0.0, 0.25, 0.5, 1.0, False, 2, True),
    ]
    path = tmp_path / "recon.csv"
    experiment.write_reconstruction_csv(reports, path, "seeds=[3, 4]")
    assert path.read_bytes() == (
        b"# reconstruction-experiment seeds=[3, 4]\n"
        b"seed,n_candidates,n_matched,matched_fraction,margin,final_loss,kkt_residual,"
        b"degenerate\r\n"
        b"3,2,2,1.0,0.5,1e-09,0.001,0\r\n"
        b"4,0,0,0.0,0.25,0.5,1.0,1\r\n"
        b"success-rate,2,1,0.5,,,,\r\n"
    )


def test_model_json(tmp_path):
    net = ml.NetworkParams(np.array([[0.5, -1.0]]), np.array([0.1]), np.array([-2.0]))
    path = tmp_path / "model.json"
    ml.save_network(net, path)
    # Base64 of the little-endian float64 bytes: 0.5 and -1.0 are
    # 00 00 00 00 00 00 e0 3f and 00 00 00 00 00 00 f0 bf.
    assert path.read_bytes() == (
        b'{\n "format_version": 2,\n "input_dim": 2,\n "width": 1,\n'
        b' "weights": "AAAAAAAA4D8AAAAAAADwvw==",\n "biases": "mpmZmZmZuT8=",\n'
        b' "out_weights": "AAAAAAAAAMA="\n}\n'
    )


def test_kkt_report_json(tmp_path):
    report = ml.KktReport(0.5, (1,), np.array([0.0, 0.25]), 0.001,
                          np.array([[1, 0]], dtype=np.int8), residual_method="direct")
    path = tmp_path / "report.json"
    kkt.write_report(report, path)
    assert path.read_bytes() == (
        b'{\n "format_version": 1,\n "margin": 0.5,\n "support_indices": [\n  1\n ],\n'
        b' "lambdas": [\n  0.0,\n  0.25\n ],\n "stationarity_residual": 0.001,\n'
        b' "residual_method": "direct",\n "sigma_primes": [\n  [\n   1,\n   0\n  ]\n ]\n}\n'
    )


def test_kkt_report_diagnostics_json(tmp_path):
    diag = ml.DiagnosticBounds(
        max_abs_inner=math.nan, delta_defined=False, min_sq_norm=1.0, max_sq_norm=1.0,
        bound_denominator_positive=True, upper_bound=math.inf, lower_bound=0.0,
        pos_sums=np.array([0.5]), neg_sums=np.array([0.0]), upper_bound_ok=True,
        lower_bound_ok=True, loss_value=0.25, margin_lower_ok=True,
    )
    report = ml.KktReport(1.0, (), np.zeros(1), 1.0, np.zeros((1, 1), dtype=np.int8),
                          diagnostics=diag)
    path = tmp_path / "report.json"
    kkt.write_report(report, path)
    text = path.read_text()
    assert text.endswith('"margin_lower_ok": true\n }\n}\n')
    assert '"max_abs_inner": NaN,' in text and '"upper_bound": Infinity,' in text
    assert '"pos_sums": [\n   0.5\n  ],' in text


def test_cli_verdicts_csv(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text("point_id,score\np0,1.5\np1,0.25\n")
    out = tmp_path / "verdicts.csv"
    assert main(["attack", "membership", "--rule", "known-margin", "--margin", "1.5",
                 "--scores", str(scores), "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b"point_id,score,verdict,rule,threshold\r\n"
        b"p0,1.5,1,known-margin,0.75\r\n"
        b"p1,0.25,0,known-margin,0.75\r\n"
    )


def test_cli_check_dist_json(tmp_path, capsys):
    # On the radius-1 sphere in d = 1 every point is +-1, so each figure is exact.
    out = tmp_path / "dist.json"
    assert main(["check-dist", "--kind", "uniform-sphere", "--dim", "1", "--n", "2",
                 "--seed", "0", "--out", str(out)]) == 0
    assert out.read_bytes() == (
        b'{\n "n": 2,\n "n_effective": 2,\n "max_abs_inner": 1.0,\n "min_sq_norm": 1.0,\n'
        b' "ratio": 2.0,\n "pairwise_threshold": 1.0,\n "norm_threshold": 0.5,\n'
        b' "frac_pairs_above_threshold": 0.0,\n "frac_norms_below_threshold": 0.0\n}\n'
    )


def test_read_csv_skips_blank_and_comment_lines(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# meta\n\na,b\r\n  \r\n# note\n1,2.5\r\n\n3,x\n")
    header, rows = _read_csv(path)
    assert header == ["a", "b"]
    assert list(rows) == [["1", "2.5"], ["3", "x"]]
    path.write_text("# only a comment\n\n")
    header, rows = _read_csv(path)
    assert header is None and list(rows) == []
