import csv
import io
import math
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import marginleak as ml
from marginleak.cli import main
from test_model import FILE_FLOATS, SPECIAL_FLOATS, same_bits


class TestSpecValidation:
    def test_sphere_takes_no_means(self):
        with pytest.raises(ValueError):
            ml.DistributionSpec("uniform-sphere", 3, ((1.0, 0.0, 0.0),))

    def test_mixture_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ml.DistributionSpec(
                "gaussian-mixture", 2, ((1.0, 0.0), (-1.0, 0.0)), (0.6, 0.6)
            )

    def test_mean_dimension_checked(self):
        with pytest.raises(ValueError):
            ml.DistributionSpec("gaussian", 3, ((1.0, 0.0),))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ml.DistributionSpec("poisson", 3)

    def test_mixture_weights_default_uniform(self):
        spec = ml.DistributionSpec("gaussian-mixture", 2, ((1.0, 0.0), (-1.0, 0.0)))
        assert spec.mixture_weights == (0.5, 0.5)


class TestSample:
    def test_sphere_norms_exact(self):
        batch = ml.sample(ml.DistributionSpec("uniform-sphere", 4, rng_seed=0), 3)
        norms_sq = np.sum(batch.points**2, axis=1)
        np.testing.assert_allclose(norms_sq, 4.0, rtol=1e-9)

    def test_gaussian_near_orthogonal_in_high_dimension(self):
        # Monte-Carlo: |x1 . x2| / d < 0.05 should fail at most twice in 100.
        failures = 0
        for seed in range(100):
            batch = ml.sample(ml.DistributionSpec("gaussian", 10_000, rng_seed=seed), 2)
            inner = abs(float(batch.points[0] @ batch.points[1]))
            if inner / 10_000 >= 0.05:
                failures += 1
        assert failures <= 2

    def test_degenerate_mixture_weight_pins_component(self):
        spec = ml.DistributionSpec(
            "gaussian-mixture", 2, ((5.0, 0.0), (-5.0, 0.0)), (1.0, 0.0), rng_seed=1
        )
        batch = ml.sample(spec, 20)
        assert np.all(batch.components == 0)

    def test_deterministic_per_seed(self):
        spec = ml.two_gaussian_mixture(3, rng_seed=9)
        a = ml.sample(spec, 5)
        b = ml.sample(spec, 5)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.components, b.components)

    def test_sphere_and_gaussian_have_no_components(self):
        assert ml.sample(ml.DistributionSpec("uniform-sphere", 2), 2).components is None
        assert ml.sample(ml.DistributionSpec("gaussian", 2), 2).components is None

    def test_mixture_adds_means_in_blocks(self):
        # The same draws as means[comp] + normal, bit for bit, without an
        # (n, d) copy of the means: the peak stays near one (n, d) array plus
        # a 1 MiB block, well below the two (n, d) arrays of the plain sum.
        spec = ml.two_gaussian_mixture(1000, rng_seed=5)
        n, d = 1000, 1000
        tracemalloc.start()
        try:
            batch = ml.sample(spec, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rng = np.random.default_rng(5)
        comp = rng.choice(2, size=n, p=np.array(spec.mixture_weights))
        want = np.array(spec.means)[comp] + rng.standard_normal((n, d))
        assert same_bits(batch.points, want)
        np.testing.assert_array_equal(batch.components, comp)
        assert peak < 1.25 * n * d * 8, f"peak {peak / 1e6:.1f} MB"

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            ml.sample(ml.DistributionSpec("gaussian", 2), 0)


class TestLabelByComponent:
    def test_two_component_mapping(self):
        np.testing.assert_array_equal(
            ml.label_by_component([0, 1, 0]), np.array([1.0, -1.0, 1.0])
        )

    def test_single_component(self):
        np.testing.assert_array_equal(ml.label_by_component([0, 0]), np.array([1.0, 1.0]))

    def test_three_components_rejected(self):
        with pytest.raises(ValueError):
            ml.label_by_component([0, 1, 2])


class TestCheckAssumption:
    def test_orthogonal_pair(self):
        points = np.array([[1.0, 0.0], [0.0, 1.0]])
        report = ml.check_assumption(points)
        assert report.max_abs_inner == 0.0
        assert report.ratio == 0.0

    def test_duplicated_point_violates_grossly(self):
        x = np.array([3.0, 4.0])
        points = np.vstack([x, x, np.array([0.1, -0.2])])
        report = ml.check_assumption(points)
        assert report.max_abs_inner == pytest.approx(float(x @ x))
        assert report.ratio >= report.n

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            ml.check_assumption(np.ones((1, 3)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("points", [[[0.0, 0.0], [1.0, 1.0]],
                                        [[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]]])
    def test_point_at_origin_gives_infinite_ratio(self, points):
        # Delta = 0 breaks the norm condition, whether delta is 0 or not.
        report = ml.check_assumption(np.array(points))
        assert report.min_sq_norm == 0.0
        assert report.ratio == math.inf

    def test_sphere_ratio_small_at_prescribed_sample_size(self):
        # The sphere satisfies the near-orthogonality assumption for
        # n = o(sqrt(d) / log d); at d = 10000 that allows n around 10, where
        # the ratio sits comfortably below 1/2.
        hits = 0
        for seed in range(20):
            batch = ml.sample(ml.DistributionSpec("uniform-sphere", 10_000, rng_seed=seed), 10)
            if ml.check_assumption(batch.points).ratio < 0.5:
                hits += 1
        assert hits >= 19

    def test_sphere_ratio_concentration_at_larger_sample(self):
        # With n = 30 the max over the 435 pairwise inner products scales like
        # sqrt(2 log n^2) * sqrt(d), putting the ratio near 30 * 3.5 / sqrt(d)
        # (about 1 at d = 10000), well above the n ~ sqrt(d)/log d regime.
        ratios = []
        for seed in range(20):
            batch = ml.sample(ml.DistributionSpec("uniform-sphere", 10_000, rng_seed=seed), 30)
            ratios.append(ml.check_assumption(batch.points).ratio)
        assert 0.6 < np.median(ratios) < 1.6

    def test_sphere_min_norm_is_dimension(self):
        batch = ml.sample(ml.DistributionSpec("uniform-sphere", 64, rng_seed=3), 10)
        report = ml.check_assumption(batch.points)
        assert report.min_sq_norm == pytest.approx(64.0, rel=1e-9)

    def test_ratio_monotone_in_effective_count(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(6, 20))
        r1 = ml.check_assumption(points, n_effective=6).ratio
        r2 = ml.check_assumption(points, n_effective=12).ratio
        assert r2 == pytest.approx(2.0 * r1)


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(seed=st.integers(0, 1000))
def test_summary_invariant_under_permutation(seed):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(5, 8))
    perm = rng.permutation(5)
    a = ml.check_assumption(points)
    b = ml.check_assumption(points[perm])
    assert a.max_abs_inner == pytest.approx(b.max_abs_inner)
    assert a.min_sq_norm == pytest.approx(b.min_sq_norm)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        data = ml.LabeledDataset(rng.normal(size=(5, 3)), rng.choice([-1.0, 1.0], 5))
        path = tmp_path / "data.csv"
        ml.write_dataset_csv(data, path)
        back = ml.read_dataset_csv(path)
        np.testing.assert_array_equal(back.points, data.points)
        np.testing.assert_array_equal(back.labels, data.labels)

    def test_header_carries_shape(self, tmp_path):
        data = ml.LabeledDataset(np.zeros((2, 3)), np.array([1.0, -1.0]))
        path = tmp_path / "data.csv"
        ml.write_dataset_csv(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# labeled-dataset d=3 n=2"
        assert lines[1] == "x0,x1,x2,label"

    def test_malformed_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x0,label\nnot-a-number,1\n")
        with pytest.raises(ml.FileFormatError):
            ml.read_dataset_csv(path)
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ml.FileFormatError):
            ml.read_dataset_csv(path)

    @pytest.mark.parametrize("body, points, labels", [
        ('x0,label\n"0.5",1\n', [[0.5]], [1.0]),
        ("x0,label\n\n# a note\n0.5,1\n  \n# another\n-0.5,-1\n", [[0.5], [-0.5]], [1.0, -1.0]),
    ], ids=["quoted-cell", "blank-and-comment-lines-between-rows"])
    def test_accepted_layouts(self, tmp_path, body, points, labels):
        path = tmp_path / "data.csv"
        path.write_text(body)
        data = ml.read_dataset_csv(path)
        assert data.points.tolist() == points and data.labels.tolist() == labels

    @pytest.mark.parametrize("body", [
        "x0,x1,label\n0.5,1.0,1\n0.5,1\n",
        "x0,x1,label\nnan,1.0,1\n",
        "x0,x1,label\n0.5,inf,-1\n",
        "x0,x1,label\n1e309,1.0,1\n",
        "x0,x1,label\n0.5,1.0,yes\n",
        "# labeled-dataset d=2 n=0\nx0,x1,label\n",
        "x0,x1,label\n0.5,1.0,1 # not a comment\n",
    ], ids=["ragged-row", "nan-cell", "inf-cell", "overflowing-cell", "non-numeric-label",
            "no-data-rows", "hash-inside-row"])
    def test_malformed_file_rejected_and_train_exits_2(self, tmp_path, capsys, body):
        path = tmp_path / "bad.csv"
        path.write_text(body)
        with pytest.raises(ml.FileFormatError):
            ml.read_dataset_csv(path)
        model = tmp_path / "model.json"
        assert main(["train", "--data", str(path), "--out-model", str(model),
                     "--out-trace", str(tmp_path / "trace.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not model.exists()



@hypothesis.settings(
    deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    d=st.integers(1, 4), n=st.integers(1, 4),
    values=st.lists(FILE_FLOATS, min_size=16, max_size=16),
    labels=st.lists(st.sampled_from([-1.0, 1.0]), min_size=4, max_size=4),
)
@hypothesis.example(d=1, n=1, values=(SPECIAL_FLOATS * 3)[:16], labels=[1.0] * 4)
@hypothesis.example(d=4, n=4, values=(SPECIAL_FLOATS * 3)[:16], labels=[-1.0, 1.0] * 2)
def test_dataset_file_matches_csv_module_and_round_trips(tmp_path, d, n, values, labels):
    data = ml.LabeledDataset(np.reshape(values[: n * d], (n, d)), np.array(labels[:n]))
    path = tmp_path / "data.csv"
    ml.write_dataset_csv(data, path)
    expected = io.StringIO(newline="")
    expected.write(f"# labeled-dataset d={d} n={n}\n")
    writer = csv.writer(expected)
    writer.writerow([f"x{i}" for i in range(d)] + ["label"])
    writer.writerows(row + [int(y)] for row, y in zip(data.points.tolist(), labels))
    assert path.read_bytes() == expected.getvalue().encode()
    back = ml.read_dataset_csv(path)
    assert same_bits(back.points, data.points)
    assert same_bits(back.labels, data.labels)


def test_reading_a_large_dataset_streams_the_file(tmp_path):
    # The 250 x 1000 file is 4.9 MB and its parsed values 2 MB.  Read line by
    # line, the peak is the parsed rows plus the result (about 4.4 MB); any
    # copy of the whole text would put it above the bound.
    rng = np.random.default_rng(0)
    data = ml.LabeledDataset(rng.normal(size=(250, 1000)), np.tile([-1.0, 1.0], 125))
    path = tmp_path / "big.csv"
    ml.write_dataset_csv(data, path)
    tracemalloc.start()
    try:
        back = ml.read_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert same_bits(back.points, data.points)
    assert peak <= 6e6, f"peak {peak / 1e6:.1f} MB"
