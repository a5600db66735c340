import numpy as np
import pytest

from mvsc.data import (
    DatasetFormatError,
    MultiViewDataset,
    SynthSpec,
    ViewMatrix,
    generate_synthetic,
    load_dataset,
    normalize,
    save_dataset,
)


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(x) for x in row) for row in rows) + "\n")


class TestLoadDataset:
    def test_shapes_and_transpose(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1, 2], [3, 4], [5, 6], [7, 8]])
        write_csv(tmp_path / "view_2.csv", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
        ds = load_dataset(tmp_path)
        assert ds.n_samples == 4
        assert ds.dims == [2, 3]
        assert np.allclose(ds.views[0].values[:, 0], [1, 2])

    def test_sample_count_mismatch(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1], [2], [3], [4]])
        write_csv(tmp_path / "view_2.csv", [[1], [2], [3], [4], [5]])
        with pytest.raises(DatasetFormatError, match="view_2.csv"):
            load_dataset(tmp_path)

    def test_labels_kept_verbatim(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1], [2], [3]])
        (tmp_path / "labels.csv").write_text("0\n7\n0\n")
        ds = load_dataset(tmp_path)
        assert ds.labels.tolist() == [0, 7, 0]
        assert len(np.unique(ds.labels)) == 2

    def test_missing_views(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="no view"):
            load_dataset(tmp_path)

    def test_non_contiguous_indices(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1], [2]])
        write_csv(tmp_path / "view_3.csv", [[1], [2]])
        with pytest.raises(DatasetFormatError, match="contiguous"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("name", ["view_02.csv", "view_002.csv"])
    def test_zero_padded_name_rejected(self, tmp_path, name):
        # save_dataset writes view_<k>.csv, and refuses a directory holding another name
        write_csv(tmp_path / "view_1.csv", [[1], [2]])
        write_csv(tmp_path / name, [[1], [2]])
        with pytest.raises(DatasetFormatError, match=name):
            load_dataset(tmp_path)

    def test_ragged_row_reports_line(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("1,2\n3\n")
        with pytest.raises(DatasetFormatError, match=r"view_1\.csv:2"):
            load_dataset(tmp_path)

    def test_non_numeric_cell_reports_file_and_line(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("1,2\n3,oops\n")
        with pytest.raises(DatasetFormatError, match=r"view_1\.csv:2.*'oops'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_file_line_and_column(self, tmp_path, cell):
        (tmp_path / "view_1.csv").write_text(f"1,2\n3,{cell}\n")
        with pytest.raises(DatasetFormatError,
                           match=rf"view_1\.csv:2: column 2: non-finite value '{cell}'$"):
            load_dataset(tmp_path)

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("\n1,2\n\n  \n3,4\n\n")
        assert load_dataset(tmp_path).views[0].values.tolist() == [[1, 3], [2, 4]]

    def test_empty_file(self, tmp_path):
        (tmp_path / "view_1.csv").write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(tmp_path)

    def test_bad_labels(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1], [2]])
        (tmp_path / "labels.csv").write_text("0\n1.5\n")
        with pytest.raises(DatasetFormatError, match=r"labels\.csv:2"):
            load_dataset(tmp_path)

    def test_label_length_mismatch(self, tmp_path):
        write_csv(tmp_path / "view_1.csv", [[1], [2]])
        (tmp_path / "labels.csv").write_text("0\n")
        with pytest.raises(DatasetFormatError, match="1 labels for 2 samples"):
            load_dataset(tmp_path)


class TestSaveRoundTrip:
    def test_values_round_trip_exactly(self, tmp_path, rng):
        views = tuple(
            ViewMatrix(values=rng.standard_normal((d, 6)) * 10.0 ** rng.integers(-3, 4),
                       view_index=i)
            for i, d in enumerate((3, 5))
        )
        ds = MultiViewDataset(views=views, labels=np.array([0, 0, 1, 1, 2, 2]))
        save_dataset(ds, tmp_path / "out")
        back = load_dataset(tmp_path / "out")
        for a, b in zip(ds.views, back.views):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(ds.labels, back.labels)


class TestNormalize:
    def test_none_is_identity(self, rng):
        ds = MultiViewDataset(views=(ViewMatrix(rng.standard_normal((3, 4)), 0),))
        assert normalize(ds, "none") is ds

    def test_unit_l2_per_sample(self):
        ds = MultiViewDataset(views=(ViewMatrix(np.array([[3.0, 0.0], [4.0, 0.0]]), 0),))
        out = normalize(ds, "unit_l2_per_sample")
        assert np.allclose(out.views[0].values[:, 0], [0.6, 0.8])
        # zero column untouched
        assert np.allclose(out.views[0].values[:, 1], 0.0)

    def test_unit_norms_property(self, rng):
        ds = MultiViewDataset(views=(ViewMatrix(rng.standard_normal((5, 7)), 0),))
        out = normalize(ds, "unit_l2_per_sample")
        norms = np.linalg.norm(out.views[0].values, axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_minmax_per_feature(self):
        X = np.array([[0.0, 2.0, 4.0], [5.0, 5.0, 5.0]])
        out = normalize(MultiViewDataset(views=(ViewMatrix(X, 0),)), "minmax_per_feature")
        assert np.allclose(out.views[0].values[0], [0.0, 0.5, 1.0])
        assert np.allclose(out.views[0].values[1], 0.0)

    def test_unknown_scheme(self, rng):
        ds = MultiViewDataset(views=(ViewMatrix(rng.standard_normal((2, 3)), 0),))
        with pytest.raises(ValueError):
            normalize(ds, "zscore")


class TestGenerateSynthetic:
    def test_shape_and_label_contract(self):
        spec = SynthSpec(clusters=3, samples_per_cluster=30, view_dims=(10, 10, 10),
                         between_cluster_separation=5.0, seed=1)
        ds = generate_synthetic(spec)
        assert ds.n_samples == 90
        assert ds.dims == [10, 10, 10]
        assert np.bincount(ds.labels).tolist() == [30, 30, 30]

    def test_deterministic_in_spec(self):
        spec = SynthSpec(clusters=2, samples_per_cluster=5, view_dims=(4, 6), seed=42)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for va, vb in zip(a.views, b.views):
            assert np.array_equal(va.values, vb.values)
        assert np.array_equal(a.labels, b.labels)

    def test_noise_features_appended(self):
        spec = SynthSpec(clusters=3, samples_per_cluster=10, view_dims=(10, 10, 10),
                         noise_feature_counts=(0, 20, 0), seed=3)
        ds = generate_synthetic(spec)
        assert ds.dims == [10, 30, 10]

    def test_centroid_separation_honored(self):
        spec = SynthSpec(clusters=3, samples_per_cluster=20, view_dims=(8,),
                         within_cluster_std=1.0, between_cluster_separation=6.0, seed=5)
        ds = generate_synthetic(spec)
        X = ds.views[0].values
        centroids = np.stack([X[:, ds.labels == k].mean(axis=1) for k in range(3)])
        gaps = [np.linalg.norm(centroids[i] - centroids[j])
                for i in range(3) for j in range(i + 1, 3)]
        # empirical centroids wobble by ~std/sqrt(spp) around the target gap
        assert min(gaps) > 4.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(clusters=1, samples_per_cluster=5, view_dims=(3,))
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, samples_per_cluster=1, view_dims=(3,))
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, samples_per_cluster=5, view_dims=(3,),
                      between_cluster_separation=0.0)
        with pytest.raises(ValueError):
            SynthSpec(clusters=2, samples_per_cluster=5, view_dims=(3, 3),
                      noise_feature_counts=(1,))

    @pytest.mark.parametrize("kwargs", [
        {"within_cluster_std": 0.0},
        {"within_cluster_std": -1.0},
        {"view_dims": (3, 0)},
        {"view_dims": (3, 3), "noise_feature_counts": (0, -1)},
    ])
    def test_invalid_spec_fields_rejected(self, kwargs):
        spec = {"clusters": 2, "samples_per_cluster": 5, "view_dims": (3,), **kwargs}
        with pytest.raises(ValueError):
            SynthSpec(**spec)


class TestTypeInvariants:
    def test_view_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ViewMatrix(values=np.array([[1.0, np.nan]]), view_index=0)

    def test_view_matrix_rejects_single_sample(self):
        with pytest.raises(ValueError):
            ViewMatrix(values=np.array([[1.0]]), view_index=0)

    def test_dataset_rejects_inconsistent_views(self, rng):
        v1 = ViewMatrix(rng.standard_normal((2, 4)), 0)
        v2 = ViewMatrix(rng.standard_normal((3, 5)), 1)
        with pytest.raises(ValueError):
            MultiViewDataset(views=(v1, v2))

    @pytest.mark.parametrize("indices", [(0, 0), (5,), (1, 0)])
    def test_dataset_rejects_view_index_off_its_position(self, indices, rng):
        # save_dataset names view files by view_index: (0, 0) would write one
        # view_1.csv for two views, and (5,) a view_6.csv that no load accepts
        views = tuple(ViewMatrix(rng.standard_normal((3 + i, 4)), index)
                      for i, index in enumerate(indices))
        with pytest.raises(ValueError, match="view_index"):
            MultiViewDataset(views=views)

    def test_dataset_rejects_bad_label_length(self, rng):
        v1 = ViewMatrix(rng.standard_normal((2, 4)), 0)
        with pytest.raises(ValueError):
            MultiViewDataset(views=(v1,), labels=np.array([0, 1]))

    @pytest.mark.parametrize("labels", [np.array([[0, 1], [2, 3]]), np.array([[0, 1, 2, 3]]),
                                        np.array(2)])
    def test_dataset_rejects_labels_that_are_not_1d(self, labels, rng):
        # flattening [[0, 1], [2, 3]] would give 4 labels for 4 samples
        view = ViewMatrix(rng.standard_normal((2, 4)), 0)
        with pytest.raises(ValueError, match="labels must be 1-d"):
            MultiViewDataset(views=(view,), labels=labels)

    @pytest.mark.parametrize("labels", [[0.5, 1.7, 2.9, -0.4], [0, 1, 2, np.nan],
                                        [0.0, 1.0, 2.0, 1e19]])
    def test_dataset_rejects_non_integral_labels(self, labels, rng):
        # truncating [0.5, 1.7, 2.9, -0.4] to [0, 1, 2, 0] would merge two clusters
        view = ViewMatrix(rng.standard_normal((2, 4)), 0)
        with pytest.raises(ValueError, match="is not an integer|is outside int64"):
            MultiViewDataset(views=(view,), labels=labels)

    def test_dataset_takes_integral_float_labels_exactly(self, rng):
        view = ViewMatrix(rng.standard_normal((2, 4)), 0)
        labels = MultiViewDataset(views=(view,), labels=[0.0, 7.0, 1e3, -2.0]).labels
        assert labels.dtype == np.int64 and labels.tolist() == [0, 7, 1000, -2]

    @pytest.mark.parametrize("values", [np.ones(4), np.ones((2, 3, 4))])
    def test_view_matrix_rejects_non_matrix(self, values):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            ViewMatrix(values=values, view_index=0)

    def test_dataset_rejects_no_views(self):
        with pytest.raises(ValueError, match="at least one view"):
            MultiViewDataset(views=())
