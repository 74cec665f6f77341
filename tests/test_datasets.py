import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dynal.datasets import (
    Dataset,
    DatasetSpec,
    ImbalanceSpec,
    apply_imbalance,
    build_dataset,
    gen_concentric_rings,
    gen_gaussian_mixture,
    load_csv,
    nearest_mean_predict,
    save_csv,
    split,
)
from test_in_place import same_bits


def mixture_spec(**kw):
    base = dict(generator="gaussian_mixture", n_classes=4, dim=5, per_class=30,
                radius=4.0, noise=0.5, test_fraction=0.25, seed=3)
    base.update(kw)
    return DatasetSpec(**base)


def ref_gaussian_mixture(spec):
    """``gen_gaussian_mixture``'s earlier form, kept as the reference: each
    class block a fresh array, the blocks concatenated.  (X, y, class_means)."""
    rng = np.random.default_rng(spec.seed)
    dirs = rng.normal(size=(spec.n_classes, spec.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = spec.radius * dirs
    X = np.concatenate(
        [means[c] + spec.noise * rng.normal(size=(spec.per_class, spec.dim)) for c in range(spec.n_classes)]
    )
    y = np.repeat(np.arange(spec.n_classes), spec.per_class)
    return X, y.astype(np.int64), means


def ref_by_ids(ds, wanted):
    """``Dataset.by_ids``'s earlier form, kept as the reference: one
    searchsorted over the wanted ids in the order given."""
    order = np.argsort(ds.ids, kind="stable")
    sorted_ids = ds.ids[order]
    w = np.asarray(wanted).astype(np.intp)
    at = np.searchsorted(sorted_ids, w)
    found = at < len(sorted_ids)
    found[found] = sorted_ids[at[found]] == w[found]
    if not found.all():
        raise KeyError(int(w[~found][0]))
    return ds.take(order[at])


def same_rows(a, b):
    return same_bits(a.ids, b.ids) and same_bits(a.X, b.X) and same_bits(a.y, b.y)


class TestGaussianMixture:
    def test_zero_noise_collapses_to_means(self):
        ds = gen_gaussian_mixture(mixture_spec(noise=0.0))
        for c in range(4):
            rows = ds.X[ds.y == c]
            np.testing.assert_allclose(rows - ds.class_means[c], 0.0, atol=1e-12)

    def test_seeded_determinism_byte_identical_csv(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_csv(gen_gaussian_mixture(mixture_spec()), p1)
        save_csv(gen_gaussian_mixture(mixture_spec()), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_nearest_mean_perfect_when_well_separated(self):
        ds = gen_gaussian_mixture(mixture_spec(noise=0.05, radius=10.0))
        pred = nearest_mean_predict(ds.X, ds.class_means)
        assert (pred == ds.y).all()

    def test_counts_and_ids(self):
        ds = gen_gaussian_mixture(mixture_spec())
        assert len(ds) == 120
        assert len(set(ds.ids.tolist())) == 120
        np.testing.assert_array_equal(ds.class_counts(), [30, 30, 30, 30])

    @pytest.mark.parametrize("n_classes", range(2, 11))
    @pytest.mark.parametrize("per_class", [1, 300])
    @pytest.mark.parametrize("dim", [2, 12])
    @pytest.mark.parametrize("noise", [0.0, 1.1, 3.0])
    def test_matches_the_list_and_concatenate_form(self, noise, dim, per_class, n_classes):
        spec = mixture_spec(noise=noise, dim=dim, per_class=per_class, n_classes=n_classes,
                            seed=n_classes)
        ds = gen_gaussian_mixture(spec)
        got = (ds.X, ds.y, ds.class_means)
        assert [same_bits(a, b) for a, b in zip(got, ref_gaussian_mixture(spec))] == [True] * 3


class TestByIds:
    def test_given_order_kept(self):
        ds = gen_gaussian_mixture(mixture_spec())
        ds = ds.take(np.arange(len(ds))[::-1])  # ids no longer sorted
        wanted = [7, 0, 119, 7, 42]
        sub = ds.by_ids(wanted)
        np.testing.assert_array_equal(sub.ids, wanted)
        for k, sid in enumerate(wanted):
            np.testing.assert_array_equal(sub.X[k], ds.X[ds.ids == sid][0])
        assert len(ds.by_ids([])) == 0

    def test_index_built_once(self):
        ds = gen_gaussian_mixture(mixture_spec())
        ds.by_ids([1, 2])
        index = ds._id_index
        ds.by_ids([3])
        assert ds._id_index is index

    @pytest.mark.parametrize("unknown", [120, -1, 10**9])
    def test_unknown_id_is_key_error(self, unknown):
        ds = gen_gaussian_mixture(mixture_spec())
        with pytest.raises(KeyError, match=str(unknown)):
            ds.by_ids([3, unknown, 5])

    # Cast to ids, 7.9 would name id 7, and True and False ids 1 and 0.
    @pytest.mark.parametrize("wanted, bad", [([7.9], "7.9"), ([3, 2.0], "3.0"),
                                             (np.array([True, False]), "True")])
    def test_an_id_that_is_not_an_integer_is_named(self, wanted, bad):
        ds = gen_gaussian_mixture(mixture_spec())
        with pytest.raises(ValueError, match=f"^id {bad} is not an integer$"):
            ds.by_ids(wanted)

    def test_integer_ids_of_any_width_pass(self):
        ds = gen_gaussian_mixture(mixture_spec())
        for dtype in (np.uint8, np.int16, np.int32, np.uint64):
            np.testing.assert_array_equal(ds.by_ids(np.array([9, 2], dtype=dtype)).ids, [9, 2])

    @staticmethod
    def sparse_csv(tmp_path):
        """A CSV dataset whose ids are near 10**12, sparse and out of order."""
        rng = np.random.default_rng(8)
        ids = 10**12 + rng.choice(10**6, size=60, replace=False)
        ds = Dataset(ids, rng.normal(size=(60, 3)), np.arange(60) % 3, n_classes=3)
        save_csv(ds, tmp_path / "sparse.csv")
        return load_csv(tmp_path / "sparse.csv")

    @pytest.mark.parametrize("source", ["reversed mixture", "split train side", "csv near 1e12"])
    def test_matches_one_search_in_the_given_order(self, tmp_path, source):
        if source == "reversed mixture":
            ds = gen_gaussian_mixture(mixture_spec())
            ds = ds.take(np.arange(len(ds))[::-1])
        elif source == "split train side":
            ds = split(gen_gaussian_mixture(mixture_spec()), 0.3, seed=1)[0]
        else:
            ds = self.sparse_csv(tmp_path)
        rng = np.random.default_rng(5)
        ids = ds.ids
        for wanted in (rng.permutation(ids), rng.permutation(ids)[:17], ids[::-1], np.sort(ids),
                       ids[[4, 4, 0, 9, 4, 0]], rng.choice(ids, size=50), ids[:0]):
            assert same_rows(ds.by_ids(wanted), ref_by_ids(ds, wanted))
            assert same_rows(ds.by_ids(wanted.tolist()), ref_by_ids(ds, wanted))

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32,
                                       np.uint32, np.int64, np.uint64, np.intp, np.uintp])
    def test_matches_one_search_for_every_integer_dtype(self, dtype):
        ds = gen_gaussian_mixture(mixture_spec())
        ds = ds.take(np.random.default_rng(2).permutation(len(ds)))
        wanted = np.array([119, 3, 64, 3, 0, 100, 7], dtype=dtype)
        assert same_rows(ds.by_ids(wanted), ref_by_ids(ds, wanted))

    def test_key_error_names_the_first_missing_id_in_the_given_order(self):
        # -1 sorts first, so a check in ascending order would name it
        ds = gen_gaussian_mixture(mixture_spec())
        for lookup in (ds.by_ids, lambda w: ref_by_ids(ds, w)):
            with pytest.raises(KeyError) as excinfo:
                lookup([3, 10**9, 5, -1])
            assert excinfo.value.args == (10**9,)


class TestConcentricRings:
    def spec(self, **kw):
        base = dict(generator="concentric_rings", n_classes=2, dim=2, per_class=200,
                    radius=1.0, noise=0.05, test_fraction=0.25, seed=5)
        base.update(kw)
        return DatasetSpec(**base)

    def test_zero_noise_exact_radii(self):
        ds = gen_concentric_rings(self.spec(noise=0.0))
        norms = np.linalg.norm(ds.X, axis=1)
        for c in range(2):
            np.testing.assert_allclose(norms[ds.y == c], (c + 1) * 1.0, atol=1e-12)

    def test_seeded_determinism(self):
        a = gen_concentric_rings(self.spec())
        b = gen_concentric_rings(self.spec())
        np.testing.assert_array_equal(a.X, b.X)

    def test_radial_threshold_oracle(self):
        ds = gen_concentric_rings(self.spec())
        pred = (np.linalg.norm(ds.X, axis=1) > 1.5).astype(int)
        assert (pred == ds.y).mean() > 0.99

    def test_requires_dim_two(self):
        with pytest.raises(ValueError):
            gen_concentric_rings(self.spec(dim=3))


class TestApplyImbalance:
    def balanced(self, per_class=1000, C=10, seed=0):
        return gen_gaussian_mixture(mixture_spec(per_class=per_class, n_classes=C, seed=seed))

    def test_step_profile_counts(self):
        ds = self.balanced()
        out = apply_imbalance(ds, ImbalanceSpec(ratio=10, profile="step",
                                              minor_classes=[5, 6, 7, 8, 9]))
        np.testing.assert_array_equal(out.class_counts(), [1000] * 5 + [100] * 5)

    def test_ratio_one_is_identity(self):
        ds = self.balanced(per_class=50, C=3)
        out = apply_imbalance(ds, ImbalanceSpec(ratio=1))
        np.testing.assert_array_equal(np.sort(out.ids), np.sort(ds.ids))
        assert out is ds  # datasets are immutable by convention: no copy

    def test_exponential_profile_counts(self):
        ds = self.balanced(per_class=100, C=3)
        out = apply_imbalance(ds, ImbalanceSpec(ratio=100, profile="exponential"))
        np.testing.assert_array_equal(out.class_counts(), [100, 10, 1])

    def test_emptying_a_class_is_an_error(self):
        ds = self.balanced(per_class=5, C=3)
        with pytest.raises(ValueError):
            apply_imbalance(ds, ImbalanceSpec(ratio=10, profile="step", minor_classes=[2]))

    @pytest.mark.parametrize("minor", [[5], [-1], [1, 4]])
    def test_minor_class_out_of_range_is_named(self, minor):
        ds = self.balanced(per_class=20, C=4)
        bad = [c for c in minor if not 0 <= c < 4][0]
        with pytest.raises(ValueError, match=f"minor class {bad} out of range for 4 classes"):
            apply_imbalance(ds, ImbalanceSpec(ratio=4, profile="step", minor_classes=minor))

    def test_minor_classes_under_exponential_profile_rejected(self):
        with pytest.raises(ValueError, match="not 'exponential'"):
            ImbalanceSpec(ratio=4, profile="exponential", minor_classes=[3])

    @pytest.mark.parametrize("ratio", [1, 3])
    @pytest.mark.parametrize("minor, repeated", [([2, 2, 3], 2), ([3, 2, 3], 3)])
    def test_repeated_minor_class_is_named(self, ratio, minor, repeated):
        # A repeat would count its class twice in the minor-class accuracy.
        with pytest.raises(ValueError, match=f"repeated minor class {repeated}"):
            ImbalanceSpec(ratio=ratio, minor_classes=minor)

    def test_named_minor_class_range_checked_at_ratio_one(self):
        ds = self.balanced(per_class=20, C=4)
        with pytest.raises(ValueError, match="minor class 5 out of range for 4 classes"):
            apply_imbalance(ds, ImbalanceSpec(ratio=1, minor_classes=[5]))

    @pytest.mark.parametrize("ratio", [1, 5])
    def test_empty_minor_class_list_rejected(self, ratio):
        # An empty list would keep every sample, so a "long-tailed" set would be balanced.
        with pytest.raises(ValueError, match="name a class, or leave the key out"):
            ImbalanceSpec(ratio=ratio, minor_classes=[])

    def test_minor_classes_for(self):
        assert ImbalanceSpec().minor_classes_for(4) == []
        assert ImbalanceSpec(ratio=1, minor_classes=[3]).minor_classes_for(4) == []
        assert ImbalanceSpec(ratio=4, minor_classes=[0, 2]).minor_classes_for(4) == [0, 2]
        assert ImbalanceSpec(ratio=4).minor_classes_for(5) == [2, 3, 4]
        assert ImbalanceSpec(ratio=4, profile="exponential").minor_classes_for(4) == [1, 2, 3]

    def test_step_default_cuts_the_minor_classes_for_its_dataset(self):
        ds = self.balanced(per_class=40, C=5)
        out = apply_imbalance(ds, ImbalanceSpec(ratio=4, profile="step"))
        np.testing.assert_array_equal(out.class_counts(), [40, 40, 10, 10, 10])

    def test_never_edits_features_or_labels(self):
        ds = self.balanced(per_class=40, C=4)
        out = apply_imbalance(ds, ImbalanceSpec(ratio=4, profile="step", minor_classes=[2, 3]),
                              seed=9)
        lookup = {int(i): k for k, i in enumerate(ds.ids)}
        for k, sid in enumerate(out.ids):
            src = lookup[int(sid)]
            np.testing.assert_array_equal(out.X[k], ds.X[src])
            assert out.y[k] == ds.y[src]

    def test_achieved_ratio_within_rounding(self):
        ds = self.balanced(per_class=333, C=6)
        for ratio in (2, 7, 10):
            out = apply_imbalance(ds, ImbalanceSpec(ratio=ratio, profile="step",
                                                  minor_classes=[4, 5]))
            counts = out.class_counts()
            achieved = counts.max() / counts.min()
            assert abs(achieved - ratio) / ratio <= 1.0 / counts.min()


class TestSplit:
    def test_half_split_balanced(self):
        ds = self.make(10, 4)
        train, test = split(ds, 0.5, seed=0)
        np.testing.assert_array_equal(train.class_counts(), [5] * 4)
        np.testing.assert_array_equal(test.class_counts(), [5] * 4)

    def make(self, per_class, C):
        return gen_gaussian_mixture(mixture_spec(per_class=per_class, n_classes=C))

    def test_disjoint_and_covering(self):
        ds = self.make(17, 3)
        train, test = split(ds, 0.3, seed=2)
        train_ids = set(train.ids.tolist())
        test_ids = set(test.ids.tolist())
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(ds.ids.tolist())

    def test_stratification_within_one_sample(self):
        ds = self.make(23, 5)
        train, test = split(ds, 0.37, seed=4)
        for c in range(5):
            want = 23 * 0.37
            got = test.class_counts()[c]
            assert abs(got - want) <= 1.0

    def test_singleton_class_goes_to_train(self):
        base = self.make(6, 2)
        keep = np.flatnonzero(base.y == 0).tolist() + [int(np.flatnonzero(base.y == 1)[0])]
        ds = base.take(np.array(keep))
        with pytest.warns(UserWarning):
            train, test = split(ds, 0.5, seed=0)
        assert (train.y == 1).sum() == 1
        assert (test.y == 1).sum() == 0

    def test_no_class_of_two_samples_is_rejected(self):
        ds = self.make(1, 3)
        with pytest.raises(ValueError, match="no class has two samples, so the test split"):
            split(ds, 0.25, seed=0)


class TestCsvRoundTrip:
    def test_round_trip_lossless(self, tmp_path):
        ds = gen_gaussian_mixture(mixture_spec())
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.ids, ds.ids)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.X, ds.X)  # exact: repr round-trips

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,feature_0,feature_1\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="line 1"):
            load_csv(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,feature_0,label\n0,1.0,0\n1,oops,1\n")
        with pytest.raises(ValueError, match="line 3"):
            load_csv(path)

    def test_non_contiguous_ids_preserved(self, tmp_path):
        ds = Dataset(
            ids=np.array([5, 99, 7]),
            X=np.array([[0.5], [1.5], [-2.0]]),
            y=np.array([0, 1, 0]),
            n_classes=2,
        )
        path = tmp_path / "gap.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.ids, [5, 99, 7])


    def test_repeated_id_names_id_and_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("id,feature_0,label\n4,1.0,0\n\n7,2.0,1\n4,3.0,1\n")
        with pytest.raises(ValueError, match=r"line 5: repeated sample id 4 \(first on line 2\)"):
            load_csv(path)

    def test_repeated_id_in_a_built_dataset_is_named(self):
        ds = Dataset(ids=np.array([9, 5, 7, 5, 9]), X=np.zeros((5, 1)),
                     y=np.array([0, 1, 0, 1, 0]), n_classes=2)
        with pytest.raises(ValueError, match="repeated sample id 5"):
            ds.by_ids([5, 7])

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "nan.csv"
        path.write_text(f"id,feature_0,feature_1,label\n0,1.0,2.0,0\n\n1,0.5,{cell},1\n")
        with pytest.raises(ValueError, match="line 4: non-finite feature"):
            load_csv(path)

    def test_label_gap_names_missing_class(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("id,feature_0,label\n0,1.0,0\n1,2.0,3\n2,3.0,1\n")
        with pytest.raises(ValueError, match=r"labels skip class 2 of 0\.\.3"):
            load_csv(path)

    def test_one_class_names_the_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("id,feature_0,label\n0,1.0,0\n1,2.0,0\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: labels cover one class; at least two")):
            load_csv(path)


@st.composite
def csv_datasets(draw):
    """Datasets load_csv accepts: distinct ids, labels covering 0..max,
    at least two classes."""
    n, dim = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(-2**62, 2**62), min_size=n, max_size=n, unique=True))
    X = draw(arrays(np.float64, (n, dim),
                    elements=st.floats(allow_nan=False, allow_infinity=False)))
    raw = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)
               .filter(lambda r: len(set(r)) > 1))
    y = np.unique(raw, return_inverse=True)[1].astype(np.int64)
    return Dataset(np.array(ids, dtype=np.int64), X, y, int(y.max()) + 1)


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_datasets())
def test_save_then_load_returns_the_same_data(tmp_path, ds):
    path = tmp_path / "round.csv"
    save_csv(ds, path)
    back = load_csv(path)
    for a, b in ((back.ids, ds.ids), (back.X, ds.X), (back.y, ds.y)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    assert back.n_classes == ds.n_classes


class TestBuildDataset:
    def test_balanced_test_with_imbalanced_train(self):
        spec = mixture_spec(
            per_class=40, n_classes=4,
            imbalance=ImbalanceSpec(ratio=10, profile="step", minor_classes=[2, 3]),
        )
        train, test = build_dataset(spec)
        np.testing.assert_array_equal(test.class_counts(), [10] * 4)
        counts = train.class_counts()
        assert counts[0] == counts[1] == 30
        assert counts[2] == counts[3] == 3

    def test_named_minor_class_range_checked_at_ratio_one(self):
        spec = mixture_spec(imbalance=ImbalanceSpec(minor_classes=[9]))
        with pytest.raises(ValueError, match="minor class 9 out of range for 4 classes"):
            build_dataset(spec)

    def test_pure_function_of_spec(self):
        a_train, a_test = build_dataset(mixture_spec())
        b_train, b_test = build_dataset(mixture_spec())
        np.testing.assert_array_equal(a_train.X, b_train.X)
        np.testing.assert_array_equal(a_test.ids, b_test.ids)

    @pytest.mark.parametrize("field", ["noise", "radius"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_geometry_rejected(self, field, value):
        with pytest.raises(ValueError, match="radius and noise must be finite"):
            mixture_spec(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            mixture_spec(seed=-1)

    @pytest.mark.parametrize("kw, message", [
        (dict(generator="csv_file"), "csv_file generator requires csv_path"),
        (dict(generator="concentric_rings", dim=3), "concentric_rings is defined for dim = 2"),
        (dict(generator="gaussian_mixture", dim=1), "gaussian_mixture needs dim >= 2"),
    ])
    def test_generator_faults_rejected_by_the_spec(self, kw, message):
        with pytest.raises(ValueError, match=message):
            DatasetSpec(**kw)

    def test_imbalance_spec_kept(self):
        spec = mixture_spec(imbalance=ImbalanceSpec(ratio=2.0, profile="step"))
        assert isinstance(spec.imbalance, ImbalanceSpec)
        assert spec.imbalance.ratio == 2.0
