"""Synthetic generation, CSV pools, and the triple resampling protocol."""

import numpy as np
import pytest

from pnu.datasets import (
    GAUSSIAN_MEAN,
    InsufficientDataError,
    LabeledPool,
    SampleTriple,
    gen_gaussian_artificial,
    gen_gaussian_labeled,
    load_csv,
    sample_triple_from_pool,
)
from pnu.models import EmpiricalKernelMap


def _set_bytes(triple):
    """The shape and bytes of each of the triple's three sets."""
    return [(x.shape, x.tobytes()) for x in (triple.x_pos, triple.x_neg, triple.x_unl)]


def _reference_mixture(rng, n, pi):
    """The mixture draw as one broadcast expression: coins, normals, then the offsets."""
    latent = np.where(rng.random(n) < pi, 1, -1)
    return rng.standard_normal((n, 2)) + latent[:, None] * GAUSSIAN_MEAN, latent


class TestGaussianArtificial:
    def test_shapes(self):
        triple = gen_gaussian_artificial(45, 5, 100, 0.5, 0)
        assert triple.x_pos.shape == (45, 2)
        assert triple.x_neg.shape == (5, 2)
        assert triple.x_unl.shape == (100, 2)
        assert triple.pi == 0.5

    def test_mixture_mean_is_zero_at_half(self):
        """With pi = 1/2 the mixture mean is the origin; check within 3 sigma."""
        triple = gen_gaussian_artificial(0, 0, 1_000_000, 0.5, 123)
        mean = triple.x_unl.mean(axis=0)
        # per-coordinate mixture variance is 1 + mu^2 = 1.5
        bound = 3.0 * np.sqrt(1.5) / np.sqrt(1_000_000)
        assert np.all(np.abs(mean) < bound)

    def test_class_means(self):
        triple = gen_gaussian_artificial(200_000, 200_000, 1, 0.5, 5)
        np.testing.assert_allclose(triple.x_pos.mean(axis=0), GAUSSIAN_MEAN, atol=0.01)
        np.testing.assert_allclose(triple.x_neg.mean(axis=0), -GAUSSIAN_MEAN, atol=0.01)

    def test_deterministic(self):
        a = gen_gaussian_artificial(10, 10, 10, 0.3, 99)
        b = gen_gaussian_artificial(10, 10, 10, 0.3, 99)
        assert _set_bytes(a) == _set_bytes(b)
        assert np.array_equal(a.x_unl, b.x_unl)

    def test_rejects_degenerate_prior(self):
        for pi in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gen_gaussian_artificial(1, 1, 1, pi, 0)

    @pytest.mark.parametrize("draw, field", [
        (lambda: gen_gaussian_artificial(2.5, 1, 1, 0.5, 0), "n_pos"),
        (lambda: gen_gaussian_artificial(1, 1, True, 0.5, 0), "n_unl"),
        (lambda: gen_gaussian_labeled(-1, 0.5, 0), "n"),
    ], ids=["artificial-float", "artificial-bool", "labeled-negative"])
    def test_rejects_bad_sizes_by_name(self, draw, field):
        with pytest.raises(ValueError, match=rf"^{field} must be a non-negative integer"):
            draw()

    @pytest.mark.parametrize("n", [0, 1, 7, 100_000])
    @pytest.mark.parametrize("pi", [0.05, 0.5, 0.95])
    def test_mixture_draws_match_the_reference_bytes(self, n, pi):
        for seed in (0, 1, 2**40 + 3):
            want_x, want_y = _reference_mixture(np.random.default_rng(seed), n, pi)
            x, y = gen_gaussian_labeled(n, pi, seed)
            assert y.dtype == np.int64 and y.tobytes() == want_y.tobytes()
            assert x.shape == (n, 2) and x.tobytes() == want_x.tobytes()
            rng = np.random.default_rng(seed)
            rng.standard_normal((3, 2)), rng.standard_normal((4, 2))  # positives, negatives
            want_unl, _ = _reference_mixture(rng, n, pi)
            triple = gen_gaussian_artificial(3, 4, n, pi, seed)
            assert triple.x_unl.shape == (n, 2) and triple.x_unl.tobytes() == want_unl.tobytes()

    def test_latent_frequency(self):
        """Over 1e4 one-point draws the latent positive rate concentrates at pi."""
        pi = 0.3
        hits = 0
        for seed in range(10_000):
            _, labels = gen_gaussian_labeled(1, pi, seed)
            hits += int(labels[0] == 1)
        freq = hits / 10_000
        assert abs(freq - pi) <= 4.0 * np.sqrt(pi * (1 - pi) / 10_000)

    def test_labeled_draw_matches_triple_distribution(self):
        feats, labels = gen_gaussian_labeled(200_000, 0.7, 12)
        assert set(np.unique(labels)) == {-1, 1}
        assert abs(np.mean(labels == 1) - 0.7) < 0.005
        pos_mean = feats[labels == 1].mean(axis=0)
        np.testing.assert_allclose(pos_mean, GAUSSIAN_MEAN, atol=0.02)


class TestSampleTripleType:
    def test_dimension_consistency_enforced(self):
        with pytest.raises(ValueError):
            SampleTriple(
                x_pos=np.zeros((2, 3)), x_neg=np.zeros((2, 2)), x_unl=np.zeros((2, 3)), pi=0.5
            )

    def test_prior_must_be_a_real_number(self):
        rows = np.zeros((2, 2))
        with pytest.raises(ValueError, match=r"pi must be strictly inside \(0, 1\)"):
            SampleTriple(x_pos=rows, x_neg=rows, x_unl=rows, pi="0.5")

    @pytest.mark.parametrize("field", ["x_pos", "x_neg", "x_unl"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rows_must_be_finite(self, field, value):
        sets = {name: np.zeros((2, 2)) for name in ("x_pos", "x_neg", "x_unl")}
        sets[field][1, 0] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SampleTriple(**sets, pi=0.5)

    def test_immutable_rows(self):
        triple = gen_gaussian_artificial(3, 3, 3, 0.5, 0)
        with pytest.raises(ValueError):
            triple.x_pos[0, 0] = 7.0

    def test_caller_arrays_stay_writable(self):
        """The frozen sets, anchors and pool features are copies of the caller's arrays."""
        x, a, f = np.zeros((3, 2)), np.zeros((4, 2)), np.zeros((2, 2))
        triple = SampleTriple(x_pos=x, x_neg=x, x_unl=x, pi=0.5)
        fmap = EmpiricalKernelMap(a, 1.0)
        pool = LabeledPool(features=f, labels=np.array([1, -1]))
        for arr in (x, a, f):
            arr[0, 0] = 1.0
        assert triple.x_pos[0, 0] == fmap.anchors[0, 0] == pool.features[0, 0] == 0.0
        for frozen in (triple.x_pos, fmap.anchors, pool.features):
            assert not frozen.flags.writeable


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


class TestLoadCsv:
    def test_banana_format(self, tmp_path):
        """Two features plus a label column, 5300 rows."""
        rng = np.random.default_rng(0)
        rows = [
            (rng.normal(), rng.normal(), 1 if rng.random() < 0.448 else -1)
            for _ in range(5300)
        ]
        path = _write_csv(tmp_path / "banana.csv", ("x1", "x2", "label"), rows)
        pool = load_csv(path, "label")
        assert pool.features.shape[1] == 2
        assert pool.size == 5300
        assert 0.4 < np.mean(pool.labels == 1) < 0.5

    def test_zero_one_labels_map_to_signs(self, tmp_path):
        path = _write_csv(
            tmp_path / "zo.csv", ("a", "y"), [(0.1, 0), (0.2, 1), (0.3, 0), (0.4, 1)]
        )
        pool = load_csv(path, "y")
        assert np.array_equal(pool.labels, [-1, 1, -1, 1])

    def test_three_label_values_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "bad.csv", ("a", "y"), [(1, 0), (2, 1), (3, 2)])
        with pytest.raises(ValueError, match="two distinct"):
            load_csv(path, "y")

    def test_label_column_by_index(self, tmp_path):
        path = _write_csv(tmp_path / "idx.csv", ("y", "a"), [(1, 0.5), (-1, 0.25)])
        pool = load_csv(path, 0)
        assert pool.features.shape[1] == 1
        assert set(pool.labels.tolist()) == {-1, 1}

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b,y\n1,2,1\n3,4\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3 fields"):
            load_csv(path, "y")

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "nn.csv", ("a", "y"), [("oops", 1), (2.0, -1)])
        with pytest.raises(ValueError, match="non-numeric"):
            load_csv(path, "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_rejected(self, tmp_path, cell):
        path = _write_csv(tmp_path / "nf.csv", ("x1", "x2", "y"),
                          [(0.1, 1.0, 1), (0.2, cell, -1), (0.3, 2.0, 1), (0.4, 3.0, -1)])
        with pytest.raises(ValueError, match=rf"nf\.csv:3: non-finite feature value '{cell}'"):
            load_csv(path, "y")

    @pytest.mark.parametrize("text, label, message", [
        ("", "y", "empty file"),
        ("a,y\n", "y", "no data rows"),
        ("a,y\n1,1\n2,-1\n", "label", "label column 'label' not found in header"),
        ("a,y\n1,1\n2,-1\n", 2, "label column index 2 out of range"),
        ("a,y\n1,1\n2,-1\n", -3, "label column index -3 out of range"),
    ])
    def test_unusable_file_rejected(self, tmp_path, text, label, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=rf"bad\.csv: {message}"):
            load_csv(path, label)

    def test_blank_lines_skipped_and_text_labels_sorted(self, tmp_path):
        """Non-numeric labels map lexicographically: the earlier string is -1."""
        path = tmp_path / "text.csv"
        path.write_text("a,y\n0.1,pos\n\n0.2,neg\n0.3,pos\n\n", encoding="utf-8")
        pool = load_csv(path, "y")
        assert np.array_equal(pool.labels, [1, -1, 1])

    def test_label_only_file_rejected(self, tmp_path):
        path = _write_csv(tmp_path / "lo.csv", ("y",), [(1,), (-1,), (1,), (-1,)])
        with pytest.raises(ValueError, match="no feature column"):
            load_csv(path, "y")

    def test_standardization(self, tmp_path):
        rng = np.random.default_rng(1)
        rows = [(rng.normal(5, 3), rng.normal(-2, 0.5), rng.choice([0, 1])) for _ in range(400)]
        path = _write_csv(tmp_path / "std.csv", ("a", "b", "y"), rows)
        pool = load_csv(path, "y")
        np.testing.assert_allclose(pool.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(pool.features.std(axis=0), 1.0, atol=1e-12)


def _toy_pool(m=200, p_ratio=0.5, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(m) < p_ratio, 1, -1)
    # one distinguishing feature plus a unique row id, so rows are identifiable
    feats = np.column_stack([labels * 1.0, np.arange(m, dtype=float)])
    return LabeledPool(features=feats, labels=labels)


def _row_ids(triple):
    """Pool row indices of a triple's positive, negative and unlabeled rows."""
    return np.concatenate([triple.x_pos[:, 1], triple.x_neg[:, 1], triple.x_unl[:, 1]]).astype(int)


class TestPoolSampling:
    def test_shapes_and_holdout_size(self):
        pool = _toy_pool(m=5300, seed=3)
        triple, holdout = sample_triple_from_pool(pool, 25, 5, 300, 0.5, 0)
        assert triple.x_pos.shape == (25, 2)
        assert triple.x_neg.shape == (5, 2)
        assert triple.x_unl.shape == (300, 2)
        assert holdout.size == 5300 - 330

    def test_holdout_capped(self):
        pool = _toy_pool(m=11_000, seed=4)
        _, holdout = sample_triple_from_pool(pool, 10, 10, 10, 0.5, 0)
        assert holdout.size == 10_000

    def test_disjoint_from_holdout(self):
        pool = _toy_pool(m=500, seed=5)
        triple, holdout = sample_triple_from_pool(pool, 20, 20, 50, 0.5, 1)
        assert set(_row_ids(triple).tolist()).isdisjoint(holdout.features[:, 1].tolist())
        assert holdout.size == 500 - 90

    def test_draws_without_replacement(self):
        pool = _toy_pool(m=400, seed=6)
        triple, _ = sample_triple_from_pool(pool, 30, 30, 100, 0.5, 2)
        drawn = _row_ids(triple)
        assert len(set(drawn.tolist())) == drawn.size == 160

    def test_unlabeled_latent_frequency(self):
        """pi-coin flips behind the unlabeled draw have frequency pi."""
        pool = _toy_pool(m=60, seed=7)
        pi, hits = 0.5, 0
        for seed in range(10_000):
            triple, _ = sample_triple_from_pool(pool, 1, 1, 1, pi, seed)
            hits += int(triple.x_unl[0, 0] == 1)  # the drawn row's label
        freq = hits / 10_000
        assert abs(freq - pi) <= 4.0 * np.sqrt(pi * (1 - pi) / 10_000)

    def test_unlabeled_rows_match_their_latents(self):
        """Each unlabeled row is the next unused row of its flip's class.

        The class streams and flips are replayed in the sampler's RNG order:
        positive permutation, negative permutation, then one coin per row.
        """
        pool = _toy_pool(m=300, seed=8)
        triple, _ = sample_triple_from_pool(pool, 10, 10, 80, 0.7, 3)
        rng = np.random.default_rng(3)
        pos_stream = rng.permutation(np.flatnonzero(pool.labels == 1))
        neg_stream = rng.permutation(np.flatnonzero(pool.labels == -1))
        latent = np.where(rng.random(80) < 0.7, 1, -1)
        ids = triple.x_unl[:, 1].astype(int)
        np.testing.assert_array_equal(pool.labels[ids], latent)
        n_flip_pos = int(np.sum(latent == 1))
        np.testing.assert_array_equal(ids[latent == 1], pos_stream[10 : 10 + n_flip_pos])
        np.testing.assert_array_equal(ids[latent == -1], neg_stream[10 : 90 - n_flip_pos])

    @pytest.mark.parametrize("counts, field", [
        ((-1, 3, 0), "n_pos"), ((3, 2.5, 0), "n_neg"), ((3, 3, np.int64(-2)), "n_unl"),
    ])
    def test_rejects_bad_counts_by_name(self, counts, field):
        """A negative count would slice a class stream from its end: -1 took all but one row."""
        pool = _toy_pool(m=600, seed=11)
        with pytest.raises(ValueError, match=rf"^{field} must be a non-negative integer"):
            sample_triple_from_pool(pool, *counts, 0.5, 0)

    def test_exhaustion_names_the_class(self):
        """The full message: the class, the rows the draw needs (flips included), the class size."""
        pool = _toy_pool(m=40, p_ratio=0.2, seed=9)
        with pytest.raises(InsufficientDataError,
                           match="^positive class exhausted: draw needs 33 rows, pool has 8$"):
            sample_triple_from_pool(pool, 30, 1, 5, 0.95, 0)
        with pytest.raises(InsufficientDataError,
                           match="^negative class exhausted: draw needs 37 rows, pool has 32$"):
            sample_triple_from_pool(pool, 1, int(np.sum(pool.labels == -1)), 5, 0.05, 0)

    @pytest.mark.parametrize("labels, n_pos, n_neg, message", [
        ([1, 1, -1, -1], 1, 2, "1 row(s) left after the draw, none of the negative class"),
        ([1, -1, -1, 1], 2, 1, "1 row(s) left after the draw, none of the positive class"),
        ([1, -1, 1, -1], 2, 2, "0 row(s) left after the draw, none of the positive class"),
    ])
    def test_short_holdout_names_the_holdout(self, labels, n_pos, n_neg, message):
        """The pool serves the draw, but the rows left over cannot score a model."""
        pool = LabeledPool(features=np.arange(len(labels), dtype=float)[:, None],
                           labels=np.array(labels))
        with pytest.raises(InsufficientDataError, match="holdout too small") as exc:
            sample_triple_from_pool(pool, n_pos, n_neg, 0, 0.5, 0)
        assert message in str(exc.value)

    def test_deterministic(self):
        pool = _toy_pool(m=300, seed=10)
        t1, h1 = sample_triple_from_pool(pool, 10, 10, 30, 0.4, 777)
        t2, h2 = sample_triple_from_pool(pool, 10, 10, 30, 0.4, 777)
        assert _set_bytes(t1) == _set_bytes(t2)
        assert np.array_equal(h1.features, h2.features)


class TestLabeledPoolType:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabeledPool(features=np.zeros((3, 1)), labels=np.array([1, 1, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="only \\+1 and -1"):
            LabeledPool(features=np.zeros((2, 1)), labels=np.array([1, 2]))
        with pytest.raises(ValueError, match="one entry per feature row"):
            LabeledPool(features=np.zeros((3, 1)), labels=np.array([1, -1]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, value):
        with pytest.raises(ValueError, match="^features must be finite"):
            LabeledPool(features=np.array([[0.0], [value]]), labels=np.array([1, -1]))
