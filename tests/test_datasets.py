"""Synthetic generation, CSV pools, and the triple resampling protocol."""

import numpy as np
import pytest

from pnu.datasets import (
    GAUSSIAN_MEAN,
    InsufficientDataError,
    LabeledPool,
    SampleTriple,
    _sample_triple_with_info,
    gen_gaussian_artificial,
    gen_gaussian_labeled,
    load_csv,
    sample_triple_from_pool,
)


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
        assert a.fingerprint() == b.fingerprint()
        assert np.array_equal(a.x_unl, b.x_unl)

    def test_rejects_degenerate_prior(self):
        for pi in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                gen_gaussian_artificial(1, 1, 1, pi, 0)

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

    def test_immutable_rows(self):
        triple = gen_gaussian_artificial(3, 3, 3, 0.5, 0)
        with pytest.raises(ValueError):
            triple.x_pos[0, 0] = 7.0


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
        assert pool.dim == 2
        assert pool.size == 5300
        assert 0.4 < pool.p_ratio < 0.5

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
        assert pool.dim == 1
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
        triple, holdout, info = _sample_triple_with_info(pool, 20, 20, 50, 0.5, 1)
        drawn = set(np.concatenate([info.pos_idx, info.neg_idx, info.unl_idx]).tolist())
        assert drawn.isdisjoint(set(info.holdout_idx.tolist()))
        # and fully, via the unique row-id feature
        train_ids = set(np.concatenate(
            [triple.x_pos[:, 1], triple.x_neg[:, 1], triple.x_unl[:, 1]]
        ).tolist())
        assert train_ids.isdisjoint(set(holdout.features[:, 1].tolist()))

    def test_draws_without_replacement(self):
        pool = _toy_pool(m=400, seed=6)
        _, _, info = _sample_triple_with_info(pool, 30, 30, 100, 0.5, 2)
        drawn = np.concatenate([info.pos_idx, info.neg_idx, info.unl_idx])
        assert len(set(drawn.tolist())) == drawn.size

    def test_unlabeled_latent_frequency(self):
        """pi-coin flips behind the unlabeled draw have frequency pi."""
        pool = _toy_pool(m=60, seed=7)
        pi, hits = 0.5, 0
        for seed in range(10_000):
            _, _, info = _sample_triple_with_info(pool, 1, 1, 1, pi, seed)
            hits += int(info.unl_latent[0] == 1)
        freq = hits / 10_000
        assert abs(freq - pi) <= 4.0 * np.sqrt(pi * (1 - pi) / 10_000)

    def test_unlabeled_rows_match_their_latents(self):
        pool = _toy_pool(m=300, seed=8)
        triple, _, info = _sample_triple_with_info(pool, 10, 10, 80, 0.7, 3)
        np.testing.assert_array_equal(np.sign(triple.x_unl[:, 0]), info.unl_latent)

    def test_exhaustion_names_the_class(self):
        pool = _toy_pool(m=40, p_ratio=0.2, seed=9)
        with pytest.raises(InsufficientDataError, match="positive"):
            sample_triple_from_pool(pool, 30, 1, 5, 0.95, 0)

    def test_deterministic(self):
        pool = _toy_pool(m=300, seed=10)
        t1, h1 = sample_triple_from_pool(pool, 10, 10, 30, 0.4, 777)
        t2, h2 = sample_triple_from_pool(pool, 10, 10, 30, 0.4, 777)
        assert t1.fingerprint() == t2.fingerprint()
        assert np.array_equal(h1.features, h2.features)


class TestLabeledPoolType:
    def test_rejects_single_class(self):
        with pytest.raises(ValueError):
            LabeledPool(features=np.zeros((3, 1)), labels=np.array([1, 1, 1]))

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledPool(features=np.zeros((2, 1)), labels=np.array([1, 2]))
