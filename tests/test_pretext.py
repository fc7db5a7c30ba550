import itertools
import math

import numpy as np
import pytest
from scipy import stats

from semiprop import autodiff as ad
from semiprop.pretext import (make_order_sample, mask_features, order_loss,
                              recon_loss)


class TestMaskFeatures:
    def test_omega_zero_is_identity(self):
        f = np.random.default_rng(0).normal(size=(10, 4))
        f2, mask = mask_features(f, 0.0, np.random.default_rng(1))
        assert np.array_equal(f2, f)
        assert mask.sum() == 0

    def test_mask_count_rounding(self):
        f = np.zeros((10, 4))
        _, mask = mask_features(f, 0.3, np.random.default_rng(2))
        assert mask.sum() == 3

    def test_unmasked_rows_bitwise_equal(self):
        f = np.random.default_rng(3).normal(size=(12, 5))
        f2, mask = mask_features(f, 0.4, np.random.default_rng(4))
        keep = mask == 0
        assert np.array_equal(f2[keep], f[keep])
        assert np.all(f2[mask == 1] == 0.0)

    def test_deterministic_given_seed(self):
        f = np.random.default_rng(5).normal(size=(20, 3))
        a = mask_features(f, 0.25, np.random.default_rng(42))
        b = mask_features(f, 0.25, np.random.default_rng(42))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_invalid_omega(self):
        with pytest.raises(ValueError):
            mask_features(np.zeros((4, 2)), 1.0, np.random.default_rng(0))


class TestReconLoss:
    def test_identity_is_zero(self):
        f = np.random.default_rng(0).normal(size=(6, 3))
        assert recon_loss(f, f).item() == 0.0

    def test_constant_offset(self):
        f = np.random.default_rng(1).normal(size=(6, 3))
        assert recon_loss(f + 1.0, f).item() == pytest.approx(1.0)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(2)
        pred, f = rng.normal(size=(7, 4)), rng.normal(size=(7, 4))
        total = 0.0
        for t in range(7):
            for c in range(4):
                total += (pred[t, c] - f[t, c]) ** 2
        assert abs(recon_loss(pred, f).item() - total / 28) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            recon_loss(np.zeros((3, 2)), np.zeros((2, 3)))

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        f = rng.normal(size=(5, 3))
        pred = f.copy()
        pred[2, 1] += 1e-6
        assert recon_loss(pred, f).item() > 0.0


class TestOrderSample:
    def test_s2_enumeration(self):
        f = np.arange(16, dtype=float).reshape(8, 2)
        for seed in range(20):
            s = make_order_sample(f, 2, np.random.default_rng(seed))
            if s.label == 0:
                assert np.array_equal(s.shuffled, f)
            else:
                assert s.label == 1
                assert np.array_equal(s.shuffled[:4], f[4:])
                assert np.array_equal(s.shuffled[4:], f[:4])

    def test_truncation_of_remainder(self):
        f = np.arange(18, dtype=float).reshape(9, 2)
        s = make_order_sample(f, 2, np.random.default_rng(0))
        assert s.shuffled.shape == (8, 2)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            make_order_sample(np.zeros((3, 2)), 4, np.random.default_rng(0))

    def test_label_distribution_uniform(self):
        f = np.zeros((12, 2))
        rng = np.random.default_rng(1)
        counts = np.zeros(6)
        n = 1200
        for _ in range(n):
            counts[make_order_sample(f, 3, rng).label] += 1
        chi2 = ((counts - n / 6) ** 2 / (n / 6)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=5)


class TestStackedDraws:
    """Each sequence of a (3, T, C) stack gets its own draw, applied as the
    one-sequence definition applies it."""

    def test_mask_rows(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(3, 10, 4))
        f2, mask = mask_features(f, 0.3, rng)
        assert mask.shape == (3, 10) and mask.dtype == bool
        assert (mask.sum(axis=-1) == 3).all()
        for b in range(3):
            expect = f[b].copy()
            expect[mask[b]] = 0.0
            assert np.array_equal(f2[b], expect)
        assert len({tuple(m) for m in mask}) == 3

    def test_order_rows(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(3, 10, 2))
        s = make_order_sample(f, 3, rng)
        perms = list(itertools.permutations(range(3)))
        assert s.shuffled.shape == (3, 9, 2) and s.label.shape == (3,)
        for b in range(3):
            clips = [f[b, j * 3:(j + 1) * 3] for j in perms[s.label[b]]]
            assert np.array_equal(s.shuffled[b], np.concatenate(clips))
        assert len(set(s.label.tolist())) > 1

    def test_stacked_label_distribution_uniform(self):
        n = 1200
        s = make_order_sample(np.zeros((n, 12, 2)), 3, np.random.default_rng(1))
        counts = np.bincount(s.label, minlength=6)
        chi2 = ((counts - n / 6) ** 2 / (n / 6)).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=5)


class TestOrderLoss:
    def test_uniform_logits(self):
        assert order_loss(np.zeros(2), 0).item() == pytest.approx(math.log(2))

    def test_saturated_correct(self):
        assert order_loss(np.array([20.0, -20.0]), 0).item() < 1e-8

    def test_out_of_range_label(self):
        with pytest.raises(ValueError):
            order_loss(np.zeros(2), 2)

    def test_gradient_matches_softmax_minus_onehot_and_fd(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=5)
        t = ad.Tensor(z, requires_grad=True)
        order_loss(t, 2).backward()
        p = np.exp(z - z.max())
        p /= p.sum()
        expect = p.copy()
        expect[2] -= 1.0
        assert np.abs(t.grad - expect).max() < 1e-12
        # finite differences
        h = 1e-6
        fd = np.zeros(5)
        for j in range(5):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd[j] = (order_loss(zp, 2).item() - order_loss(zm, 2).item()) / (2 * h)
        assert np.abs(t.grad - fd).max() < 1e-8
