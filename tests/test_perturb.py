import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprop.data import candidate_mask
from semiprop.perturb import (Predictions, align_flip_outputs, apply_shift_plan,
                              ShiftPlan, shift_count, temporal_flip, temporal_shift)


def rand_predictions(rng, T, D):
    vm = np.zeros((D, T))
    for d in range(D):
        vm[d, : T - d] = 1.0
    return Predictions(
        p_s=rng.random(T), p_e=rng.random(T),
        m_cc=rng.random((D, T)) * vm, m_cr=rng.random((D, T)) * vm,
    )


class TestTemporalShift:
    def test_definition_c4(self):
        rng = np.random.default_rng(0)
        f = np.arange(20, dtype=float).reshape(5, 4)
        out, plan = temporal_shift(f, mu=0.5, rng=rng)
        fwd, bwd = plan.forward_channels, plan.backward_channels
        assert len(fwd) == 1 and len(bwd) == 1
        c = fwd[0]
        assert out[0, c] == 0.0
        assert np.array_equal(out[1:, c], f[:-1, c])
        c = bwd[0]
        assert out[-1, c] == 0.0
        assert np.array_equal(out[:-1, c], f[1:, c])
        untouched = [j for j in range(4) if j not in set(fwd) | set(bwd)]
        assert np.array_equal(out[:, untouched], f[:, untouched])

    def test_zero_channels_rejected(self):
        with pytest.raises(ValueError):
            temporal_shift(np.zeros((8, 4)), mu=0.1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="zero channels"):
            shift_count(16, 2 ** -4)
        assert shift_count(16, 2 ** -3) == 2 and shift_count(5, 1.0) == 4

    def test_inverted_plan_restores_interior(self):
        rng = np.random.default_rng(1)
        f = rng.normal(size=(10, 8))
        out, plan = temporal_shift(f, mu=0.5, rng=rng)
        inverted = ShiftPlan(forward_channels=plan.backward_channels,
                             backward_channels=plan.forward_channels)
        back = apply_shift_plan(out, inverted)
        assert np.array_equal(back[1:-1], f[1:-1])

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_touches_only_selected_channels(self, seed):
        rng = np.random.default_rng(seed)
        f = rng.normal(size=(12, 16))
        out, plan = temporal_shift(f, mu=2 ** -2, rng=rng)
        touched = set(plan.forward_channels) | set(plan.backward_channels)
        assert len(touched) == 4  # k = 2*floor(16*0.25/2)
        for c in range(16):
            if c not in touched:
                assert np.array_equal(out[:, c], f[:, c])


    def test_stack_rows_draw_their_own_channels(self):
        """Row b of a (3, T, C) stack is row b shifted by its own plan row,
        as the slice-by-slice definition shifts a single sequence."""
        rng = np.random.default_rng(7)
        f = rng.normal(size=(3, 12, 16))
        out, plan = temporal_shift(f, mu=0.5, rng=rng)
        fwd, bwd = plan.forward_channels, plan.backward_channels
        assert fwd.shape == bwd.shape == (3, 4)
        for b in range(3):
            g, fw, bw = f[b], fwd[b], bwd[b]
            assert len(set(fw) | set(bw)) == 8
            expect = g.copy()
            expect[1:, fw], expect[0, fw] = g[:-1, fw], 0.0
            expect[:-1, bw], expect[-1, bw] = g[1:, bw], 0.0
            assert np.array_equal(out[b], expect)
            assert np.array_equal(out[b], apply_shift_plan(g, ShiftPlan(fw, bw)))
        assert len({(tuple(fwd[b]), tuple(bwd[b])) for b in range(3)}) == 3


class TestTemporalFlip:
    def test_definition(self):
        f = np.array([[0.0], [1.0], [2.0]])
        assert np.array_equal(temporal_flip(f), np.array([[2.0], [1.0], [0.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_involution_bitwise(self, seed):
        f = np.random.default_rng(seed).normal(size=(9, 5))
        assert np.array_equal(temporal_flip(temporal_flip(f)), f)

    def test_constant_sequence_fixed_point(self):
        f = np.tile(np.array([1.0, 2.0, 3.0]), (6, 1))
        assert np.array_equal(temporal_flip(f), f)


class TestAlignFlipOutputs:
    def test_boundary_swap_rule(self):
        rng = np.random.default_rng(2)
        pred = rand_predictions(rng, T=8, D=4)
        al = align_flip_outputs(pred)
        assert np.array_equal(al.p_s, pred.p_e[::-1])
        assert np.array_equal(al.p_e, pred.p_s[::-1])

    def test_map_reflection_rule(self):
        rng = np.random.default_rng(3)
        T, D = 8, 4
        pred = rand_predictions(rng, T, D)
        al = align_flip_outputs(pred)
        for d in range(D):
            for i in range(T):
                src = T - (d + 1) - i
                expect = pred.m_cc[d, src] if 0 <= src < T else 0.0
                assert al.m_cc[d, i] == expect

    def test_duration_one_row_matches_boundary_rule(self):
        rng = np.random.default_rng(4)
        pred = rand_predictions(rng, T=8, D=1)
        al = align_flip_outputs(pred)
        assert np.array_equal(al.m_cc[0], pred.m_cc[0, ::-1])

    @pytest.mark.parametrize("T,D", [(100, 100), (12, 6), (7, 7), (1, 1)])
    def test_matches_row_loop(self, T, D):
        def loop_flip_map(m):
            res = np.zeros_like(m)
            for d in range(D):
                src = T - (d + 1) - np.arange(T)
                ok = (src >= 0) & (src < T)
                res[d, ok] = m[d, src[ok]]
            return res

        rng = np.random.default_rng(T * 1000 + D)
        pred = rand_predictions(rng, T, D)
        pred.m_cr = rng.random((D, T))  # nonzero outside the valid region too
        al = align_flip_outputs(pred)
        assert np.array_equal(al.m_cc, loop_flip_map(pred.m_cc))
        assert np.array_equal(al.m_cr, loop_flip_map(pred.m_cr))

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_involution_on_valid_region(self, seed):
        rng = np.random.default_rng(seed)
        T = int(rng.integers(4, 12))
        D = int(rng.integers(1, T + 1))
        pred = rand_predictions(rng, T, D)
        twice = align_flip_outputs(align_flip_outputs(pred))
        vm = candidate_mask(T, D).astype(bool)
        assert np.array_equal(twice.p_s, pred.p_s)
        assert np.array_equal(twice.p_e, pred.p_e)
        assert np.array_equal(twice.m_cc[vm], pred.m_cc[vm])
        assert np.array_equal(twice.m_cr[vm], pred.m_cr[vm])

    def test_flip_maps_candidates_onto_themselves(self):
        """Every candidate's reflection is a candidate, so flipping the
        candidate mask gives it back: the student's mask is the aligned
        teacher's, and the losses need no second copy."""
        for T in range(1, 41):
            for D in range(1, T + 1):
                vm = candidate_mask(T, D)
                d, i = np.nonzero(vm)
                src = T - (d + 1) - i
                assert (src >= 0).all() and vm[d, src].all()
                one = np.ones(T)
                al = align_flip_outputs(Predictions(p_s=one, p_e=one, m_cc=vm, m_cr=vm))
                assert np.array_equal(al.m_cc, vm) and np.array_equal(al.m_cr, vm)
