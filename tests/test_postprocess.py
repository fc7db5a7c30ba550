import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from semiprop import cli, postprocess
from semiprop.data import gen_synthetic_dataset, iou_1d, read_manifest
from semiprop.model import HyperShape, ProposalNetwork, init_params
from semiprop.perturb import Predictions
from semiprop.postprocess import (Proposal, Proposals, decode_candidates,
                                  read_proposals, soft_nms, write_proposals)


# List-based reference implementations: one Python loop per candidate pair
# and one rescan of the pool per pick. The array code must match them to
# the bit.

def list_boundary_set(p):
    T = p.shape[0]
    keep = p > 0.5 * p.max()
    for t in range(T):
        left = p[t - 1] if t > 0 else -np.inf
        right = p[t + 1] if t < T - 1 else -np.inf
        if p[t] > left and p[t] > right:
            keep[t] = True
    return np.flatnonzero(keep)


def list_decode_candidates(out, max_duration=None):
    D = out.m_cc.shape[0] if max_duration is None else min(max_duration, out.m_cc.shape[0])
    props = []
    for s in list_boundary_set(out.p_s):
        for t in list_boundary_set(out.p_e):
            e = t + 1
            d = e - s - 1
            if d < 0 or d >= D:
                continue
            score = float(out.p_s[s] * out.p_e[t] * out.m_cc[d, s] * out.m_cr[d, s])
            props.append(Proposal(start=float(s), end=float(e), score=score))
    props.sort(key=lambda p: (p.start, p.end))
    return props


def list_soft_nms(props, sigma, score_floor, max_out):
    pool = [Proposal(p.start, p.end, p.score) for p in props]
    out = []
    while pool and len(out) < max_out:
        best_idx = min(range(len(pool)),
                       key=lambda j: (-pool[j].score, pool[j].start, pool[j].end))
        best = pool.pop(best_idx)
        if best.score < score_floor:
            break
        out.append(best)
        for p in pool:
            ov = iou_1d((best.start, best.end), (p.start, p.end))
            if ov > 0.0:
                p.score *= float(np.exp(-(ov * ov) / sigma))
    return out


def rows(props):
    return [(p.start, p.end, p.score) for p in props]


# few distinct values, so that exact ties and duplicate scores are common
TIED = st.sampled_from([0.0, 0.125, 0.5, 0.75, 1.0])


@st.composite
def dense_predictions(draw):
    T = draw(st.integers(1, 10))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.one_of(TIED, st.floats(0.0, 1.0, width=32))
    vec, mat = arrays(dtype, T, elements=elements), arrays(dtype, (T, T), elements=elements)
    return Predictions(p_s=draw(vec), p_e=draw(vec), m_cc=draw(mat), m_cr=draw(mat))


@st.composite
def proposal_pools(draw):
    """Segments on a coarse grid (many overlaps and duplicates) with scores
    that often tie."""
    n = draw(st.integers(0, 25))
    pool = []
    for _ in range(n):
        s = draw(st.integers(0, 16)) / 2
        length = draw(st.integers(1, 12)) / 2
        score = draw(st.one_of(TIED.filter(lambda v: v > 0), st.floats(1e-9, 1.0)))
        pool.append(Proposal(s, s + length, score))
    return pool


def predictions(p_s, p_e, m_cc=None, m_cr=None):
    p_s = np.asarray(p_s, dtype=float)
    p_e = np.asarray(p_e, dtype=float)
    T = p_s.shape[0]
    vm = np.zeros((T, T))
    for d in range(T):
        vm[d, : T - d] = 1.0
    if m_cc is None:
        m_cc = vm.copy()
    if m_cr is None:
        m_cr = vm.copy()
    return Predictions(p_s=p_s, p_e=p_e, m_cc=np.asarray(m_cc, dtype=float),
                       m_cr=np.asarray(m_cr, dtype=float))


class TestDecodeCandidates:
    def test_constant_probabilities_give_all_pairs(self):
        T = 6
        pred = predictions(np.full(T, 0.7), np.full(T, 0.7))
        props = decode_candidates(pred)
        # every (start s, end snippet t) pair with s <= t is a candidate
        assert len(props) == T * (T + 1) // 2

    def test_duration_cap(self):
        T = 6
        pred = predictions(np.full(T, 0.7), np.full(T, 0.7))
        props = decode_candidates(pred, max_duration=2)
        assert len(props) == (T) + (T - 1)  # durations 1 and 2 only
        assert all(p.end - p.start <= 2 for p in props)

    def test_sharp_peaks_top_proposal(self):
        T = 12
        p_s = np.full(T, 0.01)
        p_e = np.full(T, 0.01)
        p_s[3] = 0.9
        p_e[9] = 0.8
        props = decode_candidates(predictions(p_s, p_e))
        top = props[0]
        assert (top.start, top.end) == (3.0, 10.0)
        assert top.score == pytest.approx(0.9 * 0.8)

    def test_scores_match_brute_force(self):
        rng = np.random.default_rng(0)
        T = 10
        pred = predictions(rng.uniform(0.1, 1, T), rng.uniform(0.1, 1, T),
                           m_cc=rng.uniform(0.1, 1, (T, T)),
                           m_cr=rng.uniform(0.1, 1, (T, T)))
        props = decode_candidates(pred)
        got = {(p.start, p.end): p.score for p in props}
        # brute force: every pair whose start/end indices qualify
        def qualifies(p, t):
            left = p[t - 1] if t > 0 else -np.inf
            right = p[t + 1] if t < T - 1 else -np.inf
            return (p[t] > left and p[t] > right) or p[t] > 0.5 * p.max()
        for s in range(T):
            for t in range(T):
                e = t + 1
                d = e - s - 1
                if d < 0:
                    continue
                if qualifies(pred.p_s, s) and qualifies(pred.p_e, t):
                    expect = (pred.p_s[s] * pred.p_e[t]
                              * pred.m_cc[d, s] * pred.m_cr[d, s])
                    assert got[(float(s), float(e))] == pytest.approx(expect)
                else:
                    assert (float(s), float(e)) not in got
        pairs = [(p.start, p.end) for p in props]
        assert pairs == sorted(pairs)

    @settings(max_examples=300, deadline=None)
    @given(dense_predictions(), st.data())
    def test_matches_list_implementation(self, pred, data):
        max_duration = data.draw(st.one_of(st.none(), st.integers(0, pred.p_s.shape[0] + 1)))
        got = decode_candidates(pred, max_duration=max_duration)
        assert isinstance(got, Proposals)
        assert rows(got) == rows(list_decode_candidates(pred, max_duration))

    def test_float32_scores_in_input_dtype(self):
        rng = np.random.default_rng(5)
        T = 8
        pred = predictions(rng.uniform(0.1, 1, T), rng.uniform(0.1, 1, T),
                           m_cc=rng.uniform(0.1, 1, (T, T)), m_cr=rng.uniform(0.1, 1, (T, T)))
        pred = Predictions(*(a.astype(np.float32) for a in (
            pred.p_s, pred.p_e, pred.m_cc, pred.m_cr)))
        got = decode_candidates(pred)
        assert got.score.dtype == np.float64
        assert rows(got) == rows(list_decode_candidates(pred))
        # the product is rounded to float32 before it is widened
        assert np.array_equal(got.score, got.score.astype(np.float32).astype(np.float64))

    def test_bounds_respected(self):
        rng = np.random.default_rng(1)
        T = 9
        props = decode_candidates(predictions(rng.random(T), rng.random(T)),
                                  max_duration=4)
        for p in props:
            assert 0 <= p.start < p.end <= T
            assert p.end - p.start <= 4


class TestSoftNms:
    def test_disjoint_proposals_untouched(self):
        props = [Proposal(0, 2, 0.9), Proposal(5, 7, 0.6), Proposal(10, 12, 0.3)]
        out = soft_nms(props)
        assert [(p.start, p.end, p.score) for p in out] == \
               [(0, 2, 0.9), (5, 7, 0.6), (10, 12, 0.3)]

    def test_gaussian_decay_value(self):
        # [0,9] vs [1,10]: overlap 8, union 10, iou exactly 0.8
        a, b = Proposal(0, 9, 1.0), Proposal(1, 10, 0.9)
        assert iou_1d((0, 9), (1, 10)) == pytest.approx(0.8)
        out = soft_nms([a, b], sigma=0.4, score_floor=0.0)
        assert out[1].score == pytest.approx(0.9 * math.exp(-1.6))
        assert out[1].score == pytest.approx(0.1817, abs=5e-4)

    def test_tiny_sigma_matches_hard_nms(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            # integer coordinates keep every positive overlap comfortably
            # above the point where exp(-iou^2/1e-6) underflows the floor
            seen, props = set(), []
            for _ in range(rng.integers(1, 21)):
                s = int(rng.integers(0, 30))
                e = s + int(rng.integers(1, 11))
                if (s, e) in seen:
                    continue
                seen.add((s, e))
                props.append(Proposal(float(s), float(e),
                                      round(float(rng.uniform(0.05, 1)), 6)))
            got = soft_nms(props, sigma=1e-6, score_floor=0.001)
            # greedy hard-NMS oracle: suppress anything with positive overlap
            pool = sorted(props, key=lambda p: (-p.score, p.start, p.end))
            keep = []
            while pool:
                best = pool.pop(0)
                keep.append(best)
                pool = [p for p in pool
                        if iou_1d((best.start, best.end), (p.start, p.end)) == 0.0]
            assert [(p.start, p.end) for p in got] == \
                   [(p.start, p.end) for p in keep]

    def test_scores_non_increasing_and_bounded_by_input(self):
        rng = np.random.default_rng(3)
        props = [Proposal(float(s), float(s + 3), float(rng.random()))
                 for s in rng.uniform(0, 20, 15)]
        inputs = {(p.start, p.end): p.score for p in props}
        out = soft_nms(props)
        scores = [p.score for p in out]
        assert scores == sorted(scores, reverse=True)
        for p in out:
            assert p.score <= inputs[(p.start, p.end)] + 1e-12

    def test_permutation_invariant(self):
        rng = np.random.default_rng(4)
        props = [Proposal(float(s), float(s + rng.uniform(1, 6)), float(rng.random()))
                 for s in rng.uniform(0, 20, 12)]
        ref = soft_nms(props)
        for seed in range(5):
            shuffled = list(props)
            np.random.default_rng(seed).shuffle(shuffled)
            got = soft_nms(shuffled)
            assert [(p.start, p.end, p.score) for p in got] == \
                   [(p.start, p.end, p.score) for p in ref]

    @settings(max_examples=300, deadline=None)
    @given(proposal_pools(), st.randoms(use_true_random=False),
           st.sampled_from([1e-6, 0.4]), st.sampled_from([0.0, 0.001]))
    def test_ordered_and_shuffled_pools_pick_the_same_rows(self, pool, random, sigma,
                                                           score_floor):
        """A pool in (start, end) order skips the re-sort; the same pool
        shuffled is re-sorted, and the rows agree to the bit, exact ties and
        duplicate segments included."""
        ordered = sorted(pool, key=lambda p: (p.start, p.end))
        shuffled = list(pool)
        random.shuffle(shuffled)
        want = soft_nms(ordered, sigma=sigma, score_floor=score_floor)
        assert rows(soft_nms(shuffled, sigma=sigma, score_floor=score_floor)) == rows(want)

    def test_max_out_and_floor(self):
        props = [Proposal(10 * j, 10 * j + 5, 0.5) for j in range(10)]
        assert len(soft_nms(props, max_out=3)) == 3
        assert soft_nms([Proposal(0, 1, 1e-5)], score_floor=0.001) == []

    @settings(max_examples=400, deadline=None)
    @given(proposal_pools(), st.sampled_from([1e-6, 0.1, 0.4, 1.0]),
           st.sampled_from([0.0, 0.001, 0.3]), st.integers(0, 30))
    def test_matches_list_implementation(self, pool, sigma, score_floor, max_out):
        got = soft_nms(pool, sigma=sigma, score_floor=score_floor, max_out=max_out)
        assert rows(got) == rows(list_soft_nms(pool, sigma, score_floor, max_out))

    @pytest.mark.parametrize("max_out", [1, 3, 9])
    def test_no_decay_after_the_last_pick(self, max_out, monkeypatch):
        """The decay runs between picks only: `np.exp` is called once per
        pick but the last, whether `max_out` or the pool's size ends it."""
        calls = []
        exp = np.exp
        monkeypatch.setattr(np, "exp", lambda *a, **kw: calls.append(1) or exp(*a, **kw))
        pool = [Proposal(j, j + 4, 1.0 - 0.01 * j) for j in range(6)]
        got = soft_nms(pool, score_floor=0.0, max_out=max_out)
        assert len(got) == min(max_out, len(pool))
        assert len(calls) == len(got) - 1
        monkeypatch.undo()
        assert rows(got) == rows(list_soft_nms(pool, 0.4, 0.0, max_out))

    def test_input_not_modified(self):
        props = Proposals.of([Proposal(0, 9, 1.0), Proposal(1, 10, 0.9)])
        before = props.score.copy()
        soft_nms(props, score_floor=0.0)
        assert np.array_equal(props.score, before)

    def test_exp_underflow_keeps_picked_entries_out_of_the_decay(self):
        # exp(-iou^2 / 1e-6) underflows to 0 for these overlaps; a picked
        # entry's -inf times 0 would be NaN and win every later argmax
        pool = [Proposal(0, 10, 1.0), Proposal(1, 10, 0.9), Proposal(2, 10, 0.8)]
        got = soft_nms(pool, sigma=1e-6, score_floor=0.0)
        assert rows(got) == [(0.0, 10.0, 1.0), (1.0, 10.0, 0.0), (2.0, 10.0, 0.0)]
        assert rows(got) == rows(list_soft_nms(pool, 1e-6, 0.0, 100))

    def test_exact_ties_break_on_start_then_end(self):
        pool = [Proposal(1, 3, 0.5), Proposal(0, 5, 0.5), Proposal(0, 4, 0.5)]
        got = soft_nms(pool, score_floor=0.0)
        assert [(p.start, p.end) for p in got][0] == (0.0, 4.0)
        assert rows(got) == rows(list_soft_nms(pool, 0.4, 0.0, 100))

    def test_empty_pool(self):
        assert len(soft_nms([])) == 0
        assert soft_nms(Proposals.of([])) == []

    @pytest.mark.parametrize("sigma", [1e-6, 0.4])
    @pytest.mark.parametrize("pool", ["all_pairs_t24", "far_from_zero"])
    def test_matches_list_implementation_at_decode_scale(self, pool, sigma):
        """Hundreds of candidates, so each pick decays only a prefix of the
        (start, end)-ordered pool and the prefix bound is exercised."""
        rng = np.random.default_rng(6)
        if pool == "all_pairs_t24":
            T = 24
            props = decode_candidates(predictions(np.full(T, 0.7), np.full(T, 0.7),
                                                  m_cc=rng.uniform(0.1, 1, (T, T)),
                                                  m_cr=rng.uniform(0.1, 1, (T, T))))
            assert len(props) == 300
        else:
            # 0.1 steps at 1e6 are not representable: end - start rounds
            k = rng.integers(0, 200, 300)
            j = rng.integers(1, 40, 300)
            props = Proposals(1e6 + k * 0.1, 1e6 + (k + j) * 0.1,
                              rng.choice([0.25, 0.5, 1.0], 300) * rng.integers(1, 3, 300))
        got = soft_nms(props, sigma=sigma, score_floor=0.0, max_out=len(props))
        assert rows(got) == rows(list_soft_nms(props, sigma, 0.0, len(props)))

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            soft_nms([], sigma=0.0)

    @pytest.mark.parametrize("kwargs", [{"sigma": -1.0}, {"sigma": math.nan},
                                        {"sigma": math.inf}, {"score_floor": math.nan}])
    def test_non_finite_or_negative_parameters(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            soft_nms([Proposal(0, 1, 0.5)], **kwargs)


def ranked_decode_candidates(out, max_duration=None):
    """The candidate pool stably sorted by descending score."""
    props = decode_candidates(out, max_duration)
    order = np.argsort(-props.score, kind="stable")
    return Proposals(props.start[order], props.end[order], props.score[order])


def lexsort_soft_nms(props, sigma=0.4, score_floor=0.001, max_out=100):
    """`soft_nms` with its order check replaced by an unconditional
    (start, end) `lexsort`."""
    props = Proposals.of(props)
    order = np.lexsort((props.end, props.start))
    start, end, score = props.start[order], props.end[order], props.score[order]
    length = end - start
    reach = end.copy()
    ov, union = np.empty_like(score), np.empty_like(score)
    picks, kept = [], []
    for _ in range(min(max_out, len(score))):
        best = int(np.argmax(score))
        if score[best] < score_floor:
            break
        picks.append(best)
        kept.append(score[best])
        score[best] = reach[best] = -np.inf
        a, b = start[best], end[best]
        k = int(np.searchsorted(start, b))
        o, u = ov[:k], union[:k]
        np.minimum(reach[:k], b, out=o)
        o -= np.maximum(start[:k], a, out=u)
        np.maximum(o, 0.0, out=o)
        np.add(b - a, length[:k], out=u)
        u -= o
        o /= u
        o *= o
        np.divide(o, -sigma, out=o)
        score[:k] *= np.exp(o, out=o)
    picks = np.array(picks, dtype=np.intp)
    return Proposals(start[picks], end[picks], np.array(kept, dtype=np.float64))


class TestInferenceDoesNotSort:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_sort_and_same_bytes_as_the_ranked_path(self, tmp_path, monkeypatch, dtype):
        """Decoding hands Soft-NMS a pool already in (start, end) order, so
        inference calls no sort; its files match the score-ranked decode
        followed by the always-sorting Soft-NMS, byte for byte."""
        mpath = tmp_path / "data" / "manifest.json"
        gen_synthetic_dataset(mpath.parent, n_videos=2, T=16, C=4, label_fraction=0.5, seed=3)
        manifest = read_manifest(mpath)
        hyper = HyperShape(T=16, C=4, H=4, Hp=4, D=16, N=4)
        net, params = ProposalNetwork(hyper), init_params(hyper, 0, dtype=dtype)
        calls = []

        def counting(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(postprocess.np, "lexsort", counting(np.lexsort))
        monkeypatch.setattr(postprocess.np, "argsort", counting(np.argsort))
        with monkeypatch.context() as old:
            old.setattr(postprocess, "decode_candidates", ranked_decode_candidates)
            old.setattr(postprocess, "soft_nms", lexsort_soft_nms)
            cli.run_inference(net, params, manifest, mpath, tmp_path / "old")
        assert sorted(calls) == ["argsort", "argsort", "lexsort", "lexsort"]
        calls.clear()
        cli.run_inference(net, params, manifest, mpath, tmp_path / "new")
        assert calls == []
        for entry in manifest.videos:
            name = f"{entry.video_id}.props.tsv"
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "old" / name).read_bytes()


class TestProposals:
    @pytest.mark.parametrize("rows, message", [
        (([0.0, 1.0], [1.0], [0.5, 0.4]), "of one length"),
        (([0.0], [math.nan], [0.5]), "finite"),
        (([0.0, 2.0], [1.0, 2.0], [0.5, 0.4]), "start >= end"),
    ], ids=["unequal_lengths", "nan", "start_at_end"])
    def test_invalid_columns_rejected(self, rows, message):
        with pytest.raises(ValueError, match=message):
            Proposals(*rows)


class TestProposalIO:
    def test_golden_bytes(self, tmp_path):
        # 1/3 and 2/3 do not terminate; .8g prints a score below 1e-4 with an exponent
        props = Proposals([1.0, 2.0, 0.0], [2.5, 3.0, 3.0], [0.72, 0.123456789, 3.5e-05])
        path = tmp_path / "v.props.tsv"
        write_proposals(props, T=3, path=path)
        assert path.read_bytes() == (
            b"# start end score start_norm end_norm\n"
            b"1.000000 2.500000 0.72 0.333333 0.833333\n"
            b"2.000000 3.000000 0.12345679 0.666667 1.000000\n"
            b"0.000000 3.000000 3.5e-05 0.000000 1.000000\n")
        assert rows(read_proposals(path)) == [(1.0, 2.5, 0.72), (2.0, 3.0, 0.12345679),
                                              (0.0, 3.0, 3.5e-05)]

    def test_rising_score_is_rejected_before_writing(self, tmp_path):
        """`read_proposals` rejects a score above the previous line's, so the
        writer refuses to write one."""
        path = tmp_path / "v.props.tsv"
        with pytest.raises(ValueError, match="descending score"):
            write_proposals(Proposals([0.0, 1.0], [2.0, 3.0], [0.1, 0.5]), T=3, path=path)
        assert not path.exists()

    def test_roundtrip(self, tmp_path):
        props = [Proposal(3.0, 10.0, 0.72), Proposal(0.0, 4.0, 0.11)]
        path = tmp_path / "v.props.tsv"
        write_proposals(props, T=20, path=path)
        back = read_proposals(path)
        assert [(p.start, p.end) for p in back] == [(3.0, 10.0), (0.0, 4.0)]
        assert back[0].score == pytest.approx(0.72)
        header = path.read_text().splitlines()[0]
        assert header.startswith("#")
        # normalized columns present
        cols = path.read_text().splitlines()[1].split()
        assert float(cols[3]) == pytest.approx(3 / 20)
        assert float(cols[4]) == pytest.approx(10 / 20)
