import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprop import metrics as metrics_mod
from semiprop.data import AnnotationSet, iou_1d
from semiprop.metrics import (ANET_THRESHOLDS, THUMOS_THRESHOLDS, ar_at_an,
                              auc, evaluate_dataset, recall_matrix,
                              threshold_set, write_ar_curve_csv, write_report)
from semiprop.postprocess import Proposal, Proposals


def list_recall_matrix(props, gt, thresholds, an_values):
    """Reference: one iou_1d call per (proposal, instance) pair, one max per
    AN column. The array code must match it to the bit."""
    n_gt = len(gt.instances)
    ious = np.zeros((len(props), n_gt))
    for r, p in enumerate(props):
        for g, inst in enumerate(gt.instances):
            ious[r, g] = iou_1d((p.start, p.end), tuple(inst))
    out = np.zeros((len(thresholds), len(an_values)))
    for j, an in enumerate(an_values):
        top = ious[:an] if an > 0 else ious[:0]
        best = top.max(axis=0) if top.shape[0] else np.zeros(n_gt)
        for i, th in enumerate(thresholds):
            out[i, j] = float((best >= th).sum()) / n_gt
    return out


def segments(max_n, min_n=0):
    """Segments mixing a coarse grid (exact IoU ties at the thresholds) and
    arbitrary floats."""
    bound = st.one_of(st.integers(0, 20).map(float), st.floats(0.0, 20.0))
    length = st.one_of(st.integers(1, 10).map(float), st.floats(0.01, 10.0))
    return st.lists(st.tuples(bound, length).map(lambda t: (t[0], t[0] + t[1])),
                    min_size=min_n, max_size=max_n)


class TestThresholdSets:
    def test_conventions(self):
        assert threshold_set("thumos") == THUMOS_THRESHOLDS
        assert threshold_set("anet") == ANET_THRESHOLDS
        assert THUMOS_THRESHOLDS == tuple(round(0.5 + 0.05 * j, 2) for j in range(11))
        assert ANET_THRESHOLDS == tuple(round(0.5 + 0.05 * j, 2) for j in range(10))
        with pytest.raises(ValueError):
            threshold_set("coco")


class TestRecallMatrix:
    def test_single_gt_column(self):
        gt = AnnotationSet([(10, 30)])
        props = [Proposal(12, 28, 0.9)]
        assert iou_1d((12, 28), (10, 30)) == pytest.approx(0.8)
        m = recall_matrix(props, gt, [0.5, 0.75, 0.95], [1])
        assert m[:, 0].tolist() == [1.0, 1.0, 0.0]

    def test_empty_proposals_all_zero(self):
        m = recall_matrix([], AnnotationSet([(0, 5)]), [0.5, 0.75], [1, 2])
        assert m.sum() == 0.0

    def test_perfect_proposals_all_ones(self):
        gt = AnnotationSet([(0, 5), (8, 12)])
        props = [Proposal(0, 5, 0.9), Proposal(8, 12, 0.8)]
        m = recall_matrix(props, gt, THUMOS_THRESHOLDS, [2, 3, 5])
        assert np.all(m == 1.0)

    def test_unsorted_rejected(self):
        props = [Proposal(0, 5, 0.1), Proposal(8, 12, 0.8)]
        with pytest.raises(ValueError, match="sorted"):
            recall_matrix(props, AnnotationSet([(0, 5)]), [0.5], [1])

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError):
            recall_matrix([], AnnotationSet([]), [0.5], [1])

    def test_degenerate_gt_rejected(self):
        with pytest.raises(ValueError, match="degenerate ground-truth segment"):
            recall_matrix([Proposal(0, 5, 0.9)], AnnotationSet([(0, 5), (3, 3)]), [0.5], [1])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_list_implementation(self, data):
        segs = data.draw(segments(30))
        scores = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                                           min_size=len(segs), max_size=len(segs))),
                        reverse=True)
        props = [Proposal(s, e, c) for (s, e), c in zip(segs, scores)]
        # some instances copy a proposal, so that matches at every threshold occur
        copies = st.lists(st.sampled_from(segs), max_size=2) if segs else st.just([])
        gt = AnnotationSet(data.draw(segments(3)) + data.draw(copies)
                           or [(0.0, 1.0)])
        thresholds = data.draw(st.lists(
            st.sampled_from([0.0, 0.1, 0.5, 0.55, 0.75, 1.0]), max_size=6))
        an_values = data.draw(st.lists(
            st.one_of(st.integers(-1, 2), st.integers(3, 35)), max_size=8))
        got = recall_matrix(props, gt, thresholds, an_values)
        assert np.array_equal(got, list_recall_matrix(props, gt, thresholds, an_values))
        assert np.array_equal(recall_matrix(Proposals.of(props), gt, thresholds, an_values),
                              got)

    def test_monotonicity(self):
        rng = np.random.default_rng(0)
        gt = AnnotationSet([(3, 9), (14, 20)])
        props = sorted((Proposal(float(s), float(s + rng.integers(2, 8)),
                                 float(rng.random()))
                        for s in rng.integers(0, 20, 15)),
                       key=lambda p: -p.score)
        m = recall_matrix(props, gt, [0.3, 0.5, 0.7], [1, 3, 5, 10])
        assert np.all(np.diff(m, axis=1) >= 0)  # non-decreasing in AN
        assert np.all(np.diff(m, axis=0) <= 0)  # non-increasing in threshold


class TestArAtAn:
    def test_single_video_example(self):
        m = recall_matrix([Proposal(12, 28, 0.9)], AnnotationSet([(10, 30)]),
                          [0.5, 0.75, 0.95], [1])
        assert ar_at_an([m], 0) == pytest.approx(2 / 3)

    def test_two_video_average(self):
        ones = np.ones((3, 1))
        zeros = np.zeros((3, 1))
        assert ar_at_an([ones, zeros], 0) == 0.5

    def test_no_videos_rejected(self):
        with pytest.raises(ValueError):
            ar_at_an([], 0)

    def test_matches_hand_computation(self):
        thresholds = [0.5, 0.75]
        an_values = [1, 2]
        videos = [
            ([Proposal(0, 4, 0.9), Proposal(10, 14, 0.8)],
             AnnotationSet([(0, 4), (10, 14)])),
            ([Proposal(1, 5, 0.7)], AnnotationSet([(0, 4)])),
            ([Proposal(2, 9, 0.6), Proposal(0, 3, 0.5)],
             AnnotationSet([(0, 3), (20, 25)])),
        ]
        mats = [recall_matrix(p, g, thresholds, an_values) for p, g in videos]
        for j, an in enumerate(an_values):
            per_video = []
            for props, gt in videos:
                recs = []
                for th in thresholds:
                    hit = sum(
                        any(iou_1d((p.start, p.end), tuple(inst)) >= th
                            for p in props[:an])
                        for inst in gt.instances)
                    recs.append(hit / len(gt.instances))
                per_video.append(np.mean(recs))
            assert abs(ar_at_an(mats, j) - np.mean(per_video)) <= 1e-12


class TestAuc:
    def _constant_recalls(self, value):
        return [np.full((3, 100), value)]

    def test_constant_curve(self):
        assert auc(self._constant_recalls(0.75), range(1, 101)) == pytest.approx(75.0)

    def test_zero_curve(self):
        assert auc(self._constant_recalls(0.0), range(1, 101)) == 0.0

    def test_full_recall_gives_100(self):
        assert auc(self._constant_recalls(1.0), range(1, 101)) == pytest.approx(100.0)

    def test_monotone_curve_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        curve = np.sort(rng.random(100))
        recalls = [curve[None, :].repeat(2, axis=0)]
        got = auc(recalls, range(1, 101))
        assert got == pytest.approx(100.0 * curve.mean())


class TestEvaluateDataset:
    def test_aggregation_and_exclusion(self):
        per_video = {
            "a": ([Proposal(0, 4, 0.9)], AnnotationSet([(0, 4)])),
            "b": ([], AnnotationSet([])),  # empty gt: excluded
        }
        result = evaluate_dataset(per_video, [0.5, 0.75])
        assert result["eligible_videos"] == 1
        assert result["AR@10"] == 1.0
        assert result["AUC"] == pytest.approx(100.0)
        assert len(result["ar_curve"]) == 100

    @pytest.mark.parametrize("an_max", [100, 150])
    def test_summary_equals_ar_at_an_and_auc(self, an_max):
        """AR@10/50/100, read off the AR curve, and the AUC equal `ar_at_an`
        and `auc` over the same recall matrices to the bit, and the AUC is
        100 x the mean of the curve's first 100 points."""
        rng = np.random.default_rng(11)
        per_video = {}
        for v in range(7):
            starts = rng.uniform(0, 50, int(rng.integers(1, 130)))
            props = [Proposal(s, s + length, score) for s, length, score in
                     zip(starts, rng.uniform(0.5, 30, starts.size),
                         np.sort(rng.random(starts.size))[::-1])]
            g = rng.uniform(0, 60, int(rng.integers(0, 5)))
            per_video[f"v{v}"] = (props, AnnotationSet([(s, s + 5.0) for s in g]))
        result = evaluate_dataset(per_video, ANET_THRESHOLDS, an_max=an_max)
        an_values = list(range(1, an_max + 1))
        mats = [recall_matrix(p, gt, ANET_THRESHOLDS, an_values)
                for p, gt in per_video.values() if gt.instances]
        assert result["eligible_videos"] == len(mats) > 1
        for an in (10, 50, 100):
            assert result[f"AR@{an}"] == ar_at_an(mats, an - 1)
        assert result["AUC"] == auc(mats, an_values)
        assert result["AUC"] == 100.0 * float(np.mean(result["ar_curve"][:100]))

    def test_each_ar_point_is_computed_once(self, monkeypatch):
        """The AUC reads the AR curve that the summary already holds: one
        `ar_at_an` call per AN column, 100 in all."""
        calls = []
        monkeypatch.setattr(metrics_mod, "ar_at_an",
                            lambda recalls, j: calls.append(j) or ar_at_an(recalls, j))
        per_video = {"a": ([Proposal(0.0, 10.0, 0.9)], AnnotationSet([(0.0, 10.0)]))}
        result = evaluate_dataset(per_video, ANET_THRESHOLDS)
        assert calls == list(range(100)) and result["AUC"] == pytest.approx(100.0)

    def test_all_empty_gt(self):
        result = evaluate_dataset({"a": ([], AnnotationSet([]))}, [0.5])
        assert result == {"eligible_videos": 0}

    def test_report_and_curve_files(self, tmp_path):
        per_video = {"a": ([Proposal(0, 4, 0.9)], AnnotationSet([(0, 4)]))}
        result = evaluate_dataset(per_video, [0.5, 0.75])
        rpt = tmp_path / "report.txt"
        csv = tmp_path / "curve.csv"
        write_report(result, rpt)
        write_ar_curve_csv(result, csv)
        text = rpt.read_text()
        assert "AUC" in text and "AR@10" in text
        lines = csv.read_text().splitlines()
        assert lines[0] == "an,ar" and len(lines) == 101
