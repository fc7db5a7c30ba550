import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiprop.data import (AnnotationSet, FeatureSequence, FormatError,
                           build_label_maps, gen_synthetic_dataset, iou_1d,
                           load_video, read_features, read_manifest,
                           write_features, write_framed)


class TestIou:
    def test_partial_overlap(self):
        assert iou_1d((0, 10), (5, 15)) == pytest.approx(1 / 3)

    def test_identity(self):
        assert iou_1d((0, 10), (0, 10)) == 1.0

    def test_touching_segments_are_disjoint(self):
        assert iou_1d((0, 5), (5, 10)) == 0.0

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            iou_1d((5, 5), (0, 10))

    @given(st.tuples(st.floats(0, 50), st.floats(0.1, 50)),
           st.tuples(st.floats(0, 50), st.floats(0.1, 50)))
    def test_symmetric_and_bounded(self, a, b):
        sa = (a[0], a[0] + a[1])
        sb = (b[0], b[0] + b[1])
        v = iou_1d(sa, sb)
        assert v == iou_1d(sb, sa)
        assert 0.0 <= v <= 1.0

    @given(st.floats(0, 50), st.floats(0.1, 50))
    def test_equals_one_iff_identical(self, s, d):
        assert iou_1d((s, s + d), (s, s + d)) == pytest.approx(1.0)


def brute_force_iou_table(instances, T, D):
    """Independent double-loop oracle for the g_iou map."""
    table = np.zeros((D, T))
    for d in range(D):
        for i in range(T):
            if i + d + 1 > T:
                continue
            best = 0.0
            for ts, te in instances:
                best = max(best, iou_1d((i, i + d + 1), (ts, te)))
            table[d, i] = best
    return table


class TestLabelMaps:
    def test_empty_annotations_all_zero(self):
        lm = build_label_maps(AnnotationSet([]), T=20, D=10)
        assert lm.g_start.sum() == 0 and lm.g_end.sum() == 0 and lm.g_iou.sum() == 0
        assert lm.valid_mask.sum() > 0

    def test_exact_candidate_scores_one(self):
        lm = build_label_maps(AnnotationSet([(4, 12)]), T=20, D=10)
        assert lm.g_iou[7, 4] == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = rng.integers(1, 4)
            inst = []
            for _ in range(n):
                s = rng.uniform(0, 15)
                inst.append((s, s + rng.uniform(0.5, 5)))
            lm = build_label_maps(AnnotationSet(inst), T=20, D=10)
            oracle = brute_force_iou_table(inst, 20, 10)
            assert np.abs(lm.g_iou - oracle).max() <= 1e-12

    def test_valid_mask_zeroes_invalid(self):
        lm = build_label_maps(AnnotationSet([(0, 20)]), T=20, D=10)
        assert np.all(lm.g_iou[lm.valid_mask == 0] == 0)
        assert np.all((lm.g_iou >= 0) & (lm.g_iou <= 1))
        assert np.all((lm.g_start >= 0) & (lm.g_start <= 1))

    def test_monotone_in_annotations(self):
        rng = np.random.default_rng(7)
        base = [(2.0, 6.0)]
        lm1 = build_label_maps(AnnotationSet(base), T=20, D=10)
        lm2 = build_label_maps(AnnotationSet(base + [(10.0, 15.0)]), T=20, D=10)
        assert np.all(lm2.g_iou >= lm1.g_iou)
        assert np.all(lm2.g_start >= lm1.g_start)
        assert np.all(lm2.g_end >= lm1.g_end)

    def test_d_larger_than_t_rejected(self):
        with pytest.raises(ValueError):
            build_label_maps(AnnotationSet([]), T=5, D=6)


class TestFeatureIO:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        seq = FeatureSequence("vid", rng.normal(size=(10, 4)).astype(np.float32))
        path = tmp_path / "a.feat"
        write_features(seq, path)
        back = read_features(path)
        assert back.video_id == "vid"
        assert np.array_equal(back.values, seq.values)

    def test_shape_mismatch_rejected(self, tmp_path):
        seq = FeatureSequence("vid", np.zeros((10, 4), dtype=np.float32))
        path = tmp_path / "a.feat"
        write_features(seq, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])  # drop one float
        with pytest.raises(FormatError, match="float32 values"):
            read_features(path)

    def test_nonfinite_payload_rejected(self, tmp_path):
        seq = FeatureSequence("vid", np.zeros((4, 4), dtype=np.float32))
        path = tmp_path / "a.feat"
        write_features(seq, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.inf], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            read_features(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a feature file at all")
        with pytest.raises(FormatError, match="magic"):
            read_features(path)

    def test_every_truncation_rejected(self, tmp_path):
        seq = FeatureSequence("vid", np.ones((4, 2), dtype=np.float32))
        path = tmp_path / "a.feat"
        write_features(seq, path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.feat"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(FormatError):
                read_features(cut)

    @pytest.mark.parametrize("extra", [b"\0", b"\0" * 4, b"junk" * 8])
    def test_trailing_bytes_rejected(self, tmp_path, extra):
        seq = FeatureSequence("vid", np.ones((4, 2), dtype=np.float32))
        path = tmp_path / "a.feat"
        write_features(seq, path)
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError, match="float32 values"):
            read_features(path)

    def test_write_nonfinite_rejected(self, tmp_path):
        vals = np.zeros((4, 4), dtype=np.float32)
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            write_features(FeatureSequence("v", vals), tmp_path / "x")


class TestFramedWrite:
    def test_layout(self, tmp_path):
        path = tmp_path / "f.bin"
        payload = np.arange(3, dtype="<f4")
        write_framed(path, b"MAGICxyz", b"pre", {"n": 3}, [payload])
        hbytes = json.dumps({"n": 3}).encode()
        assert path.read_bytes() == (b"MAGICxyz" + b"pre" + len(hbytes).to_bytes(4, "little")
                                     + hbytes + payload.tobytes())
        assert os.listdir(tmp_path) == ["f.bin"]

    def test_failed_write_leaves_old_file(self, tmp_path):
        class Boom:
            def tobytes(self):
                raise RuntimeError("disk went away")

        path = tmp_path / "checkpoint.bin"
        write_framed(path, b"MAGICxyz", b"", {"n": 1}, [np.ones(1)])
        before = path.read_bytes()
        with pytest.raises(RuntimeError, match="disk went away"):
            write_framed(path, b"MAGICxyz", b"", {"n": 2}, [np.ones(1), Boom()])
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["checkpoint.bin"]


class TestGenerator:
    def test_basic_contract(self, tmp_path):
        m = gen_synthetic_dataset(tmp_path, n_videos=1, T=16, C=4,
                                  label_fraction=1.0, seed=7)
        assert len(m.videos) == 1 and m.videos[0].labeled
        anns = m.videos[0].annotations
        assert 1 <= len(anns) <= 3
        for ts, te in anns:
            assert 0 <= ts < te <= 16

    def test_label_fraction_rounding(self, tmp_path):
        m = gen_synthetic_dataset(tmp_path, n_videos=10, T=20, C=4,
                                  label_fraction=0.1, seed=1)
        assert sum(v.labeled for v in m.videos) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        gen_synthetic_dataset(d1, n_videos=3, T=24, C=4, label_fraction=0.5, seed=9)
        gen_synthetic_dataset(d2, n_videos=3, T=24, C=4, label_fraction=0.5, seed=9)
        for name in sorted(p.name for p in d1.iterdir()):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_instances_non_overlapping(self, tmp_path):
        m = gen_synthetic_dataset(tmp_path, n_videos=5, T=50, C=4,
                                  label_fraction=1.0, seed=3)
        for v in m.videos:
            inst = sorted(v.annotations)
            for (s1, e1), (s2, e2) in zip(inst, inst[1:]):
                assert e1 <= s2

    def test_invalid_fraction_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            gen_synthetic_dataset(tmp_path, n_videos=1, T=16, C=4,
                                  label_fraction=1.5, seed=1)

    def test_manifest_roundtrip(self, tmp_path):
        m = gen_synthetic_dataset(tmp_path, n_videos=4, T=20, C=4,
                                  label_fraction=0.5, seed=2)
        back = read_manifest(tmp_path / "manifest.json")
        assert back.seed == 2
        assert [v.video_id for v in back.videos] == [v.video_id for v in m.videos]
        assert all((tmp_path / v.feature_file).exists() for v in back.videos)


class TestManifest:
    @pytest.mark.parametrize("seed", [None, "2", 2.0, True])
    def test_manifest_seed_must_be_integer(self, tmp_path, seed):
        gen_synthetic_dataset(tmp_path, n_videos=1, T=16, C=4,
                              label_fraction=1.0, seed=2)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        if seed is None:
            del doc["seed"]
        else:
            doc["seed"] = seed
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="seed"):
            read_manifest(path)

    @pytest.mark.parametrize("field", ["T", "C"])
    def test_load_video_checks_header_against_manifest(self, tmp_path, field):
        m = gen_synthetic_dataset(tmp_path, n_videos=1, T=20, C=4,
                                  label_fraction=1.0, seed=2)
        entry = m.videos[0]
        setattr(entry, field, getattr(entry, field) + 10)
        with pytest.raises(FormatError, match="manifest says"):
            load_video(tmp_path / "manifest.json", entry)
