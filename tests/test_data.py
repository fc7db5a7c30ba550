import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from semiprop import data
from semiprop.data import (MIN_T, AnnotationSet, DatasetManifest, FeatureSequence,
                           FormatError, build_label_maps, candidate_mask,
                           gen_synthetic_dataset, iou_1d, load_video,
                           read_features, read_manifest, write_features,
                           write_framed, write_manifest)
from semiprop.metrics import write_ar_curve_csv, write_report
from semiprop.model import HyperShape, ProposalNetwork, build_bm_mask
from semiprop.perturb import Predictions, align_flip_outputs
from semiprop.postprocess import Proposals, write_proposals
from semiprop.trainer import LOSS_TERMS, TrainConfig, _truncate_metrics
from sampler_reference import assert_same_entries, csc_bm_mask


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
        assert np.all(lm.g_iou[candidate_mask(20, 10) == 0] == 0)
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


# ---------------------------------------------------------------------------
# the candidate grid against the per-element loops it replaced: the d/i
# append loop of the sampling matrix, the per-snippet boundary loop of the
# label maps and the per-row loop of the flip alignment

def loop_bm_mask(T, D, N):
    d_list, i_list = [], []
    for d in range(D):
        for i in range(T - d):
            d_list.append(d)
            i_list.append(i)
    d_idx, i_idx = np.asarray(d_list), np.asarray(i_list)
    n_valid = d_idx.shape[0]
    dur = (d_idx + 1).astype(np.float64)
    lo = i_idx - 0.25 * dur
    hi = i_idx + 1.25 * dur
    steps = np.arange(N) / (N - 1)
    locs = np.clip(lo[None, :] + (hi - lo)[None, :] * steps[:, None], 0.0, T - 1.0)
    base = np.floor(locs).astype(np.int64)
    frac = locs - base
    # sample point n of candidate j weighs snippet t at row n*T + t, column j
    rows = np.arange(N)[:, None] * T + base
    cols = np.broadcast_to(np.arange(n_valid), base.shape)
    up = frac > 0
    rows = np.concatenate([rows.ravel(), (rows[up] + 1).ravel()])
    ccols = np.concatenate([cols.ravel(), cols[up].ravel()])
    vals = np.concatenate([(1.0 - frac).ravel(), frac[up].ravel()])
    S = sparse.coo_matrix((vals, (rows, ccols)), shape=(N * T, n_valid)).tocsc()
    return S, d_idx, i_idx


def loop_label_maps(instances, T, D):
    def region_overlap(lo, hi, rlo, rhi):
        return max(0.0, min(hi, rhi) - max(lo, rlo))

    g_start, g_end, g_iou = np.zeros(T), np.zeros(T), np.zeros((D, T))
    d_grid, i_grid = np.arange(D)[:, None], np.arange(T)[None, :]
    valid = ((i_grid + d_grid + 1) <= T).astype(np.float64)
    for ts, te in instances:
        dur = te - ts
        half = dur / 10.0
        for t in range(T):
            g_start[t] = max(g_start[t], region_overlap(t, t + 1, ts - half, ts + half))
            g_end[t] = max(g_end[t], region_overlap(t, t + 1, te - half, te + half))
        starts = i_grid.astype(np.float64)
        ends = starts + d_grid + 1.0
        inter = np.maximum(np.minimum(ends, te) - np.maximum(starts, ts), 0.0)
        g_iou = np.maximum(g_iou, inter / ((ends - starts) + dur - inter))
    return g_start, g_end, g_iou * valid


def loop_flip_map(m, T, D):
    res = np.zeros_like(m)
    for d in range(D):
        src = T - (d + 1) - np.arange(T)
        ok = src >= 0
        res[d, ok] = m[d, src[ok]]
    return res


@pytest.mark.parametrize("T", range(1, 18))
def test_candidate_grid_matches_loops(T):
    """Every D <= T, two random annotation sets each."""
    rng = np.random.default_rng(T)
    for D in range(1, T + 1):
        N = 2 + (T + D) % 4
        want, d_idx, i_idx = loop_bm_mask(T, D, N)
        S = csc_bm_mask(T, D, N)
        assert S.format == "csc" and S.shape == want.shape
        for attr in ("data", "indices", "indptr"):
            got, ref = getattr(S, attr), getattr(want, attr)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), attr
        assert_same_entries(build_bm_mask(T, D, N), want)
        vm = np.zeros((D, T))
        vm[d_idx, i_idx] = 1.0
        assert np.array_equal(candidate_mask(T, D), vm)
        net = ProposalNetwork(HyperShape(T=T, D=D, N=N))
        assert np.array_equal(net.valid_mask, vm)
        assert np.array_equal(net.cells, d_idx * T + i_idx)
        for _ in range(2):
            inst = []
            for _ in range(rng.integers(1, 4)):
                s = rng.uniform(0, T - 0.5)
                inst.append((s, min(float(T), s + rng.uniform(0.2, T))))
            lm = build_label_maps(AnnotationSet(inst), T, D)
            for got, want in zip((lm.g_start, lm.g_end, lm.g_iou), loop_label_maps(inst, T, D)):
                assert np.array_equal(got, want)
            pred = Predictions(p_s=rng.random(T), p_e=rng.random(T), m_cc=rng.random((D, T)),
                               m_cr=rng.random((D, T)) * vm)
            al = align_flip_outputs(pred)
            for m in ("m_cc", "m_cr"):
                assert np.array_equal(getattr(al, m), loop_flip_map(getattr(pred, m), T, D))


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

    @pytest.mark.parametrize("T,C", [(3, 4), (0, 4), (-2, -8)])
    def test_header_below_the_smallest_T_rejected(self, tmp_path, T, C):
        path = tmp_path / "a.feat"
        write_framed(path, data.MAGIC, data.FEATURE_PREFIX, {"video_id": "vid", "T": T, "C": C},
                     [np.zeros(T * C, "<f4")])
        with pytest.raises(FormatError, match="a.feat: "):
            read_features(path)

    def test_header_without_video_id_rejected(self, tmp_path):
        path = tmp_path / "a.feat"
        write_features(FeatureSequence("vid", np.ones((4, 2), dtype=np.float32)), path)
        path.write_bytes(path.read_bytes().replace(b'"video_id"', b'"video_iD"'))
        with pytest.raises(FormatError, match="video_id"):
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


def _metrics_writer(path, version):
    """Version 1 writes two epochs' lines; version 2 cuts them back to one."""
    if version == 1:
        path.write_text("".join(json.dumps({"epoch": e, "total": 0.5, **dict.fromkeys(
            LOSS_TERMS, 0.1)}) + "\n" for e in (1, 2)))
    else:
        _truncate_metrics(str(path), 1)


# every text artifact writer (`write_framed` has its own test above), each
# writing a different file for version 1 and 2
WRITERS = {
    "config": lambda path, v: TrainConfig(seed=v).to_file(path),
    "manifest": lambda path, v: write_manifest(DatasetManifest([], v, {"n": v}), path),
    "report": lambda path, v: write_report({"eligible_videos": v, "AUC": 0.5}, path),
    "ar_curve": lambda path, v: write_ar_curve_csv(
        {"an_values": [1, 2], "ar_curve": [0.1 * v, 0.5]}, path),
    "proposals": lambda path, v: write_proposals(
        Proposals([0.0, 1.0], [2.0, 3.0], [0.9, 0.5]), 8 + v, path),
    "metrics": _metrics_writer,
}


@pytest.mark.parametrize("kind", WRITERS)
def test_write_failing_part_way_leaves_earlier_file(tmp_path, monkeypatch, kind):
    """Each writer goes through `data.replacing`: its first `write` call puts half
    its bytes in the file and then raises, and the file written before is
    left as it was, with no temporary file beside it."""
    def failing_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        real = fh.write

        def write(chunk):
            real(chunk[:len(chunk) // 2])
            fh.flush()
            raise OSError("no space left on device")

        fh.write = write
        return fh

    path = tmp_path / "artifact"
    WRITERS[kind](path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(data, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space left"):
        WRITERS[kind](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["artifact"]
    WRITERS[kind](path, 2)
    assert path.read_bytes() != before


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

    @pytest.mark.parametrize("T", [3, 4])
    def test_manifest_T_has_the_feature_files_minimum(self, tmp_path, T):
        gen_synthetic_dataset(tmp_path, n_videos=1, T=16, C=4,
                              label_fraction=1.0, seed=2)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        doc["videos"][0].update(T=T, annotations=[[0.5, 2.0]])
        path.write_text(json.dumps(doc))
        if T < MIN_T:
            with pytest.raises(FormatError, match=f"T must be an integer >= {MIN_T}, got {T}"):
                read_manifest(path)
        else:
            assert read_manifest(path).videos[0].T == T

    @pytest.mark.parametrize("field", ["T", "C"])
    def test_load_video_checks_header_against_manifest(self, tmp_path, field):
        m = gen_synthetic_dataset(tmp_path, n_videos=1, T=20, C=4,
                                  label_fraction=1.0, seed=2)
        entry = m.videos[0]
        setattr(entry, field, getattr(entry, field) + 10)
        with pytest.raises(FormatError, match="manifest says"):
            load_video(tmp_path / "manifest.json", entry)

    @pytest.mark.parametrize("source", ["generated", "read_back"])
    def test_write_manifest_bytes_equal_the_field_by_field_writer(self, tmp_path, source):
        """`write_manifest` dumps the dataclasses' own fields; its bytes equal
        those of the writer that listed every field by hand, both for a
        generated manifest and for one read back (whose annotations are
        tuples)."""
        m = gen_synthetic_dataset(tmp_path, n_videos=5, T=20, C=4,
                                  label_fraction=0.4, seed=6)
        if source == "read_back":
            m = read_manifest(tmp_path / "manifest.json")
            assert all(type(a) is tuple for v in m.videos for a in v.annotations)
        doc = {
            "seed": m.seed,
            "generator_params": m.generator_params,
            "videos": [
                {
                    "video_id": v.video_id, "T": v.T, "C": v.C, "labeled": v.labeled,
                    "feature_file": v.feature_file, "annotations": v.annotations,
                }
                for v in m.videos
            ],
        }
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        write_manifest(m, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == want.encode()
