"""Re-identification scoring against truth identities."""

import pytest

from sianms.matching import MatchedPair, MatchResult
from sianms.reid_eval import MissingTruth, ReidStats, UnscorablePair, accumulate, evaluate_frame
from sianms.scene import BBox2D, CameraModel, CameraRig, Detection2D


def _det(cam, uid, cls="car"):
    return Detection2D(
        camera_id=cam,
        bbox=BBox2D(0.0, 0.0, 10.0, 10.0),
        class_id=cls,
        score=0.8,
        truth_uid=uid,
    )


def _rig(adjacency=(("a", "b"),)):
    ids = sorted({c for pair in adjacency for c in pair} | {"a", "b"})
    cams = tuple(
        CameraModel(id=c, fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
        for c in ids
    )
    return CameraRig(cameras=cams, adjacency=adjacency)


class TestReidStats:
    def test_ratios(self):
        stats = ReidStats(tp=6, tn=10, fp=2, fn=2)
        assert stats.precision == pytest.approx(0.75)
        assert stats.recall == pytest.approx(0.75)
        assert stats.f_score == pytest.approx(0.75)

    def test_zero_denominators(self):
        empty = ReidStats()
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f_score == 0.0

    def test_as_dict_round_trip_keys(self):
        d = ReidStats(tp=1, tn=2, fp=3, fn=4).as_dict()
        assert d == {
            "tp": 1, "tn": 2, "fp": 3, "fn": 4,
            "precision": d["precision"], "recall": d["recall"], "f_score": d["f_score"],
        }


class TestEvaluateFrame:
    def test_counts_by_hand(self):
        rig = _rig()
        a1, a2 = _det("a", 1), _det("a", 2)
        b1, b2, b3 = _det("b", 1), _det("b", 2), _det("b", 3)
        # produced: the correct (a1, b1) and the wrong (a2, b3)
        matches = MatchResult(
            pairs=[
                MatchedPair(a=a1, b=b1, distance=0.1),
                MatchedPair(a=a2, b=b3, distance=0.2),
            ],
            unmatched=[b2],
        )
        stats = evaluate_frame(matches, [a1, a2, b1, b2, b3], rig.adjacency, 0)
        # candidates: (a1,b1)+ (a1,b2) (a1,b3) (a2,b1) (a2,b2)+ (a2,b3)
        assert stats.tp == 1  # (a1, b1)
        assert stats.fp == 1  # (a2, b3)
        assert stats.fn == 1  # (a2, b2) shares uid 2, not produced
        assert stats.tn == 3

    def test_cross_class_pairs_not_candidates(self):
        rig = _rig()
        a1 = _det("a", 1, cls="car")
        b1 = _det("b", 1, cls="pedestrian")
        stats = evaluate_frame(MatchResult(pairs=[], unmatched=[a1, b1]), [a1, b1], rig.adjacency, 0)
        assert (stats.tp, stats.tn, stats.fp, stats.fn) == (0, 0, 0, 0)

    def test_nonadjacent_cameras_not_candidates(self):
        rig = _rig(adjacency=(("a", "b"),))
        c_cam = CameraModel(id="c", fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=1.0, height=1.0)
        rig = CameraRig(cameras=rig.cameras + (c_cam,), adjacency=rig.adjacency)
        a1, c1 = _det("a", 1), _det("c", 1)
        stats = evaluate_frame(MatchResult(pairs=[], unmatched=[a1, c1]), [a1, c1], rig.adjacency, 0)
        assert (stats.tp, stats.tn, stats.fp, stats.fn) == (0, 0, 0, 0)

    def test_duplicate_adjacency_counted_once(self):
        rig = _rig(adjacency=(("a", "b"), ("b", "a")))
        a1, b1 = _det("a", 1), _det("b", 2)
        stats = evaluate_frame(MatchResult(pairs=[], unmatched=[a1, b1]), [a1, b1], rig.adjacency, 0)
        assert stats.tn == 1

    def test_missing_truth_rejected(self):
        rig = _rig()
        bad = Detection2D(
            camera_id="a", bbox=BBox2D(0, 0, 1, 1), class_id="car", score=0.5
        )
        with pytest.raises(MissingTruth):
            evaluate_frame(MatchResult(pairs=[], unmatched=[bad]), [bad], rig.adjacency, 0)

    @pytest.mark.parametrize("pair, message", [
        (("a1", "a1"), "pair of a 'car' in camera 'a' and a 'car' in camera 'a'"),
        (("a1", "a2"), "pair of a 'car' in camera 'a' and a 'car' in camera 'a'"),
        (("a1", "c1"), "pair of a 'car' in camera 'a' and a 'car' in camera 'c'"),
        (("a1", "b_ped"), "pair of a 'car' in camera 'a' and a 'pedestrian' in camera 'b'"),
    ], ids=["itself", "same_camera", "non_adjacent", "two_classes"])
    def test_pair_that_is_no_candidate_is_refused(self, pair, message):
        rig = _rig(adjacency=(("a", "b"), ("b", "c")))
        dets = {"a1": _det("a", 1), "a2": _det("a", 1), "c1": _det("c", 1),
                "b_ped": _det("b", 1, cls="pedestrian")}
        a, b = (dets[name] for name in pair)
        matches = MatchResult(pairs=[MatchedPair(a=a, b=b, distance=0.0)], unmatched=[])
        with pytest.raises(UnscorablePair) as err:
            evaluate_frame(matches, list(dets.values()), rig.adjacency, 7)
        assert str(err.value) == f"frame 7: {message} is no same-class pair across adjacent cameras"

    def test_detection_in_two_pairs_is_scored(self):
        rig = _rig(adjacency=(("a", "b"), ("b", "c")))
        a1, b1, c1 = _det("a", 1), _det("b", 1), _det("c", 1)
        pairs = [MatchedPair(a=a1, b=b1, distance=0.0), MatchedPair(a=b1, b=c1, distance=0.0)]
        stats = evaluate_frame(MatchResult(pairs=pairs, unmatched=[]), [a1, b1, c1], rig.adjacency, 0)
        assert (stats.tp, stats.fp, stats.fn, stats.tn) == (2, 0, 0, 0)

    def test_pair_direction_irrelevant(self):
        rig = _rig()
        a1, b1 = _det("a", 1), _det("b", 1)
        matches = MatchResult(pairs=[MatchedPair(a=b1, b=a1, distance=0.0)], unmatched=[])
        stats = evaluate_frame(matches, [a1, b1], rig.adjacency, 0)
        assert stats.tp == 1


class TestAccumulate:
    def test_sums_counters(self):
        total = accumulate(
            [ReidStats(tp=1, tn=2, fp=3, fn=4), ReidStats(tp=10, tn=20, fp=30, fn=40)]
        )
        assert (total.tp, total.tn, total.fp, total.fn) == (11, 22, 33, 44)

    def test_empty(self):
        total = accumulate([])
        assert (total.tp, total.tn, total.fp, total.fn) == (0, 0, 0, 0)
