"""Re-identification accuracy over ground-truth identities.

A candidate is any same-class detection pair across an adjacent camera
pair; that is exactly the population the matcher scores.  Counts per frame:

* TP: produced pair whose detections share a truth uid.
* FP: produced pair with differing truth uids.
* FN: candidate pair sharing a truth uid that was not produced.
* TN: candidate pair with differing truth uids correctly left unmatched.

A produced pair that is no candidate (a detection paired with itself, or
two of one camera, of non-adjacent cameras or of two classes) is neither TP
nor FP, so it is refused rather than dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

from .matching import MatchResult
from .scene import Detection2D


# the statistics a re-id table lists, in table order
REID_RATES = ("precision", "recall", "f_score")
REID_KEYS = REID_RATES + ("tp", "fp", "fn", "tn")


class MissingTruth(ValueError):
    """A detection lacks the truth uid needed for evaluation."""


class UnscorablePair(ValueError):
    """A produced pair is no candidate pair, so it cannot be scored."""


@dataclass(frozen=True)
class ReidStats:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    @property
    def precision(self) -> float:
        denom = self.tp + self.fp
        return self.tp / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def f_score(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def as_dict(self) -> dict:
        return {
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
        }


def evaluate_frame(matches: MatchResult, detections, adjacency, frame: int) -> ReidStats:
    """Score the produced pairs of the frame with index frame against truth
    uids; adjacency is the rig's camera pairs, all this reads of a rig.

    Candidate universes are built once per unordered adjacent camera pair.
    Raises MissingTruth when any detection lacks a truth uid, and
    UnscorablePair, naming the frame, when a produced pair is no candidate.
    """
    detections = list(detections)
    for det in detections:
        if det.truth_uid is None:
            raise MissingTruth(f"detection in camera {det.camera_id!r} lacks truth_uid")
    adjacent = dict.fromkeys(map(frozenset, adjacency))  # unordered, in first-occurrence order
    for pair in matches.pairs:
        a, b = pair.a, pair.b
        if a.class_id != b.class_id or frozenset((a.camera_id, b.camera_id)) not in adjacent:
            raise UnscorablePair(
                f"frame {frame}: pair of a {a.class_id!r} in camera {a.camera_id!r} and a "
                f"{b.class_id!r} in camera {b.camera_id!r} is no same-class pair across "
                "adjacent cameras"
            )
    by_camera: dict[str, list[Detection2D]] = {}
    for det in detections:
        by_camera.setdefault(det.camera_id, []).append(det)
    produced = {frozenset((id(pair.a), id(pair.b))) for pair in matches.pairs}
    tp = tn = fp = fn = 0
    for cam_a, cam_b in adjacent:
        for da in by_camera.get(cam_a, []):
            for db in by_camera.get(cam_b, []):
                if da.class_id != db.class_id:
                    continue
                was_produced = frozenset((id(da), id(db))) in produced
                same_identity = da.truth_uid == db.truth_uid
                if was_produced and same_identity:
                    tp += 1
                elif was_produced:
                    fp += 1
                elif same_identity:
                    fn += 1
                else:
                    tn += 1
    return ReidStats(tp=tp, tn=tn, fp=fp, fn=fn)


def accumulate(stats_list) -> ReidStats:
    """Counter-wise sum over frames; ratios recompute from the sums."""
    tp = tn = fp = fn = 0
    for s in stats_list:
        tp += s.tp
        tn += s.tn
        fp += s.fp
        fn += s.fn
    return ReidStats(tp=tp, tn=tn, fp=fp, fn=fn)
