"""Deterministic ground-truth channel generator.

Path loss at an RX is the strongest (minimum-loss) of the line-of-sight
path and all valid single-bounce reflections found with the image
method.  No diffraction, no multi-bounce, no coherent summation: the
oracle trades propagation fidelity for exactness, which is what the
feature/knowledge layers above it need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import EPS_EXACT, Blockage, Scene, _slab_test, as_vec3, in_boxes, row_norms
# perfbench's tracer tests expect segment_blocked in this module's namespace
from .geometry import segment_blocked  # noqa: F401

SPEED_OF_LIGHT = 299_792_458.0

#: Sentinel path loss when no propagation path reaches the RX [dB].
OUTAGE_CAP_DB = 250.0


def fspl_db(distance_m: float, frequency_hz: float) -> float:
    """Free-space path loss 20*log10(4*pi*d*f/c) in dB."""
    if not (distance_m > 0):
        raise ValueError("distance_m must be positive")
    if not (frequency_hz > 0):
        raise ValueError("frequency_hz must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m * frequency_hz / SPEED_OF_LIGHT)


@dataclass(frozen=True)
class Path:
    kind: str  # "LOS" or "Reflection"
    length_m: float
    loss_db: float
    via_scatterer: int | None = None
    reflection_point: np.ndarray | None = None


@dataclass(frozen=True)
class ChannelSample:
    position_id: int
    rx: np.ndarray
    path_loss_db: float
    los: bool
    n_paths: int


#: Face order within a box: (axis 0 lo, axis 0 hi, axis 1 lo, ...), each
#: face with its axis and the sign of its outward normal.
_FACE_AXIS = np.array([0, 0, 1, 1, 2, 2])
_FACE_SIGN = np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0])


@dataclass(frozen=True)
class Trace:
    """One oracle pass at a receiver, from which the channel sample, the
    effective scatterers and the features are all built."""

    scene: Scene
    rx: np.ndarray          # validated receiver position
    direct: Blockage        # occlusion of the TX-RX segment
    paths: tuple            # valid LOS + single-bounce paths, ascending by loss

    @property
    def los(self) -> bool:
        return not self.direct.blocked

    def sample(self, position_id: int = 0) -> ChannelSample:
        """Strongest-path channel sample; outage capped at OUTAGE_CAP_DB."""
        loss = self.paths[0].loss_db if self.paths else OUTAGE_CAP_DB
        return ChannelSample(position_id=position_id, rx=self.rx, path_loss_db=float(loss),
                             los=self.los, n_paths=len(self.paths))

    def effective_scatterers(self) -> list:
        """Ids of scatterers that produce paths or occlude the direct segment."""
        ids = {p.via_scatterer for p in self.paths if p.via_scatterer is not None}
        ids.update(self.direct.blocker_ids)
        return sorted(ids)


class InsideScatterer(ValueError):
    """The receiver lies inside a scatterer."""


#: `_rx_faults` codes, in the order `_validate_rx` tests them.
RX_FREE, RX_INSIDE, RX_NOT_FINITE, RX_OUTSIDE, RX_AT_TX = range(5)

#: The ValueError message of each fault but a box holding the receiver.
RX_FAULTS = {RX_NOT_FINITE: "vector components must be finite",
             RX_OUTSIDE: "rx outside scene bounds", RX_AT_TX: "rx must differ from the TX"}


@np.errstate(over="ignore")  # a square that overflows is not 0, which is all the TX test asks
def _rx_faults(tx, bound_lo, bound_hi, box_lo, box_hi, rx) -> np.ndarray:
    """The first fault of each receiver rx[r] (R, 3) in realization r, whose
    padded bounds are bound_lo[r], bound_hi[r] (3,) and box corners
    box_lo[r], box_hi[r] (S, 3), tested for every r in one array pass:
    RX_FREE, or the code of what `_validate_rx` raises for it.  A box holds
    a receiver as `geometry.in_boxes` says."""
    d = rx - tx
    return np.select([~np.isfinite(rx).all(axis=1),
                      ((rx < bound_lo) | (rx > bound_hi)).any(axis=1),
                      in_boxes(rx[:, None], box_lo, box_hi).any(axis=1),
                      # the squared norm is 0 also where the norm underflows
                      (d * d == 0.0).all(axis=1)],
                     [RX_NOT_FINITE, RX_OUTSIDE, RX_INSIDE, RX_AT_TX], RX_FREE)


def _validate_rx(scene: Scene, rx):
    """rx as a finite (3,) array, if it lies in the scene's bounds, outside
    every box and away from the TX: `_rx_faults` of one receiver."""
    rx = as_vec3(rx)
    fault = _rx_faults(scene.tx, *scene.bounds(), scene.box_lo[None], scene.box_hi[None],
                       rx[None])[0]
    if fault == RX_INSIDE:
        raise InsideScatterer(f"rx lies inside scatterer {scene.ids_containing(rx)[0]}")
    if fault != RX_FREE:
        raise ValueError(RX_FAULTS[fault])
    return rx


def _bounces(tx, rx, lo, hi):
    """Candidate single bounces at rx (R, 3) among the box corners lo, hi
    (R, S, 3) of each realization, legs untested, in realization-then-
    scatterer-then-face order: each bounce's realization and box row, the
    TX image -> rx vector and the point."""
    # face plane values (R, S, 6); a face can reflect only if TX and RX both
    # lie on its outward side
    faces = np.array([lo, hi]).transpose(1, 2, 3, 0).reshape(len(lo), -1, 6)
    facing = ((_FACE_SIGN * (tx[_FACE_AXIS] - faces) > EPS_EXACT)
              & (_FACE_SIGN * (rx[:, None, _FACE_AXIS] - faces) > EPS_EXACT))
    real, box, face = np.nonzero(facing)
    axis = _FACE_AXIS[face]
    value = faces[real, box, face]
    # The bounce is where the segment from the TX image (TX mirrored
    # across the face plane) to RX crosses the plane; it must lie
    # strictly between them and on the face rectangle.
    on_axis = np.arange(3) == axis[:, None]
    img = 2.0 * value - tx[axis]
    tx_img = np.where(on_axis, img[:, None], tx)
    d = rx[real] - tx_img
    denom = rx[real, axis] - img
    t = (value - img) / denom
    p = tx_img + t[:, None] * d
    on_face = np.all(on_axis | ((p >= lo[real, box] - EPS_EXACT)
                                & (p <= hi[real, box] + EPS_EXACT)), axis=1)
    valid = (np.abs(denom) >= EPS_EXACT) & (t > EPS_EXACT) & (t < 1.0 - EPS_EXACT) & on_face
    return real[valid], box[valid], d[valid], p[valid]


def trace(scene: Scene, rx) -> Trace:
    """Validate rx, then trace it: `trace_all` of one realization."""
    return trace_all([scene], [_validate_rx(scene, rx)])[0]


def trace_all(scenes, rxs) -> list:
    """Trace the validated receiver rxs[r] in scenes[r], for every r at once.

    The scenes are realizations of one scene: they share the TX, the
    frequency and the boxes' ids, sizes and losses, and differ only in
    where the boxes are.  One face test finds every realization's bounces,
    and one slab pass tests every realization's direct segment and bounce
    legs against that realization's boxes.
    """
    base = scenes[0]
    tx, ids, freq = base.tx, base.box_ids, base.frequency_hz
    rx = np.array(rxs, dtype=float)
    lo = np.array([s.box_lo for s in scenes])
    hi = np.array([s.box_hi for s in scenes])
    real, box, d, p = _bounces(tx, rx, lo, hi)
    n_real, n = len(rx), len(box)
    # Rows 0..R-1 are TX -> rx[r], then come TX -> p and p -> RX of each
    # bounce; a leg must clear all geometry but its bouncing box, which
    # touches it only at p.
    starts = np.empty((n_real + 2 * n, 3))
    starts[:n_real + n] = tx
    starts[n_real + n:] = p
    ends = np.concatenate([rx, p, rx[real]])
    hit, enter, leave = _slab_test(starts, ends, lo, hi,
                                   np.concatenate([np.arange(n_real), real, real]))
    hit[n_real:] &= np.arange(len(ids)) != np.concatenate([box, box])[:, None]
    clear = np.flatnonzero(~(hit[n_real:n_real + n] | hit[n_real + n:]).any(axis=1))
    lengths = row_norms(np.concatenate([rx - tx, d[clear]])).tolist()
    paths = [[] for _ in scenes]
    directs = []
    for r in range(n_real):
        direct = Blockage.from_slab(hit[r], enter[r], leave[r], ids)
        if not direct.blocked:
            paths[r].append(Path(kind="LOS", length_m=lengths[r],
                                 loss_db=fspl_db(lengths[r], freq)))
        directs.append(direct)
    for r, k, length, point in zip(real[clear].tolist(), box[clear].tolist(),
                                   lengths[n_real:], p[clear]):
        loss = fspl_db(length, freq) + float(base.box_loss_db[k])
        paths[r].append(Path(kind="Reflection", length_m=length, loss_db=loss,
                             via_scatterer=int(ids[k]), reflection_point=point))
    for ps in paths:
        ps.sort(key=lambda p: (p.loss_db, p.kind,
                               -1 if p.via_scatterer is None else p.via_scatterer))
    return [Trace(scene=s, rx=x, direct=direct, paths=tuple(ps))
            for s, x, direct, ps in zip(scenes, rx, directs, paths)]


def trace_paths(scene: Scene, rx) -> list:
    """All valid LOS + single-bounce paths, sorted ascending by loss."""
    return list(trace(scene, rx).paths)


def path_loss(scene: Scene, rx, position_id: int = 0) -> ChannelSample:
    """Strongest-path channel sample; outage capped at OUTAGE_CAP_DB."""
    return trace(scene, rx).sample(position_id)
