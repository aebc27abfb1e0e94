"""Scene data model and exact geometric primitives.

Scenes are built from axis-aligned box scatterers around a fixed
transmitter.  Everything downstream (occlusion tests, image-method
reflections) reduces to slab-method ray/box interval arithmetic, which
keeps the propagation oracle exact and testable.
"""

from __future__ import annotations

import base64
import csv
import io
import json
import math
import os
import reprlib
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Exact predicates (interval overlap, point-on-plane) use EPS_EXACT.
EPS_EXACT = 1e-9

SCENE_FORMAT_VERSION = 1

# Padding added around geometry when deriving scene bounds [m].
BOUNDS_MARGIN_M = 50.0


def as_vec3(p) -> np.ndarray:
    """Coerce a point-like into a finite float64 array of shape (3,)."""
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector components must be finite")
    return v


#: Reprs in error messages: a few levels and items of a container, a few
#: dozen characters of anything else.
_BRIEF = reprlib.Repr()
_BRIEF.maxlevel, _BRIEF.maxstring, _BRIEF.maxother = 3, 40, 40


def brief(value) -> str:
    """repr(value) for an error message, at most 80 characters: never the
    whole of a large or deeply nested input."""
    text = _BRIEF.repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def as_int(value, name: str) -> int:
    """`value`, a Python or NumPy integer but not a bool, as an int."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {brief(value)}")
    return int(value)


def stream(seed: int, *keys) -> np.random.Generator:
    """The random stream of (seed mod 2**64, *keys): the one place a seed becomes draws."""
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, *keys]))


def in_boxes(p, lo, hi) -> np.ndarray:
    """Whether p lies in the closed box [lo, hi], padded by EPS_EXACT, along the last axis."""
    return np.all((p >= lo - EPS_EXACT) & (p <= hi + EPS_EXACT), axis=-1)


def row_norms(v) -> np.ndarray:
    """Euclidean norms of the rows of v (..., 3): each the float that
    `np.linalg.norm` gives for that row.  A row's squared norm is one
    matrix product, as `norm`'s is one dot product; an axis norm or
    `einsum` rounds some rows differently."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(v[..., None, :] @ v[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Scatterer:
    """Axis-aligned box obstacle/reflector."""

    id: int
    center: np.ndarray
    dims: np.ndarray  # (length_x, width_y, height_z), strictly positive
    reflection_loss_db: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "id", as_int(self.id, "scatterer id"))
        object.__setattr__(self, "center", as_vec3(self.center))
        object.__setattr__(self, "dims", as_vec3(self.dims))
        if np.any(self.dims <= 0):
            raise ValueError(f"scatterer {self.id}: dims must be strictly positive")
        if not (np.isfinite(self.reflection_loss_db) and self.reflection_loss_db >= 0):
            raise ValueError(f"scatterer {self.id}: reflection_loss_db must be finite and >= 0")

    @property
    def lo(self) -> np.ndarray:
        return self.center - self.dims / 2.0

    @property
    def hi(self) -> np.ndarray:
        return self.center + self.dims / 2.0


class Scene:
    """TX plus axis-aligned box scatterers, held as arrays in id order.

    Row k of `box_center`, `box_dims`, `box_lo`, `box_hi` (S, 3) and of
    `box_ids`, `box_loss_db` (S,) describes the box with the k-th smallest
    id, so that every point and segment test runs over all boxes at once.
    The padded bounds are derived once per scene.  `scatterers` holds the
    same boxes as `Scatterer` objects, for scene files and
    `scatterer_by_id`, built from the arrays when first asked.
    """

    def __init__(self, tx, frequency_hz: float, scatterers=()):
        self.tx = as_vec3(tx)
        scatterers = tuple(sorted(scatterers, key=lambda s: s.id))
        if not (np.isfinite(frequency_hz) and frequency_hz > 0):
            raise ValueError("frequency_hz must be finite and positive")
        ids = [s.id for s in scatterers]
        if len(ids) != len(set(ids)):
            raise ValueError("scatterer ids must be unique")
        self.frequency_hz = float(frequency_hz)
        self.box_ids = np.array(ids, dtype=int)
        self.box_dims = np.array([s.dims for s in scatterers]).reshape(-1, 3)
        self.box_loss_db = np.array([s.reflection_loss_db for s in scatterers], dtype=float)
        placed = self.with_centers(np.array([s.center for s in scatterers]).reshape(-1, 3))
        self.box_center, self.box_lo, self.box_hi = placed.box_center, placed.box_lo, placed.box_hi
        self._bounds = placed._bounds

    def with_centers(self, centers) -> Scene:
        """This scene with box k's center moved to row k of `centers`: the
        one placement of `realizations`."""
        scenes, error = self.realizations(np.asarray(centers, dtype=float)[None])
        if error is not None:
            raise error
        return scenes[0]

    def realizations(self, centers):
        """This scene's boxes placed R times: box k of placement r centered
        at centers[r, k], from centers (R, S, 3).

        The corners, the padded bounds and the test for a box holding the
        TX run over all R placements at once.  Returns the scenes of the
        placements before the first invalid one (non-finite centers, or a
        box over the TX) and that placement's ValueError, or None.
        """
        centers = np.asarray(centers, dtype=float)
        shape = self.box_dims.shape
        if centers.ndim != 3 or centers.shape[1:] != shape:
            raise ValueError(f"expected finite box centers of shape {shape}")
        lo = centers - self.box_dims / 2.0
        hi = centers + self.box_dims / 2.0
        # lo <= hi box by box: the lowest corner is a lo, the highest a hi
        bound_lo = np.minimum(self.tx, lo.min(axis=1, initial=np.inf)) - BOUNDS_MARGIN_M
        bound_hi = np.maximum(self.tx, hi.max(axis=1, initial=-np.inf)) + BOUNDS_MARGIN_M
        finite = np.isfinite(centers).all(axis=(1, 2))
        holds_tx = in_boxes(self.tx, lo, hi)
        bad = ~finite | holds_tx.any(axis=1)
        n = int(np.argmax(bad)) if bad.any() else len(centers)
        scenes = []
        for r in range(n):
            out = object.__new__(Scene)
            out.tx, out.frequency_hz = self.tx, self.frequency_hz
            out.box_ids, out.box_dims = self.box_ids, self.box_dims
            out.box_loss_db = self.box_loss_db
            out.box_center, out.box_lo, out.box_hi = centers[r], lo[r], hi[r]
            out._bounds = (bound_lo[r], bound_hi[r])
            scenes.append(out)
        if n == len(centers):
            return scenes, None
        if not finite[n]:
            return scenes, ValueError(f"expected finite box centers of shape {shape}")
        return scenes, ValueError(f"TX lies inside scatterer {self.box_ids[holds_tx[n]][0]}")

    @cached_property
    def scatterers(self) -> tuple:
        return tuple(Scatterer(id=int(i), center=c, dims=d, reflection_loss_db=float(loss))
                     for i, c, d, loss in zip(self.box_ids, self.box_center, self.box_dims,
                                              self.box_loss_db))

    def scatterer_by_id(self, sid: int) -> Scatterer:
        for s in self.scatterers:
            if s.id == sid:
                return s
        raise KeyError(sid)

    def bounds(self):
        """Padded AABB (lo, hi) covering TX and all scatterers."""
        return self._bounds

    def ids_containing(self, p) -> list:
        """Ids of the scatterers whose closed box, padded by EPS_EXACT, holds p."""
        return self.box_ids[in_boxes(p, self.box_lo, self.box_hi)].tolist()

    def point_free(self, p) -> bool:
        """True if p is outside every scatterer."""
        return not self.ids_containing(p)


@dataclass(frozen=True)
class Trajectory:
    positions: tuple = ()
    spacing_m: float = 0.0

    def __post_init__(self):
        if len(self.positions) == 0:
            raise ValueError("trajectory must contain at least one position")
        object.__setattr__(self, "positions", tuple(as_vec3(p) for p in self.positions))

    def __len__(self):
        return len(self.positions)


@np.errstate(over="ignore")  # as in _slab_test
def ray_box_intersect(origin, direction, box: Scatterer):
    """Slab-method ray/box intersection.

    Returns the (t_enter, t_exit) parametric interval of the supporting
    line inside the box, or None when the ray (t >= 0) misses the box.
    t_enter may be negative when the origin is inside the box.
    """
    origin = as_vec3(origin)
    direction = as_vec3(direction)
    if np.linalg.norm(direction) == 0.0:
        raise ValueError("direction must be nonzero")
    t_lo, t_hi = -np.inf, np.inf
    lo, hi = box.lo, box.hi
    for axis in range(3):
        d = direction[axis]
        o = origin[axis]
        if d == 0.0:
            if o < lo[axis] or o > hi[axis]:
                return None
            continue
        t0 = (lo[axis] - o) / d
        t1 = (hi[axis] - o) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo = max(t_lo, t0)
        t_hi = min(t_hi, t1)
        if t_lo > t_hi:
            return None
    if t_hi < 0.0:
        return None
    return (float(t_lo), float(t_hi))


@dataclass(frozen=True)
class Blockage:
    blocked: bool
    blocker_ids: tuple
    blocked_fraction: float

    @staticmethod
    def from_slab(hit, enter, leave, ids) -> Blockage:
        """One segment's blockage from its `_slab_test` row and the box ids:
        the boxes `hit` marks and the measure of their intervals' union."""
        if not hit.any():
            return Blockage(False, (), 0.0)
        intervals = sorted(zip(enter[hit].tolist(), leave[hit].tolist()))
        total = 0.0
        cur_a, cur_b = intervals[0]
        for a, b in intervals[1:]:
            if a > cur_b:
                total += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        total += cur_b - cur_a
        return Blockage(True, tuple(ids[hit].tolist()), float(min(total, 1.0)))


#: Most (segment, box) pairs one block of a `_slab_test` pass holds.
SLAB_ROW_BUDGET = 1 << 16


# A direction component so small that (box - p) / d overflows gives the
# +-inf slab bound that it stands for, so the overflow is no error.
@np.errstate(over="ignore")
def _slab_test(p, q, lo, hi, of):
    """Slab test of the segments p[m]-q[m] (M, 3), segment m against the
    boxes lo[of[m]], hi[of[m]] of the stacked box corners lo, hi (R, S, 3)
    (Williams et al. 2005).

    Returns (hit, enter, leave), each (M, S): the box's interval on the
    segment, in segment parameterization clipped to [0, 1], and whether the
    segment crosses the box for longer than EPS_EXACT.  Box for box this is
    the interval `ray_box_intersect` gives.  Segments go through in blocks
    of at most SLAB_ROW_BUDGET (segment, box) pairs, which bounds the
    memory of a pass.
    """
    rows = max(1, SLAB_ROW_BUDGET // max(lo.shape[1], 1))
    if len(p) > rows:
        blocks = [_slab_test(p[a:a + rows], q[a:a + rows], lo, hi, of[a:a + rows])
                  for a in range(0, len(p), rows)]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    # one set of boxes broadcasts to every segment as it is
    box_lo, box_hi = (lo[0], hi[0]) if len(lo) == 1 else (lo[of], hi[of])
    d = (q - p)[:, None, :]
    p = p[:, None, :]
    moving = d != 0.0
    step = np.where(moving, d, 1.0)
    t0 = (box_lo - p) / step
    t1 = (box_hi - p) / step
    enter = np.maximum(np.where(moving, np.minimum(t0, t1), -np.inf).max(axis=2), 0.0)
    leave = np.minimum(np.where(moving, np.maximum(t0, t1), np.inf).min(axis=2), 1.0)
    # along an axis with d == 0 a box is missed unless p lies in its slab
    in_slabs = np.all(moving | ((p >= box_lo) & (p <= box_hi)), axis=2)
    # leave - enter > EPS_EXACT also rejects boxes behind p (t_exit < 0)
    # and lines that miss (t_enter > t_exit), since then leave < enter
    return in_slabs & (leave - enter > EPS_EXACT), enter, leave


def segment_blocked(p, q, scene: Scene, exclude_ids=()) -> Blockage:
    """Occlusion test for the open segment p-q against scene scatterers.

    blocked_fraction is the measure of the union of the per-scatterer
    clipped intervals in segment parameterization.  Endpoint grazes
    within EPS_EXACT do not count as blockage, so a reflection point
    sitting exactly on a face never occludes its own bounce.
    """
    p = as_vec3(p)
    q = as_vec3(q)
    if np.linalg.norm(q - p) == 0.0:
        raise ValueError("segment endpoints must differ")
    hit, enter, leave = (a[0] for a in _slab_test(
        p[None], q[None], scene.box_lo[None], scene.box_hi[None], [0]))
    for sid in exclude_ids:
        hit &= scene.box_ids != sid
    return Blockage.from_slab(hit, enter, leave, scene.box_ids)


# ---------------------------------------------------------------------------
# Canonical street scene
# ---------------------------------------------------------------------------

#: Number of receiver positions on the canonical trajectory.
N_POSITIONS = 15


def canonical_street_scene(spacing_m: float = 5.0,
                           frequency_hz: float = 28e9,
                           reflection_loss_db: float = 10.0,
                           seed: int = 0):
    """Deterministic street-canyon scene with a 4-NLOS / 10-LOS split.

    Layout (all coordinates in meters): the RX trajectory runs east
    along the street axis at y=0, z=1.5.  The TX sits north-west of the
    street at 10 m height.  A corner building near the TX shadows the
    first four positions; a long south building row and an end building
    across the street provide single-bounce reflections so shadowed
    positions are not in outage.  `seed` only tags the construction; the
    generator itself is fully deterministic.
    """
    if spacing_m <= 0:
        raise ValueError("spacing_m must be positive")
    tx = np.array([-15.0, 35.0, 10.0])
    scatterers = (
        # corner blocker shadowing the start of the trajectory; x spans [4.8 - 10,
        # 4.8] and the computed midpoint (not -0.2) keeps scene files' bytes
        Scatterer(id=1, center=np.array([(4.8 - 10.0 + 4.8) / 2.0, 12.0, 6.0]),
                  dims=np.array([10.0, 8.0, 12.0]),
                  reflection_loss_db=reflection_loss_db),
        # south building row lining the far side of the street
        Scatterer(id=2, center=np.array([22.5, -14.0, 8.0]),
                  dims=np.array([75.0, 8.0, 16.0]),
                  reflection_loss_db=reflection_loss_db),
        # end building closing the street canyon to the east
        Scatterer(id=3, center=np.array([84.0, 6.0, 9.0]),
                  dims=np.array([8.0, 24.0, 18.0]),
                  reflection_loss_db=reflection_loss_db),
    )
    scene = Scene(tx=tx, frequency_hz=frequency_hz, scatterers=scatterers)
    positions = [np.array([spacing_m * (i + 1), 0.0, 1.5]) for i in range(N_POSITIONS)]
    for p in positions:
        if not scene.point_free(p):
            raise ValueError(f"trajectory position {p} lies inside a scatterer")
    return scene, Trajectory(positions=tuple(positions), spacing_m=spacing_m)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def scene_to_dict(scene: Scene, trajectory: Trajectory) -> dict:
    return {
        "version": SCENE_FORMAT_VERSION,
        "frequency_hz": scene.frequency_hz,
        "tx": [float(c) for c in scene.tx],
        "scatterers": [
            {
                "id": s.id,
                "center": [float(c) for c in s.center],
                "dims": [float(c) for c in s.dims],
                "reflection_loss_db": s.reflection_loss_db,
            }
            for s in scene.scatterers
        ],
        "trajectory": [[float(c) for c in p] for p in trajectory.positions],
    }


def scene_from_dict(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("not a scene file")
    version = doc.get("version")
    if type(version) is not int or version != SCENE_FORMAT_VERSION:
        raise ValueError(f"unsupported scene format version: {brief(version)}")
    try:
        scatterers = tuple(
            Scatterer(id=json_field(s, "id", int), center=json_field(s, "center", np.ndarray),
                      dims=json_field(s, "dims", np.ndarray),
                      reflection_loss_db=json_field(s, "reflection_loss_db", float))
            for s in doc["scatterers"]
        )
        scene = Scene(tx=json_field(doc, "tx", np.ndarray),
                      frequency_hz=json_field(doc, "frequency_hz", float), scatterers=scatterers)
        positions = tuple(json_field(doc, "trajectory", np.ndarray))
        spacing = 0.0
        if len(positions) >= 2:
            spacing = float(np.linalg.norm(positions[1] - positions[0]))
        traj = Trajectory(positions=positions, spacing_m=spacing)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed scene file: {type(exc).__name__}: {exc}") from exc
    return scene, traj


def canonical_scene_json(scene: Scene, trajectory: Trajectory) -> str:
    """Canonical serialized form; also the fingerprint input for pools."""
    return json.dumps(scene_to_dict(scene, trajectory), separators=(",", ":"))


def atomic_write_text(path, text: str):
    """Write via temp file + rename so readers never see partial output."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    """The CSV text of `header` and then each of `rows`, one line each,
    every line ended by a bare newline."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def save_scene(path, scene: Scene, trajectory: Trajectory):
    atomic_write_text(path, canonical_scene_json(scene, trajectory) + "\n")


def _finite_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError(f"number out of range in JSON input: {text}")
    return v


def _reject_constant(name: str):
    raise ValueError(f"non-finite number in JSON input: {name}")


def load_json(path):
    """Parse a JSON file, rejecting the NaN and Infinity literals that
    Python's json accepts, numbers that overflow to infinity and lists or
    objects nested deeper than the decoder's recursion can go."""
    with open(path) as f:
        try:
            return json.load(f, parse_float=_finite_float, parse_constant=_reject_constant)
        except RecursionError:
            raise ValueError("JSON input nested too deeply") from None


def to_blob(a, dtype: str) -> dict:
    """`a` as a JSON object: the dtype string `dtype`, the shape and the
    base64 of the C-order bytes of `a` as `dtype`, as a `.npy` file holds
    an array (NEP 1).  So every float round-trips bit for bit, and no
    number becomes a Python object.  ValueError if a value of `a` does not
    survive the cast to `dtype`."""
    a = np.asarray(a)
    b = np.ascontiguousarray(a, dtype=dtype)
    if not np.can_cast(a.dtype, b.dtype) and not np.array_equal(a, b):
        raise ValueError(f"array of {a.dtype} does not fit {dtype}")
    return {"dtype": dtype, "shape": list(b.shape),
            "data": base64.b64encode(b).decode("ascii")}


def from_blob(doc: dict, key: str, dtype: str) -> np.ndarray:
    """doc[key], a `to_blob` object, as a read-only array: ValueError
    naming `key` unless it has exactly the keys dtype, shape and data, its
    dtype is `dtype`, its shape a list of integers >= 0, its data base64 of
    exactly the shape's bytes and, for a float dtype, every value finite."""
    value = doc[key]
    if not isinstance(value, dict) or sorted(value) != ["data", "dtype", "shape"]:
        raise ValueError(f"{key} must be an object of dtype, shape and data, not {brief(value)}")
    if value["dtype"] != dtype:
        raise ValueError(f"{key} dtype must be {dtype}, not {brief(value['dtype'])}")
    shape, data = value["shape"], value["data"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"{key} shape must be a list of integers >= 0, not {brief(shape)}")
    try:
        raw = base64.b64decode(data, validate=True)
    except (TypeError, ValueError):  # not a string; binascii.Error is a ValueError
        raise ValueError(f"{key} data must be a base64 string, not {brief(data)}") from None
    dt = np.dtype(dtype)
    if len(raw) != math.prod(shape) * dt.itemsize:
        raise ValueError(f"{key} data holds {len(raw)} bytes, not {dt.itemsize} "
                         f"per item of shape {brief(shape)}")
    try:
        a = np.frombuffer(raw, dtype=dt).reshape(shape)
    except ValueError as exc:  # an empty shape with a dimension numpy cannot hold
        raise ValueError(f"{key} shape {brief(shape)}: {exc}") from None
    if dt.kind == "f" and not np.isfinite(a).all():
        raise ValueError(f"{key} must be finite")
    return a


#: What each kind that `json_field` reads is written as in a JSON file.
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
               np.ndarray: "a list of numbers"}


def _json_numbers(value) -> bool:
    """Whether value is a list, nested to any depth, of JSON numbers only;
    a loop, not a recursion, so that no depth exhausts the stack."""
    lists = [value]
    while lists:
        value = lists.pop()
        if not isinstance(value, list):
            return False
        types = set(map(type, value))  # bool is its own type, not int
        if types == {list}:
            lists += value
        elif not types <= {int, float}:
            return False
    return True


def json_field(doc: dict, key: str, kind):
    """doc[key], parsed from a JSON file, as a `kind` (bool, int, float, str
    or np.ndarray): ValueError unless the file wrote it as one.  Only true
    and false are booleans and only integers are ints; a float may be any
    number, and an array any nested list of numbers, read as float64.  So
    no reader takes 2.7 for 2, "no" for True or "3" for 3.0."""
    value = doc[key]
    if kind is np.ndarray:
        ok = _json_numbers(value)
    elif kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float) if kind is float else kind)
    if not ok:
        raise ValueError(f"{key} must be {_JSON_TYPES[kind]}, not {brief(value)}")
    try:
        return (float(value) if kind is float
                else np.array(value, dtype=float) if kind is np.ndarray else value)
    except (OverflowError, ValueError) as exc:  # an integer beyond float range; ragged lists
        raise ValueError(f"{key} is not {_JSON_TYPES[kind]}: {exc}") from None


def load_scene(path):
    return scene_from_dict(load_json(path))
