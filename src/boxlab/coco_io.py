"""Dataset and prediction ingestion in the COCO JSON layout, plus splitting.

Ground truth is the usual ``{"images": [...], "categories": [...],
"annotations": [...]}`` document and predictions are a flat list of
``{"image_id", "category_id", "bbox", "score"}`` records. Boxes are stored
as ``(x, y, width, height)`` and converted to corner form on load.

Annotations and predictions load column-backed (``evaluation.BoxColumns``):
one pass pulls out ids and numbers under the strict type checks, then whole
arrays are checked. Loading validates everything the evaluator relies on:
finite numbers (``json.load`` accepts NaN, Infinity and integers no float
holds), no key repeated in an object, unique image and category ids,
referential integrity (dangling image/category ids), box validity (positive
area for ground truth, non-negative extents and finite corners for
predictions), and image-bounds containment for annotations. When an array
check fails, the records are walked to name the offenders: they are collected
and reported together; a field of the wrong type or a non-finite number
stops the load at that record.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .errors import DanglingIdError, InvalidBoxError, ParseError, ValidationError, reject_duplicates
from .evaluation import BoxColumns, Detection, GroundTruthAnnotation

__all__ = [
    "ImageInfo",
    "Category",
    "DatasetManifest",
    "SplitSpec",
    "DatasetSplit",
    "load_manifest",
    "save_manifest",
    "load_predictions",
    "split_ids",
    "split_dataset",
]

_BOUNDS_TOL = 1e-9  # forgive float dust when checking image containment


@dataclass(frozen=True)
class ImageInfo:
    id: int
    width: float
    height: float
    file_name: str = ""


@dataclass(frozen=True)
class Category:
    id: int
    name: str


@dataclass(frozen=True)
class DatasetManifest:
    images: tuple[ImageInfo, ...]
    categories: tuple[Category, ...]
    annotations: Sequence[GroundTruthAnnotation]

    def category_names(self) -> dict[int, str]:
        return {c.id: c.name for c in self.categories}


def _unique_keys(pairs: list) -> dict:
    """``json`` object hook: a key repeated within one object is an error, not a silent overwrite."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        raise ParseError(f"duplicate key {next(k for i, k in enumerate(keys) if k in keys[:i])!r} in a JSON object")
    return obj


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except ValueError as exc:  # a duplicate key, undecodable bytes, an integer past Python's digit limit
        raise ParseError(f"{path}: {exc}") from exc


def _field(record: Any, key: str, context: str) -> Any:
    if not isinstance(record, dict) or key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    return record[key]


def _finite(value: Any, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{context}: expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ParseError(f"{context}: expected a finite number, got {value!r}")
    return number


def _number(record: Any, key: str, context: str) -> float:
    return _finite(_field(record, key, context), f"{context}.{key}")


def _int_id(record: Any, key: str, context: str) -> int:
    value = _field(record, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{context}.{key}: expected an integer id, got {value!r}")
    return value


def _bbox(record: Any, context: str) -> tuple[float, float, float, float]:
    value = _field(record, "bbox", context)
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ParseError(f"{context}.bbox: expected [x, y, width, height], got {value!r}")
    return tuple(_finite(item, f"{context}.bbox[{i}]") for i, item in enumerate(value))  # type: ignore[return-value]


def _columns(records: Any, image_ids: dict | None, class_ids: dict | None, scored: bool):
    """One pass over ``records`` with the strict type checks (ids are ints, numbers
    ints or floats, never bools): ids coded by the order of the ``image_ids`` and
    ``class_ids`` keys (None: every id, first seen first), corners ``x + w``, ``y + h``.

    Returns (columns, (N, 2) bbox extents), or None when a record is malformed, an
    id is unknown, or a number or corner is not finite as a float.
    """
    try:
        ids = [r["image_id"] for r in records], [r["category_id"] for r in records]
        bboxes = [r["bbox"] for r in records]
        scores = [r["score"] for r in records] if scored else []
        if set(map(type, bboxes)) - {list} or set(map(len, bboxes)) - {4}:
            return None
        numbers = [v for b in bboxes for v in b] + scores
        if set(map(type, ids[0] + ids[1])) - {int} or set(map(type, numbers)) - {int, float}:
            return None
        tables = [list(dict.fromkeys(col) if t is None else t) for col, t in zip(ids, (image_ids, class_ids))]
        codes = [
            np.fromiter(map({v: k for k, v in enumerate(table)}.__getitem__, col), np.intp, len(col))
            for col, table in zip(ids, tables)
        ]
        values = np.array(numbers, dtype=np.float64)
    except (TypeError, KeyError, OverflowError):
        return None
    boxes = values[: 4 * len(bboxes)].reshape(-1, 4)
    extents = boxes[:, 2:].copy()
    with np.errstate(over="ignore"):  # an overflowing corner is named by the caller's per-record check
        boxes[:, 2:] += boxes[:, :2]
    if not np.isfinite(boxes).all() or not np.isfinite(values).all():
        return None
    return BoxColumns(*tables, *codes, boxes, values[4 * len(bboxes) :] if scored else None), extents


def load_manifest(path: str) -> DatasetManifest:
    """Load and fully validate a COCO-layout ground-truth file; the annotations are column-backed."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")

    images = []
    for i, rec in enumerate(raw.get("images", []) or []):
        ctx = f"images[{i}]"
        images.append(
            ImageInfo(
                id=_int_id(rec, "id", ctx),
                width=_number(rec, "width", ctx),
                height=_number(rec, "height", ctx),
                file_name=str(rec.get("file_name", "")),
            )
        )
    categories = []
    for i, rec in enumerate(raw.get("categories", []) or []):
        ctx = f"categories[{i}]"
        categories.append(Category(id=_int_id(rec, "id", ctx), name=str(_field(rec, "name", ctx))))

    ids = {"images": [im.id for im in images], "categories": [c.id for c in categories]}
    reject_duplicates(f"{path}: ", "id", ids)
    image_dims = {im.id: (im.width, im.height) for im in images}
    category_ids = dict.fromkeys(ids["categories"])
    records = raw.get("annotations", []) or []
    del raw  # the image and category records are no longer needed

    columns = _columns(records, image_dims, category_ids, scored=False)
    if columns is not None:
        (annotations, extents), boxes = columns, columns[0].boxes
        bounds = np.array(list(image_dims.values()), dtype=np.float64).reshape(-1, 2) + _BOUNDS_TOL
        with np.errstate(over="ignore"):  # an area past 1e308 is inf, still positive
            areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        if (
            (extents > 0.0).all()
            and (boxes[:, :2] >= -_BOUNDS_TOL).all()
            and (boxes[:, 2:] <= bounds[annotations.image]).all()
            and (areas > 0.0).all()
        ):
            return DatasetManifest(images=tuple(images), categories=tuple(categories), annotations=annotations)

    # An array check failed: name the first malformed record, or every dangling or invalid one.
    dangling: list[str] = []
    bad_boxes: list[str] = []
    for i, rec in enumerate(records):
        ctx = f"annotations[{i}]"
        image_id = _int_id(rec, "image_id", ctx)
        category_id = _int_id(rec, "category_id", ctx)
        x, y, w, h = _bbox(rec, ctx)
        if image_id not in image_dims:
            dangling.append(f"{ctx}: unknown image_id {image_id}")
            continue
        if category_id not in category_ids:
            dangling.append(f"{ctx}: unknown category_id {category_id}")
            continue
        if w <= 0.0 or h <= 0.0:
            bad_boxes.append(f"{ctx}: non-positive bbox extents ({x}, {y}, {w}, {h})")
            continue
        img_w, img_h = image_dims[image_id]
        if x < -_BOUNDS_TOL or y < -_BOUNDS_TOL or x + w > img_w + _BOUNDS_TOL or y + h > img_h + _BOUNDS_TOL:
            bad_boxes.append(
                f"{ctx}: bbox ({x}, {y}, {w}, {h}) outside image bounds {img_w}x{img_h}"
            )
            continue
        if (x + w - x) * (y + h - y) <= 0.0:
            bad_boxes.append(f"{ctx}: bbox ({x}, {y}, {w}, {h}) has zero area as corners")
    if dangling:
        raise DanglingIdError(f"{path}: " + "; ".join(dangling))
    raise InvalidBoxError(f"{path}: " + "; ".join(bad_boxes))


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    """Write a manifest back to the COCO layout (bbox as x, y, width, height)."""
    doc = {
        "images": [
            {"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
            for im in manifest.images
        ],
        "categories": [{"id": c.id, "name": c.name} for c in manifest.categories],
        "annotations": [
            {
                "id": i,
                "image_id": ann.image_id,
                "category_id": ann.class_id,
                "bbox": [
                    ann.box.x_min,
                    ann.box.y_min,
                    ann.box.width,
                    ann.box.height,
                ],
            }
            for i, ann in enumerate(manifest.annotations)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)


def load_predictions(path: str, manifest: DatasetManifest | None = None) -> Sequence[Detection]:
    """Load a flat JSON list of detections, column-backed; validate ids against a manifest if given."""
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON list of predictions")

    image_ids = dict.fromkeys(im.id for im in manifest.images) if manifest is not None else None
    category_ids = dict.fromkeys(c.id for c in manifest.categories) if manifest is not None else None
    columns = _columns(raw, image_ids, category_ids, scored=True)
    if columns is not None:
        detections, extents = columns
        if (extents >= 0.0).all() and (detections.scores >= 0.0).all() and (detections.scores <= 1.0).all():
            return detections

    # An array check failed: name the first malformed record, or every dangling or invalid one.
    dangling: list[str] = []
    bad_boxes: list[str] = []
    bad_scores: list[str] = []
    for i, rec in enumerate(raw):
        ctx = f"predictions[{i}]"
        image_id = _int_id(rec, "image_id", ctx)
        category_id = _int_id(rec, "category_id", ctx)
        x, y, w, h = _bbox(rec, ctx)
        score = _number(rec, "score", ctx)
        if image_ids is not None and image_id not in image_ids:
            dangling.append(f"{ctx}: unknown image_id {image_id}")
            continue
        if category_ids is not None and category_id not in category_ids:
            dangling.append(f"{ctx}: unknown category_id {category_id}")
            continue
        if w < 0.0 or h < 0.0:
            bad_boxes.append(f"{ctx}: negative bbox extents ({x}, {y}, {w}, {h})")
            continue
        if not 0.0 <= score <= 1.0:
            bad_scores.append(f"{ctx}: score {score} outside [0, 1]")
            continue
        if not math.isfinite(x + w) or not math.isfinite(y + h):
            bad_boxes.append(f"{ctx}: bbox ({x}, {y}, {w}, {h}) has a corner that is not finite")
    if dangling:
        raise DanglingIdError(f"{path}: " + "; ".join(dangling))
    if bad_boxes:
        raise InvalidBoxError(f"{path}: " + "; ".join(bad_boxes))
    raise ValidationError(f"{path}: " + "; ".join(bad_scores))


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test fractions (non-negative, summing to 1) plus a shuffle seed."""

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0.0 for f in fracs):
            raise ValidationError(f"split fractions must be non-negative, got {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions must sum to 1, got {fracs}")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


def split_ids(ids: Sequence[int], spec: SplitSpec) -> DatasetSplit:
    """Deterministic seeded shuffle, then partition.

    Val and test take ``round(n * frac)`` ids each; train absorbs the
    rounding remainder. Partitions are disjoint and exhaustive.
    """
    n = len(ids)
    n_val = round(n * spec.val_frac)
    n_test = round(n * spec.test_frac)
    n_train = n - n_val - n_test
    if n_train < 0:
        raise ValidationError("rounded val/test sizes exceed the dataset size")
    shuffled = list(ids)
    random.Random(spec.seed).shuffle(shuffled)
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
    )


def split_dataset(manifest: DatasetManifest, spec: SplitSpec) -> DatasetSplit:
    return split_ids([im.id for im in manifest.images], spec)
