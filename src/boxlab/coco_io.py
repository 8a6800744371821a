"""Dataset and prediction ingestion in the COCO JSON layout, plus splitting.

Ground truth is the usual ``{"images": [...], "categories": [...],
"annotations": [...]}`` document and predictions are a flat list of
``{"image_id", "category_id", "bbox", "score"}`` records. Boxes are stored
as ``(x, y, width, height)`` and converted to corner form on load.

Loading validates everything the evaluator relies on: finite numbers
(``json.load`` accepts NaN and Infinity), unique image and category ids,
referential integrity (dangling image/category ids), box validity (positive
area for ground truth, non-negative extents for predictions), and
image-bounds containment for annotations. Offending records are collected
and reported together; a field of the wrong type or a non-finite number
stops the load at that record.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Sequence

from .errors import DanglingIdError, DuplicateIdError, InvalidBoxError, ParseError, ValidationError
from .evaluation import Detection, GroundTruthAnnotation
from .geometry import Box

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
    annotations: tuple[GroundTruthAnnotation, ...]

    def category_names(self) -> dict[int, str]:
        return {c.id: c.name for c in self.categories}


def _read_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc


def _field(record: Any, key: str, context: str) -> Any:
    if not isinstance(record, dict) or key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    return record[key]


def _number(record: Any, key: str, context: str) -> float:
    value = _field(record, key, context)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ParseError(f"{context}.{key}: expected a finite number, got {value!r}")
    return float(value)


def _int_id(record: Any, key: str, context: str) -> int:
    value = _field(record, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{context}.{key}: expected an integer id, got {value!r}")
    return value


def _bbox(record: Any, context: str) -> tuple[float, float, float, float]:
    value = _field(record, "bbox", context)
    if not isinstance(value, (list, tuple)) or len(value) != 4:
        raise ParseError(f"{context}.bbox: expected [x, y, width, height], got {value!r}")
    out = []
    for i, item in enumerate(value):
        if isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ParseError(f"{context}.bbox[{i}]: expected a number, got {item!r}")
        if not math.isfinite(item):
            raise ParseError(f"{context}.bbox[{i}]: expected a finite number, got {item!r}")
        out.append(float(item))
    return out[0], out[1], out[2], out[3]


def _duplicate_ids(section: str, records: Sequence[ImageInfo | Category]) -> list[str]:
    first_at: dict[int, int] = {}
    messages = []
    for i, rec in enumerate(records):
        if rec.id in first_at:
            messages.append(f"{section}[{i}]: duplicate id {rec.id} (first at {section}[{first_at[rec.id]}])")
        else:
            first_at[rec.id] = i
    return messages


def load_manifest(path: str) -> DatasetManifest:
    """Load and fully validate a COCO-layout ground-truth file."""
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

    duplicates = _duplicate_ids("images", images) + _duplicate_ids("categories", categories)
    if duplicates:
        raise DuplicateIdError(f"{path}: " + "; ".join(duplicates))
    image_dims = {im.id: (im.width, im.height) for im in images}
    category_ids = {c.id for c in categories}

    dangling: list[str] = []
    bad_boxes: list[str] = []
    annotations = []
    for i, rec in enumerate(raw.get("annotations", []) or []):
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
        annotations.append(
            GroundTruthAnnotation(image_id=image_id, class_id=category_id, box=Box(x, y, x + w, y + h))
        )

    if dangling:
        raise DanglingIdError(f"{path}: " + "; ".join(dangling))
    if bad_boxes:
        raise InvalidBoxError(f"{path}: " + "; ".join(bad_boxes))
    return DatasetManifest(
        images=tuple(images), categories=tuple(categories), annotations=tuple(annotations)
    )


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


def load_predictions(path: str, manifest: DatasetManifest | None = None) -> list[Detection]:
    """Load a flat JSON list of detections; validate ids against a manifest if given."""
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON list of predictions")

    image_ids = {im.id for im in manifest.images} if manifest is not None else None
    category_ids = {c.id for c in manifest.categories} if manifest is not None else None

    dangling: list[str] = []
    bad_boxes: list[str] = []
    bad_scores: list[str] = []
    detections: list[Detection] = []
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
        detections.append(
            Detection(image_id=image_id, class_id=category_id, box=Box(x, y, x + w, y + h), score=score)
        )
    if dangling:
        raise DanglingIdError(f"{path}: " + "; ".join(dangling))
    if bad_boxes:
        raise InvalidBoxError(f"{path}: " + "; ".join(bad_boxes))
    if bad_scores:
        raise ValidationError(f"{path}: " + "; ".join(bad_scores))
    return detections


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
