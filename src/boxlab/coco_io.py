"""Dataset and prediction ingestion in the COCO JSON layout, plus splitting.

Ground truth is the usual ``{"images": [...], "categories": [...],
"annotations": [...]}`` document and predictions are a flat list of
``{"image_id", "category_id", "bbox", "score"}`` records. Boxes are stored
as ``(x, y, width, height)`` and converted to corner form on load.

Every section loads in one typed pass that pulls ids, numbers and strings into
columns: ``DatasetManifest.images`` is an ``ImageColumns`` (an id tuple, an
(N, 2) size array, file names), and annotations and predictions are
``evaluation.BoxColumns`` whose image id table is that same tuple. Only if the
pass fails does a strict per-record walk run, to stop the load with
``ParseError`` at the first malformed record or non-finite number
(``json.load`` accepts NaN, Infinity and integers no float holds). Every other
check is one array mask, which also names the bad records: a positive size
for images, checked before any annotation; dangling image or category ids,
box extents, image bounds and a positive, finite corner-form area for ground
truth; score range and finite corners for predictions. Each bad record is
named by its first failing check, and the load raises ``DanglingIdError``,
else ``InvalidBoxError``, else ``ValidationError``, naming every record of
that class. A key repeated in a JSON object and a repeated image or category
id are rejected too: a flat text is proved free of repeated keys by its colon
count, any other is parsed with a hook that names the first (``_read_json``).

Both loaders run with the cyclic garbage collector paused (and its state restored
on return or error): ``json`` builds only acyclic trees, which refcounting frees,
so a collection over the parsed records could free nothing.
"""

from __future__ import annotations

import gc
import json
import math
import random
import re
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import repeat
from typing import Any, Sequence

import numpy as np

from .errors import DanglingIdError, InvalidBoxError, ParseError, ValidationError, reject_duplicates
from .evaluation import BoxColumns, Columns, Detection, GroundTruthAnnotation
from .geometry import _sum_in_order

__all__ = [
    "ImageInfo",
    "ImageColumns",
    "Category",
    "DatasetManifest",
    "SplitSpec",
    "DatasetSplit",
    "load_manifest",
    "load_predictions",
    "split_ids",
    "split_dataset",
]

_BOUNDS_TOL = 1e-9  # forgive float dust when checking image containment
_NESTED = re.compile(r'[^"\s]\s*:|:\s*\{')  # a colon inside a string, or an object as a member value


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


class ImageColumns(Columns):
    """``ImageInfo`` values as columns: ``ids`` a tuple, ``sizes`` (N, 2) float64 (width, height), ``file_names``."""

    def __init__(self, ids, sizes: np.ndarray, file_names: list) -> None:
        self.ids, self.sizes, self.file_names = tuple(ids), sizes, file_names
        self._coding = _id_coding(self.ids)  # both loaders code image ids by this one dict

    def __len__(self) -> int:
        return len(self.ids)

    def _row(self, i) -> ImageInfo:
        return ImageInfo(self.ids[i], *self.sizes[i].tolist(), self.file_names[i])


@dataclass(frozen=True)
class DatasetManifest:
    images: Sequence[ImageInfo]
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


def _shallow_pairs(raw: Any) -> int:
    """Pairs of the root object and of the objects listed at the root or in a list-valued root member."""
    lists = [v for v in (raw.values() if type(raw) is dict else [raw]) if type(v) is list]
    own = len(raw) if type(raw) is dict else 0
    return own + sum(sum(map(len, items)) for items in lists if set(map(type, items)) <= {dict})


def _read_json(path: str) -> Any:
    """Parse a JSON file; a repeated key raises ``ParseError`` with ``_unique_keys``'s message.

    A text whose first 4 KiB show no colon in a string and no object as a member value is parsed
    without a hook, and kept if its colon count equals ``_shallow_pairs``: each ``:`` outside a
    string is one pair of the text and the tree holds at most those, so equality proves that no
    key repeats. Any other text is parsed with ``_unique_keys``, which raises every error in order.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if not _NESTED.search(text, 0, 4096):
            try:
                raw = json.loads(text)
                if text.count(":") == _shallow_pairs(raw):
                    return raw
                del raw  # free the first tree before the second parse
            except Exception:  # the hook parse below raises the error, in its own order
                pass
        return json.loads(text, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from None
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


def _string(value: Any, context: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{context}: expected a string, got {value!r}")
    return value


def _typed(context: str, records: list, pull, walk) -> tuple[list, np.ndarray, list]:
    """One pass over whole columns: ``pull(records)`` gives (id columns, numbers, string
    columns); every id must be an int, every number an int or float (never a bool) that
    is finite as float64, every string a str. Returns them, the numbers as float64.

    Only when that pass fails does ``walk(record, context)`` run on each record, to raise
    ``ParseError`` at the first malformed record or non-finite number.
    """
    try:
        ids, numbers, strings = pull(records)
        if all(set(map(type, col)) <= {int} for col in ids) and all(set(map(type, col)) <= {str} for col in strings):
            if set(map(type, numbers)) <= {int, float} and np.isfinite(values := np.array(numbers, np.float64)).all():
                return ids, values, strings
    except (TypeError, KeyError, OverflowError):
        pass
    for i, rec in enumerate(records):
        walk(rec, f"{context}[{i}]")


def _id_coding(ids: tuple) -> tuple[tuple, dict]:
    """An id table and its {id: code} dict."""
    return ids, {v: k for k, v in enumerate(ids)}


def _columns(path: str, context: str, records: list, codings: tuple, scored: bool):
    """Box columns from one ``_typed`` pass: image and category ids coded by the two ``_id_coding``
    pairs of ``codings``, corners ``x + w``, ``y + h``. Returns (columns, (N, 2) bbox extents).
    An unknown id raises ``DanglingIdError``.
    """

    def pull(recs: list):
        bboxes = [r["bbox"] for r in recs]
        numbers = [v for b in bboxes for v in b] if set(map(len, bboxes)) <= {4} else [None]  # None fails the check
        ids = [r["image_id"] for r in recs], [r["category_id"] for r in recs]
        return ids, numbers + ([r["score"] for r in recs] if scored else []), ()

    ids, values, _ = _typed(context, records, pull, lambda rec, ctx: (
        _int_id(rec, "image_id", ctx), _int_id(rec, "category_id", ctx), _bbox(rec, ctx),
        scored and _number(rec, "score", ctx),
    ))
    tables, indexes = zip(*codings)
    codes = [np.fromiter(map(index.get, col, repeat(-1)), np.intp, len(col)) for col, index in zip(ids, indexes)]
    _reject(path, context, [
        (DanglingIdError, codes[0] < 0, lambda i: f"unknown image_id {records[i]['image_id']}"),
        (DanglingIdError, codes[1] < 0, lambda i: f"unknown category_id {records[i]['category_id']}"),
    ])
    boxes = values[: 4 * len(records)].reshape(-1, 4)
    extents = boxes[:, 2:].copy()
    with np.errstate(over="ignore"):  # an overflowing corner is named by the caller's checks
        boxes[:, 2:] += boxes[:, :2]
    return BoxColumns(*tables, *codes, boxes, values[4 * len(records) :] if scored else None), extents


def _xywh(rec: dict) -> tuple[float, ...]:
    return tuple(map(float, rec["bbox"]))


def _reject(path: str, context: str, checks: list) -> None:
    """Raise for the records that ``checks``, a list of (error class, bad-record mask,
    message builder of the record index), mark bad. Each record is named by its first
    failing check; the first of ``DanglingIdError``, ``InvalidBoxError`` and
    ``ValidationError`` that names any record is raised, naming all of them in record order.
    """
    unnamed = np.ones(len(checks[0][1]), dtype=bool)
    named: dict[type, list] = {DanglingIdError: [], InvalidBoxError: [], ValidationError: []}
    for error, bad, message in checks:
        named[error] += [(i, message(i)) for i in np.flatnonzero(bad & unnamed)]
        unnamed &= ~bad
    for error, found in named.items():
        if found:
            raise error(f"{path}: " + "; ".join(f"{context}[{i}]: {text}" for i, text in sorted(found)))


def _image_coding(images: Sequence[ImageInfo]) -> tuple[tuple, dict]:
    return images._coding if isinstance(images, ImageColumns) else _id_coding(tuple(im.id for im in images))


@contextmanager
def _gc_paused():
    """Pause the cyclic collector, then re-enable it only if it was enabled."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_gc_paused()
def load_manifest(path: str) -> DatasetManifest:
    """Load and fully validate a COCO-layout ground-truth file; the images and annotations are column-backed."""
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")

    sections = {}
    for name in ("images", "categories", "annotations"):
        sections[name] = [] if raw.get(name) is None else raw[name]
        if not isinstance(sections[name], list):
            raise ParseError(f"{path}: {name}: expected a list, got {type(raw[name]).__name__}")

    (image_ids,), sizes, (file_names,) = _typed("images", sections["images"], lambda recs: (
        [[r["id"] for r in recs]], [v for r in recs for v in (r["width"], r["height"])],
        [[r.get("file_name", "") for r in recs]],  # each record is an object: its id was read
    ), lambda rec, ctx: (_int_id(rec, "id", ctx), _number(rec, "width", ctx), _number(rec, "height", ctx),
                         _string(rec.get("file_name", ""), f"{ctx}.file_name")))
    (class_ids,), _, (names,) = _typed("categories", sections["categories"], lambda recs: (
        [[r["id"] for r in recs]], [], [[r["name"] for r in recs]],
    ), lambda rec, ctx: (_int_id(rec, "id", ctx), _string(_field(rec, "name", ctx), f"{ctx}.name")))
    image_ids, class_ids, sizes = tuple(image_ids), tuple(class_ids), sizes.reshape(-1, 2)
    reject_duplicates(f"{path}: ", "id", {"images": image_ids, "categories": class_ids})
    empty = (sizes <= 0.0).any(axis=1)
    _reject(path, "images", [(ValidationError, empty, lambda i: "size {}x{} is not positive".format(*sizes[i]))])
    records = sections["annotations"]
    del raw, sections  # the image and category records are no longer needed

    images = ImageColumns(image_ids, sizes, file_names)
    annotations, extents = _columns(path, "annotations", records, (images._coding, _id_coding(class_ids)), scored=False)
    boxes = annotations.boxes
    bounds = (sizes + _BOUNDS_TOL)[annotations.image]
    with np.errstate(over="ignore", invalid="ignore"):  # inf past 1e308, NaN beside an overflowed corner
        areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    _reject(path, "annotations", [
        (InvalidBoxError, (extents <= 0.0).any(axis=1), lambda i: f"non-positive bbox extents {_xywh(records[i])}"),
        (
            InvalidBoxError,
            (boxes[:, :2] < -_BOUNDS_TOL).any(axis=1) | (boxes[:, 2:] > bounds).any(axis=1),
            lambda i: "bbox {} outside image bounds {}x{}".format(
                _xywh(records[i]), *sizes[annotations.image[i]].tolist()
            ),
        ),
        (InvalidBoxError, areas <= 0.0, lambda i: f"bbox {_xywh(records[i])} has zero area as corners"),
        (InvalidBoxError, np.isinf(areas),
         lambda i: f"bbox {_xywh(records[i])} has an area as corners that is not finite"),
    ])
    categories = tuple(map(Category, class_ids, names))
    return DatasetManifest(images, categories, annotations)


@_gc_paused()
def load_predictions(path: str, manifest: DatasetManifest) -> Sequence[Detection]:
    """Load a flat JSON list of detections, column-backed; validate ids against the manifest."""
    raw = _read_json(path)
    if not isinstance(raw, list):
        raise ParseError(f"{path}: expected a JSON list of predictions")

    codings = (_image_coding(manifest.images), _id_coding(tuple(c.id for c in manifest.categories)))
    detections, extents = _columns(path, "predictions", raw, codings, scored=True)
    scores = detections.scores
    _reject(path, "predictions", [
        (InvalidBoxError, (extents < 0.0).any(axis=1), lambda i: f"negative bbox extents {_xywh(raw[i])}"),
        (ValidationError, (scores < 0.0) | (scores > 1.0), lambda i: f"score {float(raw[i]['score'])} outside [0, 1]"),
        (
            InvalidBoxError,
            ~np.isfinite(detections.boxes).all(axis=1),
            lambda i: f"bbox {_xywh(raw[i])} has a corner that is not finite",
        ),
    ])
    return detections


@dataclass(frozen=True)
class SplitSpec:
    """Train/val/test fractions (finite, non-negative, summing to 1) plus a shuffle seed."""

    train_frac: float
    val_frac: float
    test_frac: float
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("train_frac", "val_frac", "test_frac"):  # NaN passes both checks below
            if not math.isfinite(value := getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {value}")
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if any(f < 0.0 for f in fracs):
            raise ValidationError(f"split fractions must be non-negative, got {fracs}")
        if abs(_sum_in_order(fracs) - 1.0) > 1e-9:
            raise ValidationError(f"split fractions must sum to 1, got {fracs}")


@dataclass(frozen=True)
class DatasetSplit:
    train: tuple[int, ...]
    val: tuple[int, ...]
    test: tuple[int, ...]


def split_ids(ids: Sequence[int], spec: SplitSpec) -> DatasetSplit:
    """Deterministic seeded shuffle, then partition.

    Val and test take ``round(n * frac)`` ids each, val first and test at
    most what val leaves; train absorbs the rounding remainder. Partitions
    are disjoint and exhaustive: a repeated id raises ``DuplicateIdError``.
    """
    reject_duplicates("", "id", {"ids": ids})
    n = len(ids)
    n_val = min(round(n * spec.val_frac), n)
    n_test = min(round(n * spec.test_frac), n - n_val)
    n_train = n - n_val - n_test
    shuffled = list(ids)
    random.Random(spec.seed).shuffle(shuffled)
    return DatasetSplit(
        train=tuple(shuffled[:n_train]),
        val=tuple(shuffled[n_train : n_train + n_val]),
        test=tuple(shuffled[n_train + n_val :]),
    )


def split_dataset(manifest: DatasetManifest, spec: SplitSpec) -> DatasetSplit:
    return split_ids(_image_coding(manifest.images)[0], spec)
