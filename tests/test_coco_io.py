import gc
import json
import math
import random
import re
import time

import pytest

from boxlab import coco_io
from boxlab.coco_io import (
    Category,
    DatasetManifest,
    ImageColumns,
    ImageInfo,
    SplitSpec,
    load_manifest,
    load_predictions,
    split_dataset,
    split_ids,
)
from boxlab.errors import (
    BoxlabError,
    DanglingIdError,
    DuplicateIdError,
    InvalidBoxError,
    ParseError,
    ValidationError,
)
from boxlab.evaluation import BoxColumns, Detection, GroundTruthAnnotation, evaluate
from boxlab.geometry import Box
from helpers import RepeatedKey, strict_loads


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# About 5 KiB of flat records, so that what follows them lies past the 4 KiB that _read_json looks at first.
_FLAT_PREDICTIONS = ", ".join(['{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}'] * 70)
_FLAT_IMAGES = ", ".join(['{"id": 1, "width": 8, "height": 8, "file_name": "a.jpg"}'] * 90)

# The ids every prediction below uses, for the tests that check the predictions alone.
ONE_IMAGE = DatasetManifest(images=(ImageInfo(1, 100.0, 80.0),), categories=(Category(1, "alpha"),), annotations=())


def _manifest_doc(annotations=()):
    return {
        "images": [
            {"id": 1, "width": 100, "height": 80, "file_name": "a.jpg"},
            {"id": 2, "width": 64, "height": 64, "file_name": "b.jpg"},
        ],
        "categories": [{"id": 1, "name": "alpha"}, {"id": 2, "name": "beta"}],
        "annotations": list(annotations),
    }


class TestLoadManifest:
    def test_empty_annotations_ok(self, tmp_path):
        manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
        assert len(manifest.images) == 2
        assert manifest.category_names() == {1: "alpha", 2: "beta"}
        assert manifest.annotations == ()

    def test_bbox_storage_to_corner_conversion(self, tmp_path):
        doc = _manifest_doc([{"image_id": 1, "category_id": 1, "bbox": [10, 20, 30, 40]}])
        manifest = load_manifest(_write(tmp_path, "gt.json", doc))
        (ann,) = manifest.annotations
        assert ann.box == Box(10, 20, 40, 60)

    def test_dangling_image_id(self, tmp_path):
        doc = _manifest_doc([{"image_id": 99, "category_id": 1, "bbox": [0, 0, 5, 5]}])
        with pytest.raises(DanglingIdError, match=r"annotations\[0\].*image_id 99"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_dangling_category_id(self, tmp_path):
        doc = _manifest_doc([{"image_id": 1, "category_id": 42, "bbox": [0, 0, 5, 5]}])
        with pytest.raises(DanglingIdError, match="category_id 42"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_invalid_boxes_listed_together(self, tmp_path):
        doc = _manifest_doc(
            [
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 0, 5]},
                {"image_id": 1, "category_id": 1, "bbox": [90, 70, 20, 20]},
            ]
        )
        with pytest.raises(InvalidBoxError) as err:
            load_manifest(_write(tmp_path, "gt.json", doc))
        message = str(err.value)
        assert "annotations[0]" in message and "annotations[1]" in message

    def test_duplicate_image_ids_named(self, tmp_path):
        doc = _manifest_doc([{"image_id": 1, "category_id": 1, "bbox": [50, 50, 20, 20]}])
        doc["images"].append({"id": 1, "width": 10, "height": 10})
        doc["images"].append({"id": 2, "width": 10, "height": 10})
        with pytest.raises(DuplicateIdError) as err:
            load_manifest(_write(tmp_path, "gt.json", doc))
        message = str(err.value)
        assert "images[2]: duplicate id 1 (first at images[0])" in message
        assert "images[3]: duplicate id 2 (first at images[1])" in message
        assert "bounds" not in message

    def test_duplicate_category_ids_named(self, tmp_path):
        doc = _manifest_doc()
        doc["categories"].append({"id": 2, "name": "gamma"})
        with pytest.raises(DuplicateIdError) as err:
            load_manifest(_write(tmp_path, "gt.json", doc))
        assert "categories[2]: duplicate id 2 (first at categories[1])" in str(err.value)

    @pytest.mark.parametrize(
        "section, index, key, value, where",
        [
            ("images", 0, "width", float("nan"), "images[0].width"),
            ("images", 1, "height", float("inf"), "images[1].height"),
            ("annotations", 0, "bbox", [0, 0, float("-inf"), 5], "annotations[0].bbox[2]"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, section, index, key, value, where):
        doc = _manifest_doc([{"image_id": 1, "category_id": 1, "bbox": [0, 0, 5, 5]}])
        doc[section][index][key] = value
        with pytest.raises(ParseError, match=rf"^{re.escape(where)}: expected a finite number"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_out_of_bounds_rejected(self, tmp_path):
        doc = _manifest_doc([{"image_id": 2, "category_id": 1, "bbox": [60, 0, 5, 5]}])
        with pytest.raises(InvalidBoxError, match="outside image bounds"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_parse_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"images": [,]}')
        with pytest.raises(ParseError, match="line 1"):
            load_manifest(str(path))

    def test_missing_field_context(self, tmp_path):
        doc = _manifest_doc([{"image_id": 1, "category_id": 1}])
        with pytest.raises(ParseError, match=r"annotations\[0\]: missing field 'bbox'"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_manifest("/nonexistent/gt.json")

    def test_top_level_must_be_object(self, tmp_path):
        with pytest.raises(ParseError):
            load_manifest(_write(tmp_path, "gt.json", []))


class TestSaveLoadRoundTrip:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            images=(ImageInfo(1, 100.0, 80.0, "a.jpg"), ImageInfo(2, 64.0, 64.0, "b.jpg")),
            categories=(Category(1, "alpha"), Category(2, "beta")),
            annotations=(
                GroundTruthAnnotation(1, 1, Box(10.5, 20.25, 40.125, 60.0)),
                GroundTruthAnnotation(2, 2, Box(0.0, 0.0, 3.3, 4.4)),
            ),
        )
        doc = {
            "images": [{"id": im.id, "width": im.width, "height": im.height, "file_name": im.file_name}
                       for im in manifest.images],
            "categories": [{"id": c.id, "name": c.name} for c in manifest.categories],
            "annotations": [
                {"id": i, "image_id": a.image_id, "category_id": a.class_id,
                 "bbox": [a.box.x_min, a.box.y_min, a.box.width, a.box.height]}
                for i, a in enumerate(manifest.annotations)
            ],
        }
        path = tmp_path / "out.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert load_manifest(str(path)) == manifest


class TestLoadPredictions:
    def test_load_and_convert(self, tmp_path):
        manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
        preds = [
            {"image_id": 1, "category_id": 1, "bbox": [1, 2, 3, 4], "score": 0.5},
            {"image_id": 2, "category_id": 2, "bbox": [0, 0, 10, 10], "score": 1.0},
        ]
        dets = load_predictions(_write(tmp_path, "pred.json", preds), manifest)
        assert dets[0].box == Box(1, 2, 4, 6)
        assert dets[0].score == 0.5
        assert dets[1].class_id == 2

    def test_dangling_ids_against_manifest(self, tmp_path):
        manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
        preds = [{"image_id": 7, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}]
        with pytest.raises(DanglingIdError):
            load_predictions(_write(tmp_path, "pred.json", preds), manifest)

    def test_score_out_of_range(self, tmp_path):
        preds = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 1.5}]
        with pytest.raises(ValidationError, match="score"):
            load_predictions(_write(tmp_path, "pred.json", preds), ONE_IMAGE)

    def test_negative_extent(self, tmp_path):
        preds = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, -1, 1], "score": 0.5}]
        with pytest.raises(InvalidBoxError):
            load_predictions(_write(tmp_path, "pred.json", preds), ONE_IMAGE)

    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("bbox", [0, float("nan"), 1, 1], "predictions[0].bbox[1]"),
            ("score", float("nan"), "predictions[0].score"),
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, key, value, where):
        pred = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}
        pred[key] = value
        with pytest.raises(ParseError, match=rf"^{re.escape(where)}: expected a finite number"):
            load_predictions(_write(tmp_path, "pred.json", [pred]), ONE_IMAGE)

    def test_must_be_list(self, tmp_path):
        with pytest.raises(ParseError):
            load_predictions(_write(tmp_path, "pred.json", {"not": "a list"}), ONE_IMAGE)

    def test_zero_area_detection_allowed(self, tmp_path):
        preds = [{"image_id": 1, "category_id": 1, "bbox": [5, 5, 0, 0], "score": 0.5}]
        (det,) = load_predictions(_write(tmp_path, "pred.json", preds), ONE_IMAGE)
        assert det.box == Box(5, 5, 5, 5)


class TestSplit:
    def test_published_dataset_sizes(self):
        split = split_ids(range(3319), SplitSpec(0.5335, 0.2178, 0.2487, seed=0))
        assert (len(split.train), len(split.val), len(split.test)) == (1771, 723, 825)

    def test_partition_disjoint_and_exhaustive(self):
        ids = list(range(500))
        split = split_ids(ids, SplitSpec(0.6, 0.2, 0.2, seed=9))
        combined = list(split.train) + list(split.val) + list(split.test)
        assert sorted(combined) == ids

    def test_deterministic(self):
        spec = SplitSpec(0.5, 0.25, 0.25, seed=4)
        assert split_ids(range(100), spec) == split_ids(range(100), spec)
        other = SplitSpec(0.5, 0.25, 0.25, seed=5)
        assert split_ids(range(100), spec) != split_ids(range(100), other)

    def test_all_train(self):
        split = split_ids(range(10), SplitSpec(1.0, 0.0, 0.0, seed=0))
        assert len(split.train) == 10
        assert split.val == () and split.test == ()

    def test_test_takes_at_most_what_val_leaves(self):
        # round(1.5) is 2, so val and test of (0, 0.5, 0.5) over 3 ids both round to 2: val
        # takes 2 and test the 1 left. Wherever the two rounded sizes fit, they are the sizes.
        split = split_ids(range(3), SplitSpec(0.0, 0.5, 0.5, seed=0))
        assert (len(split.train), len(split.val), len(split.test)) == (0, 2, 1)
        for n in range(40):
            for v in range(11):
                for t in range(11 - v):
                    spec = SplitSpec((10 - v - t) / 10, v / 10, t / 10)
                    split = split_ids(range(n), spec)
                    n_val, n_test = round(n * spec.val_frac), round(n * spec.test_frac)
                    assert (len(split.val), len(split.test)) == (n_val, min(n_test, n - n_val))
                    assert sorted(split.train + split.val + split.test) == list(range(n))

    def test_repeated_ids_rejected(self):
        # Shuffled and cut, a repeated id landed in two partitions: train (2, 1) and val (1,).
        with pytest.raises(DuplicateIdError) as err:
            split_ids([1, 1, 2, 3], SplitSpec(0.5, 0.25, 0.25))
        assert str(err.value) == "ids[1]: duplicate id 1 (first at ids[0])"

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            SplitSpec(-0.1, 0.6, 0.5)

    @pytest.mark.parametrize("field", ["train_frac", "val_frac", "test_frac"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_fraction_named(self, field, value):
        fracs = {"train_frac": 0.5, "val_frac": 0.25, "test_frac": 0.25, field: value}
        with pytest.raises(ValidationError) as err:
            SplitSpec(**fracs)
        assert str(err.value) == f"{field} must be finite, got {value}"

    def test_split_dataset_uses_image_ids(self, tmp_path):
        manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
        split = split_dataset(manifest, SplitSpec(0.5, 0.5, 0.0, seed=1))
        assert sorted(list(split.train) + list(split.val)) == [1, 2]


# --- invalid inputs, messages as the per-record loaders gave them -------------


def _pair():
    gt = _manifest_doc(
        [
            {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20]},
            {"image_id": 2, "category_id": 2, "bbox": [0.5, 0.5, 30, 30]},
            {"image_id": 2, "category_id": 1, "bbox": [40, 40, 24, 24]},
        ]
    )
    pred = [
        {"image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 20], "score": 0.9},
        {"image_id": 2, "category_id": 2, "bbox": [0, 0, 30, 30], "score": 0.5},
        {"image_id": 2, "category_id": 1, "bbox": [41, 40, 20, 24], "score": 0.25},
    ]
    return gt, pred


def _ann(i, **kw):
    return lambda gt, pred: gt["annotations"][i].update(kw)


def _det(i, **kw):
    return lambda gt, pred: pred[i].update(kw)


def _both(*edits):
    def apply(gt, pred):
        for edit in edits:
            edit(gt, pred)

    return apply


# (edit of a valid gt/pred pair, error class, exact message; {dir} is the files' directory)
INVALID_INPUTS = {
    "image_missing_id": (lambda gt, pred: gt["images"][0].pop("id"), ParseError, "images[0]: missing field 'id'"),
    "image_width_string": (lambda gt, pred: gt["images"][1].update(width="64"), ParseError,
                           "images[1].width: expected a number, got '64'"),
    "image_height_bool": (lambda gt, pred: gt["images"][0].update(height=True), ParseError,
                          "images[0].height: expected a number, got True"),
    "image_id_float": (lambda gt, pred: gt["images"][0].update(id=1.0), ParseError,
                       "images[0].id: expected an integer id, got 1.0"),
    "category_missing_name": (lambda gt, pred: gt["categories"][1].pop("name"), ParseError,
                              "categories[1]: missing field 'name'"),
    "duplicate_image_and_category": (
        _both(lambda gt, pred: gt["images"].append({"id": 2, "width": 1, "height": 1}),
              lambda gt, pred: gt["categories"].append({"id": 1, "name": "x"})),
        DuplicateIdError,
        "{dir}/gt.json: images[2]: duplicate id 2 (first at images[1]); categories[2]: duplicate id 1 (first at categories[0])",
    ),
    "ann_image_id_bool": (_ann(0, image_id=True), ParseError, "annotations[0].image_id: expected an integer id, got True"),
    "ann_category_id_string": (_ann(1, category_id="1"), ParseError,
                               "annotations[1].category_id: expected an integer id, got '1'"),
    "ann_bbox_three": (_ann(2, bbox=[0, 0, 5]), ParseError,
                       "annotations[2].bbox: expected [x, y, width, height], got [0, 0, 5]"),
    "ann_bbox_object": (_ann(0, bbox={"x": 1}), ParseError,
                        "annotations[0].bbox: expected [x, y, width, height], got {'x': 1}"),
    "ann_bbox_null_item": (_ann(1, bbox=[0, None, 5, 5]), ParseError, "annotations[1].bbox[1]: expected a number, got None"),
    "ann_bbox_bool_item": (_ann(1, bbox=[0, 0, True, 5]), ParseError, "annotations[1].bbox[2]: expected a number, got True"),
    "ann_bbox_nan": (_ann(2, bbox=[0, 0, float("nan"), 5]), ParseError,
                     "annotations[2].bbox[2]: expected a finite number, got nan"),
    "ann_bbox_neg_inf": (_ann(0, bbox=[float("-inf"), 0, 5, 5]), ParseError,
                         "annotations[0].bbox[0]: expected a finite number, got -inf"),
    "ann_not_object": (lambda gt, pred: gt["annotations"].__setitem__(1, [2, 2, [0, 0, 1, 1]]), ParseError,
                       "annotations[1]: missing field 'image_id'"),
    "ann_missing_bbox": (lambda gt, pred: gt["annotations"][2].pop("bbox"), ParseError,
                         "annotations[2]: missing field 'bbox'"),
    "ann_dangling_two": (_both(_ann(0, image_id=9), _ann(2, category_id=7)), DanglingIdError,
                         "{dir}/gt.json: annotations[0]: unknown image_id 9; annotations[2]: unknown category_id 7"),
    "ann_dangling_then_parse": (_both(_ann(0, image_id=9), _ann(2, bbox=[0, 0, "5", 5])), ParseError,
                                "annotations[2].bbox[2]: expected a number, got '5'"),
    "ann_bad_boxes_two": (
        _both(_ann(0, bbox=[0, 0, 0, 5]), _ann(2, bbox=[50, 50, 20, 20])),
        InvalidBoxError,
        "{dir}/gt.json: annotations[0]: non-positive bbox extents (0.0, 0.0, 0.0, 5.0); "
        "annotations[2]: bbox (50.0, 50.0, 20.0, 20.0) outside image bounds 64.0x64.0",
    ),
    "ann_dangling_beats_bad_box": (_both(_ann(0, bbox=[0, 0, -1, 5]), _ann(1, category_id=3)), DanglingIdError,
                                   "{dir}/gt.json: annotations[1]: unknown category_id 3"),
    "ann_negative_origin": (_ann(1, bbox=[-0.001, 0, 5, 5]), InvalidBoxError,
                            "{dir}/gt.json: annotations[1]: bbox (-0.001, 0.0, 5.0, 5.0) outside image bounds 64.0x64.0"),
    "ann_exact_edge_ok_then_over": (
        _both(_ann(0, bbox=[0, 0, 100, 80]), _ann(2, bbox=[0, 0, 64.001, 1])),
        InvalidBoxError,
        "{dir}/gt.json: annotations[2]: bbox (0.0, 0.0, 64.001, 1.0) outside image bounds 64.0x64.0",
    ),
    "pred_score_string": (_det(0, score="0.5"), ParseError, "predictions[0].score: expected a number, got '0.5'"),
    "pred_score_bool": (_det(1, score=False), ParseError, "predictions[1].score: expected a number, got False"),
    "pred_missing_score": (lambda gt, pred: pred[2].pop("score"), ParseError, "predictions[2]: missing field 'score'"),
    "pred_scores_out_of_range": (
        _both(_det(0, score=1.5), _det(2, score=-0.1)),
        ValidationError,
        "{dir}/pred.json: predictions[0]: score 1.5 outside [0, 1]; predictions[2]: score -0.1 outside [0, 1]",
    ),
    "pred_negative_extent": (_det(1, bbox=[0, 0, -1, 3]), InvalidBoxError,
                             "{dir}/pred.json: predictions[1]: negative bbox extents (0.0, 0.0, -1.0, 3.0)"),
    "pred_bad_box_beats_bad_score": (_both(_det(0, score=2.0), _det(1, bbox=[0, 0, 3, -2])), InvalidBoxError,
                                     "{dir}/pred.json: predictions[1]: negative bbox extents (0.0, 0.0, 3.0, -2.0)"),
    "pred_dangling_beats_bad_box": (_both(_det(0, bbox=[0, 0, -3, 2]), _det(2, image_id=5)), DanglingIdError,
                                    "{dir}/pred.json: predictions[2]: unknown image_id 5"),
    "pred_dangling_category": (_det(1, category_id=42), DanglingIdError,
                               "{dir}/pred.json: predictions[1]: unknown category_id 42"),
    "pred_image_id_float": (_det(2, image_id=2.0), ParseError, "predictions[2].image_id: expected an integer id, got 2.0"),
    "pred_bbox_string": (_det(0, bbox="0,0,1,1"), ParseError,
                         "predictions[0].bbox: expected [x, y, width, height], got '0,0,1,1'"),
    "pred_bbox_inf": (_det(2, bbox=[0, 0, 1, float("inf")]), ParseError,
                      "predictions[2].bbox[3]: expected a finite number, got inf"),
    "pred_score_nan": (_det(0, score=float("nan")), ParseError, "predictions[0].score: expected a finite number, got nan"),
    "pred_record_null": (lambda gt, pred: pred.__setitem__(1, None), ParseError, "predictions[1]: missing field 'image_id'"),
    "pred_score_negative": (_det(1, score=-0.5), ValidationError, "{dir}/pred.json: predictions[1]: score -0.5 outside [0, 1]"),
    "ann_just_past_tolerance": (
        _ann(0, bbox=[0, 0, 100 + 2e-9, 80]),
        InvalidBoxError,
        "{dir}/gt.json: annotations[0]: bbox (0.0, 0.0, 100.000000002, 80.0) outside image bounds 100.0x80.0",
    ),
    "ann_no_images_all_dangling": (
        lambda gt, pred: gt["images"].clear(),
        DanglingIdError,
        "{dir}/gt.json: annotations[0]: unknown image_id 1; annotations[1]: unknown image_id 2; "
        "annotations[2]: unknown image_id 2",
    ),
    "pred_bad_score_named_before_overflowing_corner": (
        _det(0, bbox=[1e308, 0, 1e308, 1], score=1.5),
        ValidationError,
        "{dir}/pred.json: predictions[0]: score 1.5 outside [0, 1]",
    ),
    "pred_overflowing_corner_beats_bad_score": (
        _both(_det(0, bbox=[0, 1e308, 1, 1e308]), _det(2, score=2)),
        InvalidBoxError,
        "{dir}/pred.json: predictions[0]: bbox (0.0, 1e+308, 1.0, 1e+308) has a corner that is not finite",
    ),
    "ann_dangling_beats_zero_corner_area": (
        _both(_ann(0, bbox=[1, 1, 1e-200, 1e-200]), _ann(2, image_id=9)),
        DanglingIdError,
        "{dir}/gt.json: annotations[2]: unknown image_id 9",
    ),
    "category_name_null": (lambda gt, pred: gt["categories"][0].update(name=None), ParseError,
                           "categories[0].name: expected a string, got None"),
    "category_name_number": (lambda gt, pred: gt["categories"][1].update(name=7), ParseError,
                             "categories[1].name: expected a string, got 7"),
    "image_file_name_number": (lambda gt, pred: gt["images"][1].update(file_name=5), ParseError,
                               "images[1].file_name: expected a string, got 5"),
    "image_file_name_null_after_bad_width": (
        _both(lambda gt, pred: gt["images"][0].update(file_name=None), lambda gt, pred: gt["images"][1].update(width="9")),
        ParseError,
        "images[0].file_name: expected a string, got None",
    ),
    "image_sizes_not_positive": (
        _both(lambda gt, pred: gt["images"][1].update(width=-1, height=0),
              lambda gt, pred: gt["images"][0].update(height=0.0)),
        ValidationError,
        "{dir}/gt.json: images[0]: size 100.0x0.0 is not positive; images[1]: size -1.0x0.0 is not positive",
    ),
    "image_size_beats_dangling_annotation": (
        _both(lambda gt, pred: gt["images"][0].update(width=0), _ann(2, image_id=9)),
        ValidationError,
        "{dir}/gt.json: images[0]: size 0.0x80.0 is not positive",
    ),
}


@pytest.mark.parametrize("name", INVALID_INPUTS)
def test_invalid_input_message(tmp_path, name):
    edit, error, message = INVALID_INPUTS[name]
    gt, pred = _pair()
    edit(gt, pred)
    with pytest.raises(error) as err:
        manifest = load_manifest(_write(tmp_path, "gt.json", gt))
        load_predictions(_write(tmp_path, "pred.json", pred), manifest)
    assert type(err.value) is error
    assert str(err.value) == message.replace("{dir}", str(tmp_path))


def test_valid_pair_loads(tmp_path):
    gt, pred = _pair()
    # Corners exactly at the bounds tolerance, scores at 0 and 1, a zero-area detection.
    _both(_ann(0, bbox=[-1e-9, -1e-9, 100 + 1e-9, 80 + 1e-9]), _ann(2, bbox=[0, 0, 64 + 1e-9, 64 + 1e-9]),
          _det(0, score=0.0), _det(1, score=1.0), _det(2, bbox=[3, 3, 0, 0]))(gt, pred)
    manifest = load_manifest(_write(tmp_path, "gt.json", gt))
    assert len(load_predictions(_write(tmp_path, "pred.json", pred), manifest)) == 3


# --- column-backed results --------------------------------------------------------


class TestColumnBacked:
    def test_sequences_of_records(self, tmp_path):
        gt, pred = _pair()
        manifest = load_manifest(_write(tmp_path, "gt.json", gt))
        dets = load_predictions(_write(tmp_path, "pred.json", pred), manifest)
        assert isinstance(manifest.annotations, BoxColumns) and isinstance(dets, BoxColumns)
        assert len(manifest.annotations) == 3
        assert manifest.annotations[1] == GroundTruthAnnotation(2, 2, Box(0.5, 0.5, 30.5, 30.5))
        assert manifest.annotations[-1] == manifest.annotations[2]
        assert dets[2] == Detection(2, 1, Box(41, 40, 61, 64), 0.25)
        assert list(dets) == [dets[0], dets[1], dets[2]]
        assert dets[1:] == (dets[1], dets[2])
        assert dets == list(dets) and dets == tuple(dets) and dets != list(dets)[:2]
        assert type(dets[0].box.x_min) is float and type(dets[0].score) is float
        with pytest.raises(IndexError):
            dets[3]

    def test_ids_stay_python_ints(self, tmp_path):
        big = 2**70
        gt = _manifest_doc([{"image_id": big, "category_id": big + 1, "bbox": [0, 0, 5, 5]}])
        gt["images"][0]["id"] = big
        gt["categories"][0]["id"] = big + 1
        manifest = load_manifest(_write(tmp_path, "gt.json", gt))
        preds = [{"image_id": big, "category_id": big + 1, "bbox": [0, 0, 5, 5], "score": 0.5}]
        (det,) = load_predictions(_write(tmp_path, "pred.json", preds), manifest)
        assert det.image_id == big and det.class_id == big + 1
        report = evaluate([det], manifest.annotations)
        assert list(report.per_class) == [big + 1] and report.map_all == 1.0



class TestImageColumns:
    IMAGES = (ImageInfo(1, 100.0, 80.0, "a.jpg"), ImageInfo(2, 64.0, 64.0, "b.jpg"), ImageInfo(7, 3.0, 5.5, ""))

    def _loaded(self, tmp_path):
        doc = _manifest_doc()
        doc["images"].append({"id": 7, "width": 3, "height": 5.5})
        return load_manifest(_write(tmp_path, "gt.json", doc))

    def test_sequence_of_image_info(self, tmp_path):
        images = self._loaded(tmp_path).images
        assert isinstance(images, ImageColumns)
        assert len(images) == 3
        assert images[0] == self.IMAGES[0] and images[2] == self.IMAGES[2]
        assert images[-1] == images[2] and images[-3] == images[0]
        assert images[1:] == self.IMAGES[1:] and images[::-2] == (self.IMAGES[2], self.IMAGES[0])
        assert images[5:] == ()
        assert list(images) == list(self.IMAGES)
        assert images == self.IMAGES and self.IMAGES == images
        assert images == list(self.IMAGES) and list(self.IMAGES) == images
        assert images != self.IMAGES[:2] and self.IMAGES[:2] != images
        assert type(images[2].width) is float and type(images[2].height) is float
        for i in (3, -4):
            with pytest.raises(IndexError):
                images[i]

    def test_id_tables_shared(self, tmp_path):
        gt, pred = _pair()
        manifest = load_manifest(_write(tmp_path, "gt.json", gt))
        dets = load_predictions(_write(tmp_path, "pred.json", pred), manifest)
        assert manifest.images.ids == (1, 2)
        assert dets.image_ids is manifest.images.ids and manifest.annotations.image_ids is manifest.images.ids
        assert dets.class_ids == manifest.annotations.class_ids == (1, 2)

    def test_hand_built_manifest_of_plain_tuples(self, tmp_path):
        manifest = DatasetManifest(
            images=self.IMAGES,
            categories=(Category(1, "alpha"), Category(2, "beta")),
            annotations=(GroundTruthAnnotation(7, 2, Box(0.0, 0.0, 2.0, 2.0)),),
        )
        preds = [{"image_id": 7, "category_id": 2, "bbox": [0, 0, 2, 2], "score": 0.5}]
        dets = load_predictions(_write(tmp_path, "pred.json", preds), manifest)
        assert dets.image_ids == (1, 2, 7) and dets.class_ids == (1, 2)
        assert list(dets) == [Detection(7, 2, Box(0.0, 0.0, 2.0, 2.0), 0.5)]
        assert evaluate(dets, manifest.annotations).map_all == 1.0
        preds[0]["image_id"] = 3
        with pytest.raises(DanglingIdError, match=r"predictions\[0\]: unknown image_id 3"):
            load_predictions(_write(tmp_path, "pred.json", preds), manifest)
        split = split_dataset(manifest, SplitSpec(0.0, 1.0, 0.0, seed=3))
        assert split == split_ids([1, 2, 7], SplitSpec(0.0, 1.0, 0.0, seed=3)) and sorted(split.val) == [1, 2, 7]


# --- the typed pass over images against the per-image walk it replaced --------------


def _ref_field(record, key, context):
    if not isinstance(record, dict) or key not in record:
        raise ParseError(f"{context}: missing field {key!r}")
    return record[key]


def _ref_finite(value, context):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{context}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ParseError(f"{context}: expected a finite number, got an integer too large for a float") from None
    if not math.isfinite(number):
        raise ParseError(f"{context}: expected a finite number, got {value!r}")
    return number


def _ref_number(record, key, context):
    return _ref_finite(_ref_field(record, key, context), f"{context}.{key}")


def _ref_int_id(record, key, context):
    value = _ref_field(record, key, context)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{context}.{key}: expected an integer id, got {value!r}")
    return value


def reference_images(section) -> list[ImageInfo]:
    """``load_manifest``'s per-image walk before the typed pass, as it was."""
    images = []
    for i, rec in enumerate([] if section is None else section):
        ctx = f"images[{i}]"
        images.append(
            ImageInfo(
                id=_ref_int_id(rec, "id", ctx),
                width=_ref_number(rec, "width", ctx),
                height=_ref_number(rec, "height", ctx),
                file_name=str(rec.get("file_name", "")),
            )
        )
    return images


_BAD_IDS = (True, False, "3", 1.0, 2.5, None, [1], {"id": 1}, float("nan"), float("inf"))
_BAD_NUMBERS = (True, False, "64", None, [64], {}, float("nan"), float("inf"), float("-inf"), 10**400, -(10**309))
_NOT_RECORDS = (None, [1, 64, 64], "image", 5, 2.5, True, [])


def malformed_images(rng: random.Random):
    """A seeded ``images`` section, valid but for zero to three edits drawn from the bad values above."""
    if rng.random() < 0.03:
        return None
    section = []
    for k in range(rng.randrange(0, 6)):
        rec = {"id": rng.choice((k, -k, 2**70 + k)), "width": rng.choice((64, 0.5, 1e300)), "height": rng.choice((1, 7.25))}
        if rng.random() < 0.5:
            rec["file_name"] = f"{k}.jpg"
        section.append(dict(sorted(rec.items(), key=lambda kv: rng.random())))
    for _ in range(rng.randrange(0, 4) if section else 0):
        i, edit = rng.randrange(len(section)), rng.randrange(4)
        if edit == 0:
            section[i] = rng.choice(_NOT_RECORDS)
        elif isinstance(section[i], dict) and edit == 1:
            section[i].pop(rng.choice(("id", "width", "height")), None)
        elif isinstance(section[i], dict) and edit == 2:
            section[i]["id"] = rng.choice(_BAD_IDS)
        elif isinstance(section[i], dict):
            section[i][rng.choice(("width", "height"))] = rng.choice(_BAD_NUMBERS)
    return section


def test_typed_image_pass_reports_errors_like_the_walk(tmp_path):
    outcomes = set()
    for seed in range(3000):
        section = malformed_images(random.Random(seed))
        try:
            want = ("ok", reference_images(section))
        except ParseError as exc:
            want = ("ParseError", str(exc))
        path = _write(tmp_path, "gt.json", {"images": section})
        try:
            got = ("ok", load_manifest(path).images)
        except Exception as exc:  # noqa: BLE001 - the class is part of what is compared
            got = (type(exc).__name__, str(exc))
        assert got == want, (seed, section)
        outcomes.add(want[0] if want[0] == "ok" else want[1].split(": ", 1)[1].split(",")[0])
    assert outcomes >= {
        "ok", "missing field 'id'", "missing field 'width'", "missing field 'height'", "expected an integer id",
        "expected a number", "expected a finite number",
    }


def reference_walk(name, section) -> None:
    """The strict per-record walk of a ``categories``, ``annotations`` or ``predictions`` section:
    raises ``ParseError`` at the first malformed record or non-finite number, as the loaders name it."""
    for i, rec in enumerate([] if section is None else section):
        ctx = f"{name}[{i}]"
        if name == "categories":
            _ref_int_id(rec, "id", ctx)
            if not isinstance(value := _ref_field(rec, "name", ctx), str):
                raise ParseError(f"{ctx}.name: expected a string, got {value!r}")
            continue
        _ref_int_id(rec, "image_id", ctx)
        _ref_int_id(rec, "category_id", ctx)
        bbox = _ref_field(rec, "bbox", ctx)
        if not isinstance(bbox, list) or len(bbox) != 4:
            raise ParseError(f"{ctx}.bbox: expected [x, y, width, height], got {bbox!r}")
        for k, item in enumerate(bbox):
            _ref_finite(item, f"{ctx}.bbox[{k}]")
        if name == "predictions":
            _ref_number(rec, "score", ctx)


_FIELDS = {
    "categories": {"id": (1, 2, 5, 2**70), "name": ("alpha", "", "beta gamma")},
    "annotations": {
        "image_id": (1, 2, 3),
        "category_id": (1, 2, 9),
        # in bounds, a zero extent, past image 1's right edge, a corner past the float range
        "bbox": ([0, 0, 5, 5], [1.5, 2, 3, 4.25], [0, 0, 0, 3], [90, 0, 20, 20], [1e308, 0, 1e308, 1]),
    },
}
_FIELDS["predictions"] = {**_FIELDS["annotations"], "score": (0.5, 1, 0, 0.75, 1.5, -0.25)}
_BAD_NAMES = (None, 3, 2.5, True, [], {}, ["alpha"])
_BAD_BBOXES = ([0, 0, 5], [0, 0, 5, 5, 5], [], "abcd", {"a": 0, "b": 0, "c": 5, "d": 5}, None, 5, [[0, 0, 5, 5]])


def malformed_section(name: str, rng: random.Random):
    """A seeded ``name`` section of zero to five records, with zero to three edits drawn from the bad values
    above; the good values also give dangling ids, repeated ids and bad boxes, which are not parse errors."""
    fields = _FIELDS[name]
    if name != "predictions" and rng.random() < 0.03:
        return None
    section = []
    for _ in range(rng.randrange(0, 6)):
        rec = {key: json.loads(json.dumps(rng.choice(values))) for key, values in fields.items()}  # a fresh bbox
        section.append(dict(sorted(rec.items(), key=lambda kv: rng.random())))
    for _ in range(rng.randrange(0, 4) if section else 0):
        i, edit = rng.randrange(len(section)), rng.randrange(5)
        rec = section[i]
        if edit == 0:
            section[i] = rng.choice(_NOT_RECORDS)
        elif not isinstance(rec, dict):
            continue
        elif edit == 1:
            rec.pop(rng.choice(sorted(fields)), None)
        elif edit == 2:
            rec[rng.choice([key for key in fields if key.endswith("id")])] = rng.choice(_BAD_IDS)
        elif name == "categories":
            rec["name"] = rng.choice(_BAD_NAMES)
        elif edit == 3 and "score" in rec and rng.random() < 0.4:
            rec["score"] = rng.choice(_BAD_NUMBERS)
        elif edit == 3 and isinstance(rec.get("bbox"), list) and rec["bbox"]:
            rec["bbox"][rng.randrange(len(rec["bbox"]))] = rng.choice(_BAD_NUMBERS)
        else:
            rec["bbox"] = rng.choice(_BAD_BBOXES)
    return section


@pytest.mark.parametrize("name", ["categories", "annotations", "predictions"])
def test_typed_section_pass_reports_errors_like_the_walk(tmp_path, name):
    # If the column pull refused a section that the walk accepts, the loader would die on a TypeError.
    manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
    outcomes = set()
    for seed in range(3000):
        section = malformed_section(name, random.Random(seed))
        try:
            reference_walk(name, section)
            want = None
        except ParseError as exc:
            want = str(exc)
        if name == "predictions":
            path, load = _write(tmp_path, "pred.json", section), load_predictions
        else:
            path, load = _write(tmp_path, "gt.json", {**_manifest_doc(), name: section}), load_manifest
        try:
            loaded = load(path, manifest) if name == "predictions" else load(path)
            got = None
        except BoxlabError as exc:
            got = exc
        if want is not None:
            assert type(got) is ParseError and str(got) == want, (seed, section)
            assert want.startswith(f"{name}[")
            outcomes.add(want.split(": ", 1)[1].split(",")[0])
        elif got is None:
            records = loaded if name == "predictions" else getattr(loaded, name)
            assert len(records) == len(section or ()), (seed, section)
            outcomes.add("ok")
        else:
            assert not isinstance(got, ParseError), (seed, section, got)
            outcomes.add(type(got).__name__)
    assert outcomes >= {
        "ok", "missing field 'id'" if name == "categories" else "missing field 'bbox'", "expected an integer id",
        "DuplicateIdError" if name == "categories" else "DanglingIdError",
    }
    if name != "categories":
        assert outcomes >= {"InvalidBoxError", "expected a number", "expected a finite number", "expected [x"}
    else:
        assert "expected a string" in outcomes


# --- input boundary: each fails on the per-record loaders this replaced -------------


DEEP = "[" * 200_000 + "]" * 200_000  # nested past any recursion limit


class TestInputBoundary:
    HUGE = int("1" + "0" * 400)  # 1e400 as an integer literal: no float holds it

    @pytest.mark.parametrize(
        "key, where",
        [("bbox", "predictions[0].bbox[2]"), ("score", "predictions[0].score")],
    )
    def test_huge_integer_in_prediction_named(self, tmp_path, key, where):
        pred = {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}
        pred[key] = [0, 0, self.HUGE, 1] if key == "bbox" else self.HUGE
        with pytest.raises(ParseError) as err:
            load_predictions(_write(tmp_path, "pred.json", [pred]), ONE_IMAGE)
        assert str(err.value) == f"{where}: expected a finite number, got an integer too large for a float"

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_huge_integer_in_image_named(self, tmp_path, key):
        doc = _manifest_doc()
        doc["images"][1][key] = self.HUGE
        with pytest.raises(ParseError, match=rf"^images\[1\]\.{key}: expected a finite number, got an integer too large"):
            load_manifest(_write(tmp_path, "gt.json", doc))

    def test_overflowing_corner_named(self, tmp_path):
        preds = [
            {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5},
            {"image_id": 1, "category_id": 1, "bbox": [1e308, 0, 1e308, 1], "score": 0.5},
        ]
        path = _write(tmp_path, "pred.json", preds)
        with pytest.raises(InvalidBoxError) as err:
            load_predictions(path, ONE_IMAGE)
        assert str(err.value) == (
            f"{path}: predictions[1]: bbox (1e+308, 0.0, 1e+308, 1.0) has a corner that is not finite"
        )

    def test_ground_truth_area_rounding_to_zero_named(self, tmp_path):
        doc = _manifest_doc([{"image_id": 1, "category_id": 1, "bbox": [1, 1, 1e-200, 1e-200]}])
        path = _write(tmp_path, "gt.json", doc)
        with pytest.raises(InvalidBoxError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: annotations[0]: bbox (1.0, 1.0, 1e-200, 1e-200) has zero area as corners"

    def test_ground_truth_area_overflowing_named(self, tmp_path):
        # Its corner-form area is inf, so even an identical prediction would get IoU NaN: a miss.
        doc = {
            "images": [{"id": 1, "width": 1e308, "height": 1e308}],
            "categories": [{"id": 1, "name": "alpha"}],
            "annotations": [
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e150, 1e150]},
                {"image_id": 1, "category_id": 1, "bbox": [0, 0, 1e300, 1e300]},
            ],
        }
        path = _write(tmp_path, "gt.json", doc)
        with pytest.raises(InvalidBoxError) as err:
            load_manifest(path)
        assert str(err.value) == (
            f"{path}: annotations[1]: bbox (0.0, 0.0, 1e+300, 1e+300) has an area as corners that is not finite"
        )

    @pytest.mark.parametrize("section", ["images", "categories", "annotations"])
    @pytest.mark.parametrize("value", [5, {"a": 1}, "", False], ids=["int", "dict", "str", "bool"])
    def test_section_not_a_list_named(self, tmp_path, section, value):
        doc = _manifest_doc()
        doc[section] = value
        path = _write(tmp_path, "gt.json", doc)
        with pytest.raises(ParseError) as err:
            load_manifest(path)
        assert str(err.value) == f"{path}: {section}: expected a list, got {type(value).__name__}"

    @pytest.mark.parametrize("section", ["images", "categories", "annotations"])
    def test_null_or_absent_section_is_empty(self, tmp_path, section):
        for edit in (lambda doc: doc.update({section: None}), lambda doc: doc.pop(section)):
            doc = _manifest_doc()
            edit(doc)
            manifest = load_manifest(_write(tmp_path, "gt.json", doc))
            assert len(getattr(manifest, section)) == 0

    @pytest.mark.parametrize(
        "text, key",
        [
            ('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5, "score": 0.9}]', "score"),
            ('{"images": [], "images": []}', "images"),
            # After 4 KiB of flat records the colon count is checked, and it sends the text to the hook.
            pytest.param("[" + _FLAT_PREDICTIONS + ', {"image_id": 1, "extra": {"k": 1, "k": 2}}]', "k",
                         id="member-past-4k"),
            pytest.param('{"images": [' + _FLAT_IMAGES + '], "info": {"v": 1, "v": 2}}', "v", id="root-member-past-4k"),
            pytest.param('[{"image_id": 1, "bbox": [0, 0, 1, {"k": 1, "k": 2}], "score": 0.5}]', "k", id="in-a-list"),
            # Only objects' pairs are counted: the string's length must not stand in for the lost pair.
            pytest.param('[{"score": 0.5, "score": 0.9}, "x"]', "score", id="beside-a-string"),
            # The repeated key comes first in the text, so it is named ahead of the syntax error.
            pytest.param('[{"score": 0.5, "score": 0.9}, {"image_id": ]', "score", id="then-syntax-error"),
            pytest.param("[" + _FLAT_PREDICTIONS + ', {"score": 0.5, "score": 0.9}, {"image_id": ]', "score",
                         id="past-4k-then-syntax-error"),
        ],
    )
    def test_duplicate_keys_named(self, tmp_path, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            load_predictions(str(path), ONE_IMAGE) if text.startswith("[") else load_manifest(str(path))
        assert str(err.value) == f"{path}: duplicate key {key!r} in a JSON object"

    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, ' + "1" * 5000 + ', 1], "score": 0.5}]')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: Exceeds the limit \(4300 digits\)"):
            load_predictions(str(path), ONE_IMAGE)

    @pytest.mark.parametrize("text", [DEEP, '{"a": ' * 100_000 + "1" + "}" * 100_000], ids=["lists", "objects"])
    @pytest.mark.parametrize("loader", [load_manifest, lambda path: load_predictions(path, ONE_IMAGE)],
                             ids=["manifest", "predictions"])
    def test_nesting_past_the_recursion_limit(self, tmp_path, text, loader):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            loader(str(path))
        assert str(err.value) == f"{path}: JSON nested too deeply to parse"

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_bytes(b'[{"image_id": 1, "name": "\xe9"}]')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xe9"):
            load_predictions(str(path), ONE_IMAGE)


class TestRepeatedKeyCheck:
    """A flat text is checked by its colon count and a nested one by the hook: same trees, same messages."""

    @staticmethod
    def _spy_loads(monkeypatch):
        """Record, for each ``json.loads`` call, whether it ran with a hook."""
        calls, loads = [], json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: calls.append("object_pairs_hook" in kw) or loads(text, **kw))
        return calls

    def test_flat_files_load_without_the_hook(self, tmp_path, monkeypatch):
        images = [{"id": i, "width": 640, "height": 360, "file_name": f"{i:06d}.jpg"} for i in range(1, 201)]
        anns = [{"image_id": i, "category_id": 1 + i % 5, "bbox": [1.5, 2.25, 30.0, 40.5]} for i in range(1, 201)]
        categories = [{"id": c, "name": f"class_{c}"} for c in range(1, 6)]
        gt = _write(tmp_path, "gt.json", {"images": images, "categories": categories, "annotations": anns})
        pred = _write(tmp_path, "pred.json", [dict(a, score=0.5) for a in anns])
        monkeypatch.setattr(coco_io, "_unique_keys", lambda pairs: pytest.fail("the hook parsed a flat file"))
        calls = self._spy_loads(monkeypatch)
        detections = load_predictions(pred, load_manifest(gt))
        assert (len(detections), calls) == (200, [False, False])

    def test_nested_file_parsed_once_with_the_hook(self, tmp_path, monkeypatch):
        doc = {
            "info": {"description": "COCO-like", "url": "http://example.org", "date_created": "2017/09/01"},
            "licenses": [{"url": f"http://example.org/licenses/{i}/", "id": i, "name": f"L{i}"} for i in range(1, 9)],
            "images": [{"id": i, "width": 640, "height": 480, "file_name": f"{i:012d}.jpg",
                        "coco_url": f"http://example.org/val/{i:012d}.jpg", "date_captured": "2013-11-14 17:02:52"}
                       for i in range(1, 51)],
            "categories": [{"supercategory": "seed", "id": 1, "name": "a"}],
            "annotations": [{"segmentation": {"counts": [3, 4], "size": [480, 640]} if i % 10 == 0
                             else [[1.0, 2.0, 30.0, 2.0, 30.0, 40.0]],
                             "image_id": i, "category_id": 1, "bbox": [1, 2, 29, 38], "iscrowd": 0, "id": i}
                            for i in range(1, 51)],
        }
        path = _write(tmp_path, "gt.json", doc)
        calls = self._spy_loads(monkeypatch)
        assert len(load_manifest(path).annotations) == 50
        assert calls == [True]

    @pytest.mark.parametrize("file_name", ["a:b.jpg", "a\\u003ab.jpg"], ids=["colon", "escaped-colon"])
    def test_colon_in_a_string(self, tmp_path, file_name):
        text = ('{"images": [{"id": 1, "width": 10, "height": 10, "file_name": "%s"}], "categories": [], '
                '"annotations": []}' % file_name)
        path = tmp_path / "gt.json"
        path.write_text(text)
        assert repr(coco_io._read_json(str(path))) == repr(json.loads(text, object_pairs_hook=coco_io._unique_keys))
        assert load_manifest(str(path)).images.file_names == ["a:b.jpg"]

    def test_matches_a_naive_hook_parse(self, tmp_path, monkeypatch):
        """Seeded texts (flat prefixes past 4 KiB, repeated keys at every depth, colons, escaped quotes and
        escaped colons in strings, whitespace before colons, truncation) read as the naive hook reads them."""
        rng = random.Random(2101)
        path = tmp_path / "doc.json"
        calls = self._spy_loads(monkeypatch)
        paths = {}
        deadline = time.monotonic() + 2.0
        for case in range(1_000):
            if time.monotonic() > deadline:
                break
            text = _fuzz_document(rng)
            path.write_text(text)
            try:
                expected = repr(strict_loads(text))
            except RepeatedKey as exc:
                expected = f"ParseError: {path}: duplicate key {exc.args[0]!r} in a JSON object"
            except json.JSONDecodeError as exc:
                expected = f"ParseError: {path}: invalid JSON at line {exc.lineno} column {exc.colno}"
            del calls[:]
            try:
                got = repr(coco_io._read_json(str(path)))
            except ParseError as exc:
                got = f"ParseError: {exc}"
            assert got == expected, f"case {case}: {text!r}"
            kind = {(True,): "selector", (False,): "proof accepted", (False, True): "proof rejected"}[tuple(calls)]
            paths[kind] = paths.get(kind, 0) + 1
        assert set(paths) == {"selector", "proof accepted", "proof rejected"}, paths


_KEYS = ["id", "image_id", "bbox", "score", "a:b", "a\\u003ab", 'q\\"', 'x\\":y', "k", "\\u003a"]
_STRINGS = ["x", "000001.jpg", "a:b.jpg", "a\\u003ab", '\\"', 'x\\":y', " : ", "http://h/p", ""]
_SCALARS = ["1", "-2.5", "3e2", "true", "false", "null"]


def _fuzz_ws(rng):
    return rng.choice(["", "", " ", "\n", " \t "])


def _fuzz_value(rng, depth):
    """A JSON value as text: scalars, strings with colons and escapes, lists, and objects whose keys may repeat."""
    roll = rng.random()
    if depth >= 3 or roll < 0.4:
        return rng.choice(_SCALARS) if rng.random() < 0.6 else '"%s"' % rng.choice(_STRINGS)
    items = [_fuzz_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    if roll < 0.7:
        return "[" + ", ".join(items) + "]"
    keys = rng.sample(_KEYS, len(items))
    if len(keys) > 1 and rng.random() < 0.3:
        keys[rng.randrange(1, len(keys))] = keys[0]
    return "{" + ", ".join(f'"{k}"{_fuzz_ws(rng)}:{_fuzz_ws(rng)}{v}' for k, v in zip(keys, items)) + "}"


def _fuzz_record(rng):
    """A flat prediction-like record: string keys, numbers, short strings and number lists only."""
    fields = rng.sample(["image_id", "category_id", "bbox", "score", "file_name"], rng.randint(1, 5))
    values = {"bbox": "[1, 2.5, 3, 4]", "file_name": '"%06d.jpg"' % rng.randrange(10**6)}
    return "{" + ", ".join(f'"{f}"{_fuzz_ws(rng)}:{_fuzz_ws(rng)}{values.get(f, rng.choice(_SCALARS))}'
                           for f in fields) + "}"


def _fuzz_document(rng):
    """A flat list or root member past 4 KiB with random items around it, or a random value; sometimes cut short."""
    if rng.random() < 0.7:
        items = [_fuzz_record(rng) for _ in range(rng.randint(100, 140))]
        for _ in range(rng.randint(0, 2)):
            items.insert(rng.choice([0, len(items)]) if rng.random() < 0.8 else rng.randrange(len(items)),
                         _fuzz_value(rng, 1))
        text = "[" + ", ".join(items) + "]"
        if rng.random() < 0.5:
            text = '{"images"%s:%s%s, "categories": []}' % (_fuzz_ws(rng), _fuzz_ws(rng), text)
    else:
        text = _fuzz_value(rng, 0)
    return text[: rng.randrange(len(text))] if rng.random() < 0.15 else text


@pytest.fixture()
def gc_state():
    """Put the collector back as the test found it, whatever the test left."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


_GT = {"image_id": 1, "category_id": 1, "bbox": [1, 1, 8, 8]}
_PAUSE_CASES = {  # (loader, case) -> (file text, error raised or None)
    ("manifest", "ok"): (json.dumps(_manifest_doc([_GT])), None),
    ("manifest", "duplicate_key"): ('{"images": [], "images": []}', ParseError),
    ("manifest", "dangling_id"): (json.dumps(_manifest_doc([dict(_GT, image_id=9)])), DanglingIdError),
    ("manifest", "nesting"): (DEEP, ParseError),
    ("predictions", "ok"): (json.dumps([dict(_GT, score=0.5)]), None),
    ("predictions", "duplicate_key"): ('[{"image_id": 1, "image_id": 2}]', ParseError),
    ("predictions", "dangling_id"): (json.dumps([dict(_GT, image_id=9, score=0.5)]), DanglingIdError),
    ("predictions", "nesting"): (DEEP, ParseError),
}


class TestCollectorPaused:
    """Both loaders run with the cyclic collector paused and hand its state back unchanged."""

    N = 3_000  # records per section: loading them with the collector running triggers collections

    @staticmethod
    def _collections(load, *args):
        """``load(*args)``, and the generation of each collection that ran inside it."""
        generations = []

        def probe(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(probe)
        try:
            return load(*args), generations
        finally:
            gc.callbacks.remove(probe)

    def test_no_collection_inside_either_loader(self, tmp_path, gc_state):
        images = [{"id": i, "width": 64, "height": 64} for i in range(self.N)]
        anns = [dict(_GT, image_id=i) for i in range(self.N)]
        gt = _write(tmp_path, "gt.json", {"images": images, "categories": [{"id": 1, "name": "a"}], "annotations": anns})
        pred = _write(tmp_path, "pred.json", [dict(a, score=0.5) for a in anns])
        gc.enable()
        manifest, in_manifest = self._collections(load_manifest, gt)
        detections, in_predictions = self._collections(load_predictions, pred, manifest)
        assert (in_manifest, in_predictions) == ([], [])
        assert len(detections) == self.N

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("loader, case", list(_PAUSE_CASES), ids=[f"{l}-{c}" for l, c in _PAUSE_CASES])
    def test_state_restored(self, tmp_path, gc_state, enabled, loader, case):
        text, error = _PAUSE_CASES[loader, case]
        path = tmp_path / "doc.json"
        path.write_text(text)
        manifest = load_manifest(_write(tmp_path, "gt.json", _manifest_doc()))
        load = load_manifest if loader == "manifest" else lambda p: load_predictions(p, manifest)
        (gc.enable if enabled else gc.disable)()
        if error is None:
            load(str(path))
        else:
            with pytest.raises(error):
                load(str(path))
        assert gc.isenabled() is enabled
