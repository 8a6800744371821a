import json
import re

import pytest

from boxlab.coco_io import (
    Category,
    DatasetManifest,
    ImageInfo,
    SplitSpec,
    load_manifest,
    load_predictions,
    save_manifest,
    split_dataset,
    split_ids,
)
from boxlab.errors import (
    DanglingIdError,
    DuplicateIdError,
    InvalidBoxError,
    ParseError,
    ValidationError,
)
from boxlab.evaluation import BoxColumns, Detection, GroundTruthAnnotation, evaluate
from boxlab.geometry import Box


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        path = tmp_path / "out.json"
        save_manifest(manifest, str(path))
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
            load_predictions(_write(tmp_path, "pred.json", preds))

    def test_negative_extent(self, tmp_path):
        preds = [{"image_id": 1, "category_id": 1, "bbox": [0, 0, -1, 1], "score": 0.5}]
        with pytest.raises(InvalidBoxError):
            load_predictions(_write(tmp_path, "pred.json", preds))

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
            load_predictions(_write(tmp_path, "pred.json", [pred]))

    def test_must_be_list(self, tmp_path):
        with pytest.raises(ParseError):
            load_predictions(_write(tmp_path, "pred.json", {"not": "a list"}))

    def test_zero_area_detection_allowed(self, tmp_path):
        preds = [{"image_id": 1, "category_id": 1, "bbox": [5, 5, 0, 0], "score": 0.5}]
        (det,) = load_predictions(_write(tmp_path, "pred.json", preds))
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

    def test_fraction_validation(self):
        with pytest.raises(ValidationError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ValidationError):
            SplitSpec(-0.1, 0.6, 0.5)

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
}


@pytest.mark.parametrize("name", INVALID_INPUTS)
def test_invalid_input_message(tmp_path, name):
    edit, error, message = INVALID_INPUTS[name]
    gt, pred = _pair()
    edit(gt, pred)
    with pytest.raises(error) as err:
        load_predictions(_write(tmp_path, "pred.json", pred), load_manifest(_write(tmp_path, "gt.json", gt)))
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

    def test_without_manifest_ids_in_first_seen_order(self, tmp_path):
        preds = [
            {"image_id": 9, "category_id": 3, "bbox": [0, 0, 1, 1], "score": 0.5},
            {"image_id": 4, "category_id": 3, "bbox": [0, 0, 1, 1], "score": 0.5},
            {"image_id": 9, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5},
        ]
        dets = load_predictions(_write(tmp_path, "pred.json", preds))
        assert dets.image_ids == (9, 4) and dets.class_ids == (3, 1)
        assert [(d.image_id, d.class_id) for d in dets] == [(9, 3), (4, 3), (9, 1)]


# --- input boundary: each fails on the per-record loaders this replaced -------------


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
            load_predictions(_write(tmp_path, "pred.json", [pred]))
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
            load_predictions(path)
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
        ],
    )
    def test_duplicate_keys_named(self, tmp_path, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        loader = load_predictions if text.startswith("[") else load_manifest
        with pytest.raises(ParseError) as err:
            loader(str(path))
        assert str(err.value) == f"{path}: duplicate key {key!r} in a JSON object"

    def test_integer_past_the_digit_limit(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_text('[{"image_id": 1, "category_id": 1, "bbox": [0, 0, ' + "1" * 5000 + ', 1], "score": 0.5}]')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: Exceeds the limit \(4300 digits\)"):
            load_predictions(str(path))

    def test_undecodable_bytes(self, tmp_path):
        path = tmp_path / "pred.json"
        path.write_bytes(b'[{"image_id": 1, "name": "\xe9"}]')
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: 'utf-8' codec can't decode byte 0xe9"):
            load_predictions(str(path))
