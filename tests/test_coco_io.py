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
from boxlab.evaluation import GroundTruthAnnotation
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
