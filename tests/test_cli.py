import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from biomeval import cli, load_embeddings
from biomeval.cli import main, round6

from conftest import write_jsonl


def _no_constant(name):
    raise ValueError(f"not RFC 8259 JSON: {name}")


def read_json(path):
    """A JSON file parsed strictly: NaN, Infinity and -Infinity raise."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_no_constant)


def media_index_rows(subjects=6, media_per_subject=5, frame_count=900, tag="alpha"):
    rows = []
    for s in range(subjects):
        for m in range(media_per_subject):
            rows.append(
                {
                    "media_id": f"s{s}m{m}",
                    "subject_id": f"s{s}",
                    "dataset_tag": tag if s % 2 == 0 else "beta",
                    "modality": "video",
                    "frame_count": frame_count,
                }
            )
    return rows


class TestEvalDet:
    def test_two_group_fixture(self, two_group_files, tmp_path, capsys):
        det_path, gt_path = two_group_files
        out = tmp_path / "out"
        code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path), "--out", str(out)])
        assert code == 0
        report = read_json(out / "detection_report.json")
        assert report["iou_thresholds"] == [0.35, 0.5, 0.7]
        for thr in ("0.35", "0.5", "0.7"):
            assert report["pooled"][thr]["f1"] == round6(2.0 / 3.0)
            assert report["groups"]["alpha"][thr]["f1"] == round6(6.0 / 7.0)
            assert report["groups"]["beta"][thr]["f1"] == 0.4
        summary = (out / "detection_summary.txt").read_text(encoding="utf-8")
        assert "pooled" in summary
        assert capsys.readouterr().out.startswith("detection evaluation")

    def test_missing_ground_truth_file(self, two_group_files, tmp_path, capsys):
        det_path, _ = two_group_files
        missing = tmp_path / "nope.jsonl"
        code = main(["eval-det", "--det", str(det_path), "--gt", str(missing),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_explicit_iou_flags(self, two_group_files, tmp_path):
        det_path, gt_path = two_group_files
        out = tmp_path / "out"
        code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                     "--out", str(out), "--iou", "0.5", "--iou", "0.9"])
        assert code == 0
        assert read_json(out / "detection_report.json")["iou_thresholds"] == [0.5, 0.9]

    def test_out_naming_a_file_exits_1_before_reading_inputs(self, two_group_files, tmp_path,
                                                            capsys, monkeypatch):
        import biomeval.cli

        def unread(*args, **kwargs):
            raise AssertionError("inputs were read")

        monkeypatch.setattr(biomeval.cli, "load_detections", unread)
        det_path, gt_path = two_group_files
        out = tmp_path / "out"
        out.write_text("", encoding="utf-8")
        code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path), "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: output directory is a file: {out}\n"

    def test_rerun_is_byte_identical(self, two_group_files, tmp_path):
        det_path, gt_path = two_group_files
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                         "--out", str(out)]) == 0
        for name in ("detection_report.json", "detection_summary.txt", "run_manifest.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_records_digests(self, two_group_files, tmp_path):
        det_path, gt_path = two_group_files
        out = tmp_path / "out"
        main(["eval-det", "--det", str(det_path), "--gt", str(gt_path), "--out", str(out)])
        manifest = read_json(out / "run_manifest.json")
        assert manifest["command"] == "eval-det"
        assert manifest["version"]
        assert set(manifest["input_digests"]) == {"detections", "ground_truth"}
        assert all(d.startswith("sha256:") for d in manifest["input_digests"].values())

    def test_config_file_with_flag_override(self, two_group_files, tmp_path):
        det_path, gt_path = two_group_files
        config = {"det": str(det_path), "gt": str(gt_path), "iou": [0.5],
                  "out": str(tmp_path / "from_config")}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "flag_out"
        code = main(["eval-det", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert read_json(out / "detection_report.json")["iou_thresholds"] == [0.5]


    @pytest.mark.parametrize("value", ["0", "nan", "1.5"])
    def test_bad_iou_exits_1_before_reading_inputs(self, value, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["eval-det", "--det", str(tmp_path / "absent.jsonl"), "--gt",
                     str(tmp_path / "absent.jsonl"), "--out", str(out), "--iou", "0.5", "--iou", value])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IoU thresholds must lie in (0, 1]")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags, config", [
        (["--iou", "0.5", "--iou", "0.5"], None),
        ([], {"iou": [1, 1.0]}),
    ], ids=["flags", "config"])
    def test_repeated_iou_exits_1_before_reading_inputs(self, flags, config, tmp_path, capsys):
        out = tmp_path / "out"
        if config is not None:
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps(config), encoding="utf-8")
            flags = ["--config", str(config_path)]
        code = main(["eval-det", "--det", str(tmp_path / "absent.jsonl"), "--gt",
                     str(tmp_path / "absent.jsonl"), "--out", str(out), *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: IoU thresholds must not repeat") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("value", [2.7, "x", True])
    def test_non_integer_frame_count_in_media_index_exits_1(self, two_group_files, tmp_path,
                                                            capsys, value):
        det_path, gt_path = two_group_files
        rows = [{"media_id": m, "subject_id": "s", "dataset_tag": tag, "modality": "video",
                 "frame_count": 900} for m, tag in (("a1", "alpha"), ("b1", "beta"))]
        rows[1]["frame_count"] = value
        media_path = write_jsonl(tmp_path / "media.jsonl", rows)
        code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                     "--media", str(media_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 2: frame_count must be an integer")

    @pytest.mark.parametrize("field, value", [
        ("x", 10**400), ("frame", 2.7), ("frame", "x"), ("score", "abc"),
    ], ids=["huge-x", "frame-2.7", "frame-x", "score-abc"])
    def test_hostile_detection_field_exits_1_with_line(self, two_group_files, tmp_path, capsys,
                                                      field, value):
        _, gt_path = two_group_files
        good = {"media_id": "a1", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "score": 0.5}
        det_path = write_jsonl(tmp_path / "bad.jsonl", [good, dict(good, **{field: value})])
        code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and len(err) < 200
        assert not (tmp_path / "out").exists()


def _mistyped_protocol(protocol_path, edit):
    protocol = read_json(protocol_path)
    section, i, key, value = edit
    protocol[section][i][key] = value
    protocol_path.write_text(json.dumps(protocol), encoding="utf-8")


@pytest.mark.parametrize("edit, expected", [
    (("gallery", 0, "distractor", "false"), "gallery[0].distractor must be true or false, got 'false'"),
    (("gallery", 1, "media_ids", "m12"), "gallery[1].media_ids must be a non-empty list of strings, got 'm12'"),
    (("gallery", 1, "subject_id", None), "gallery[1].subject_id must be a string, got None"),
    (("probes", 0, "true_subject_id", 7), "probes[0].true_subject_id must be a string or null, got 7"),
], ids=["distractor-string", "media-ids-string", "subject-null", "true-subject-number"])
def test_mistyped_protocol_field_exits_1_naming_the_entry(toy_protocol_files, tmp_path, capsys,
                                                          edit, expected):
    emb_path, protocol_path = toy_protocol_files
    _mistyped_protocol(protocol_path, edit)
    out = tmp_path / "out"
    code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path), "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("file, key, value, expected", [
    ("det", "media_id", 7, "line 2: key 'media_id' must be a string, got 7"),
    ("det", "dataset_tag", 3, "line 2: key 'dataset_tag' must be a string or null, got 3"),
    ("gt", "subject_id", 7, "line 2: key 'subject_id' must be a string, got 7"),
    ("media", "subject_id", 7, "line 2: key 'subject_id' must be a string, got 7"),
], ids=["det-media-id", "det-tag", "gt-subject", "media-subject"])
def test_mistyped_line_field_exits_1_naming_the_line(two_group_files, tmp_path, capsys,
                                                     file, key, value, expected):
    det_path, gt_path = two_group_files
    media_rows = [{"media_id": m, "subject_id": "s", "dataset_tag": tag, "modality": "video",
                   "frame_count": 900} for m, tag in (("a1", "alpha"), ("b1", "beta"))]
    paths = {"det": det_path, "gt": gt_path,
             "media": write_jsonl(tmp_path / "media.jsonl", media_rows)}
    rows = [json.loads(line) for line in paths[file].read_text(encoding="utf-8").splitlines()]
    rows[1][key] = value
    write_jsonl(paths[file], rows)
    out = tmp_path / "out"
    code = main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                 "--media", str(paths["media"]), "--out", str(out)])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: {expected}\n"


def _append_line(path, line):
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
    return len(path.read_text(encoding="utf-8").splitlines())


_DEEP = "[" * 200_000 + "]" * 200_000
_LONG_INT = "1" * 5000


@pytest.mark.parametrize("target, value", [
    ("det", _DEEP), ("gt", _DEEP), ("emb", _DEEP), ("protocol", _DEEP), ("config", _DEEP),
    ("protocol", _LONG_INT), ("config", _LONG_INT),
], ids=["det-deep", "gt-deep", "emb-deep", "protocol-deep", "config-deep", "protocol-long-int",
        "config-long-int"])
def test_json_past_python_limits_exits_1_with_one_line(two_group_files, toy_protocol_files,
                                                       tmp_path, capsys, target, value):
    """A value nested past the recursion limit, or an integer literal past the
    4,300-digit limit, is invalid JSON: one stderr line, no traceback, no output."""
    det_path, gt_path = two_group_files
    emb_path, protocol_path = toy_protocol_files
    config_path = tmp_path / "config.json"
    config_path.write_text("{}", encoding="utf-8")
    path = {"det": det_path, "gt": gt_path, "emb": emb_path, "protocol": protocol_path,
            "config": config_path}[target]
    bad = '{"media_id": %s}' % value
    if path.suffix == ".jsonl":
        where = f"line {_append_line(path, bad)}: "
    else:
        path.write_text(bad, encoding="utf-8")
        where = f"config file {config_path}: " if target == "config" else ""
    argv = (["eval-det", "--det", str(det_path), "--gt", str(gt_path)] if target in ("det", "gt")
            else ["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                  "--config", str(config_path)])
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}invalid JSON (") and err.count("\n") == 1
    assert err.endswith("\n") and "Traceback" not in err


_LONG_ID = "i" * 100_000
# Each fault, and the start of its message.
_LONG_ID_FAULTS = {
    "untagged-medium": "media 'iii",
    "repeated-ground-truth": "duplicate ground truth for media 'iii",
    "repeated-subject": "duplicate gallery subject ids: ['iii",
    "medium-in-two-subjects": "medium 'iii",
    "missing-embedding": "protocol references media without embeddings: ['iii",
    "non-finite-embedding": "line 7: embedding for 'iii",
}


@pytest.mark.parametrize("fault", _LONG_ID_FAULTS)
def test_long_id_in_an_error_is_cut(two_group_files, toy_protocol_files, tmp_path, capsys, fault):
    """A 100,000-character id is quoted cut after 40 characters, with its length."""
    det_path, gt_path = two_group_files
    emb_path, protocol_path = toy_protocol_files
    box = {"frame": 0, "x": 0, "y": 0, "w": 1, "h": 1}
    if fault == "untagged-medium":
        _append_line(det_path, json.dumps({"media_id": _LONG_ID, **box, "score": 0.5}))
    elif fault == "repeated-ground-truth":
        for _ in range(2):
            _append_line(gt_path, json.dumps({"media_id": _LONG_ID, **box, "subject_id": "s"}))
    elif fault == "non-finite-embedding":
        _append_line(emb_path, json.dumps({"media_id": _LONG_ID, "vector": [float("nan"), 0, 0]}))
    else:
        protocol = read_json(protocol_path)
        gallery, probes = protocol["gallery"], protocol["probes"]
        if fault == "repeated-subject":
            gallery[1]["subject_id"] = gallery[0]["subject_id"] = _LONG_ID
        elif fault == "medium-in-two-subjects":
            gallery[1]["media_ids"] = gallery[0]["media_ids"] = [_LONG_ID]
        else:
            probes[0]["media_id"] = _LONG_ID
        protocol_path.write_text(json.dumps(protocol), encoding="utf-8")
    argv = (["eval-det", "--det", str(det_path), "--gt", str(gt_path)]
            if fault in ("untagged-medium", "repeated-ground-truth")
            else ["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path)])
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {_LONG_ID_FAULTS[fault]}") and "... (100002 characters)" in err
    assert len(err.encode("utf-8")) < 1024


GOLDEN = Path(__file__).parent / "data" / "det_golden"


@pytest.mark.parametrize("name, flags", [
    ("xyxy", ["--box-format", "xyxy"]),
    ("xywh", ["--box-format", "xywh"]),
    ("xyxy_iou", ["--box-format", "xyxy", "--iou", "0.5", "--iou", "1.0", "--iou", "0.1"]),
])
def test_eval_det_golden_outputs(name, flags, tmp_path, capsys):
    """Reports written for the golden inputs (see tests/data/det_golden/generate.py) byte for byte."""
    out = tmp_path / name
    assert main(["eval-det", "--det", str(GOLDEN / "detections.jsonl"),
                 "--gt", str(GOLDEN / "ground_truth.jsonl"), "--media", str(GOLDEN / "media.jsonl"),
                 "--out", str(out), *flags]) == 0
    for filename in ("detection_report.json", "detection_summary.txt"):
        assert (out / filename).read_bytes() == (GOLDEN / name / filename).read_bytes(), filename
    assert capsys.readouterr().out == (GOLDEN / name / "detection_summary.txt").read_text(encoding="utf-8")


def _round_robin(path: Path, out: Path) -> Path:
    """The file's lines with frames interleaved another way: one line of each frame in
    turn, latest-seen frame first, each frame's own lines in file order."""
    frames: dict[tuple, list[str]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            obj = json.loads(line)
            frames.setdefault((obj["media_id"], obj["frame"]), []).append(line)
    queues = [lines[::-1] for lines in reversed(frames.values())]
    lines = []
    while queues:
        lines += [queue.pop() for queue in queues]
        queues = [queue for queue in queues if queue]
    out.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return out


@pytest.mark.parametrize("name, flags", [
    ("xyxy", ["--box-format", "xyxy"]),
    ("xyxy_iou", ["--box-format", "xyxy", "--iou", "0.5", "--iou", "1.0", "--iou", "0.1"]),
])
def test_eval_det_outputs_do_not_depend_on_how_frames_interleave(name, flags, tmp_path, capsys):
    det_path = _round_robin(GOLDEN / "detections.jsonl", tmp_path / "d.jsonl")
    gt_path = _round_robin(GOLDEN / "ground_truth.jsonl", tmp_path / "g.jsonl")
    for path, golden in ((det_path, "detections.jsonl"), (gt_path, "ground_truth.jsonl")):
        before = [line for line in (GOLDEN / golden).read_text(encoding="utf-8").splitlines() if line.strip()]
        after = path.read_text(encoding="utf-8").splitlines()
        assert after != before and sorted(after) == sorted(before)
    runs = {}
    for inputs in ((GOLDEN / "detections.jsonl", GOLDEN / "ground_truth.jsonl"), (det_path, gt_path)):
        out = tmp_path / f"out{len(runs)}"
        assert main(["eval-det", "--det", str(inputs[0]), "--gt", str(inputs[1]),
                     "--media", str(GOLDEN / "media.jsonl"), "--out", str(out), *flags]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
        del manifest["input_digests"]["detections"], manifest["input_digests"]["ground_truth"]
        runs[out.name] = ({f.name: f.read_bytes() for f in out.iterdir() if f.name != "run_manifest.json"},
                          manifest, capsys.readouterr().out)
    assert runs["out0"] == runs["out1"]
    assert runs["out1"][0]["detection_report.json"] == (GOLDEN / name / "detection_report.json").read_bytes()


ID_GOLDEN = Path(__file__).parent / "data" / "id_golden"


@pytest.mark.parametrize("name, flags", [
    ("mean", ["--aggregate", "mean"]),
    ("max_score", ["--aggregate", "max_score", "--metric", "neg_euclidean", "--rank-cap", "5"]),
])
def test_eval_id_golden_outputs(name, flags, tmp_path):
    """Reports written for the golden inputs (see tests/data/id_golden/generate.py) byte for byte."""
    out = tmp_path / name
    assert main(["eval-id", "--emb", str(ID_GOLDEN / "embeddings.bemb"),
                 "--protocol", str(ID_GOLDEN / "protocol.json"), "--out", str(out), *flags]) == 0
    for filename in ("identification_report.json", "cmc.csv", "roc.csv", "openset.csv"):
        assert (out / filename).read_bytes() == (ID_GOLDEN / name / filename).read_bytes(), filename


def _reordered(doc: dict, how: str, seed: int) -> dict:
    """The protocol with its gallery entries or its probes shuffled, or each subject's
    media list reversed."""
    doc = json.loads(json.dumps(doc))
    if how == "media":
        for entry in doc["gallery"]:
            entry["media_ids"].reverse()
    else:
        random.Random(seed).shuffle(doc[how])
    return doc


@pytest.mark.parametrize("flags", [
    ["--aggregate", "mean"],
    ["--aggregate", "max_score"],
    ["--aggregate", "max_score", "--metric", "neg_euclidean"],
], ids=" ".join)
def test_eval_id_outputs_do_not_depend_on_protocol_order(flags, tmp_path, capsys):
    protocol = json.loads((ID_GOLDEN / "protocol.json").read_text(encoding="utf-8"))
    paths = {"golden": ID_GOLDEN / "protocol.json"}
    for seed, how in enumerate(("gallery", "probes", "media")):
        doc = _reordered(protocol, how, seed)
        assert doc != protocol
        paths[how] = tmp_path / f"{how}.json"
        paths[how].write_text(json.dumps(doc), encoding="utf-8")
    runs = {}
    for name, path in paths.items():
        out = tmp_path / name
        assert main(["eval-id", "--emb", str(ID_GOLDEN / "embeddings.bemb"),
                     "--protocol", str(path), "--out", str(out), *flags]) == 0
        manifest = read_json(out / "run_manifest.json")
        del manifest["input_digests"]["protocol"]
        runs[name] = ({f.name: f.read_bytes() for f in out.iterdir() if f.name != "run_manifest.json"},
                      manifest, capsys.readouterr().out)
    for name in ("gallery", "probes", "media"):
        assert runs[name] == runs["golden"], name


# Valid text embeddings for OVERFLOW_PROTOCOL; a test makes one of them overflow when squared.
OVERFLOW_VECTORS = {"g1": [1.0, 0.0], "g2": [0.0, 1.0], "q1": [1.0, 0.0],
                    "q2": [0.0, 1.0], "q3": [1.0, 1.0]}
OVERFLOW_PROTOCOL = {
    "gallery": [{"subject_id": "a", "media_ids": ["g1"]}, {"subject_id": "b", "media_ids": ["g2"]}],
    "probes": [{"probe_id": "p1", "media_id": "q1", "true_subject_id": "a"},
               {"probe_id": "p2", "media_id": "q2", "true_subject_id": "b"},
               {"probe_id": "p3", "media_id": "q3", "true_subject_id": None}],
}


@pytest.mark.parametrize("flags", [
    ["--aggregate", "mean"],
    ["--aggregate", "max_score"],
    ["--aggregate", "max_score", "--metric", "neg_euclidean"],
], ids=" ".join)
@pytest.mark.parametrize("overflowing, expected", [
    ("q1", "probe 'p1': squared norm overflows float64"),
    ("g1", "subject 'a': squared norm overflows float64"),
], ids=["probe", "gallery"])
def test_eval_id_names_a_vector_whose_squared_norm_overflows(overflowing, expected, flags,
                                                             tmp_path, capsys):
    vectors = {**OVERFLOW_VECTORS, overflowing: [1e200, 1e199]}
    emb_path = write_jsonl(tmp_path / "emb.jsonl",
                           [{"media_id": m, "vector": v} for m, v in vectors.items()])
    protocol_path = tmp_path / "protocol.json"
    protocol_path.write_text(json.dumps(OVERFLOW_PROTOCOL), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                 "--out", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not out.exists()


class TestEvalId:
    def test_toy_protocol(self, toy_protocol_files, tmp_path):
        emb_path, protocol_path = toy_protocol_files
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "identification_report.json")
        assert report["ranks"] == [1, 5, 10, 20]
        assert report["far_targets"] == [1e-4, 1e-3, 1e-2, 1e-1]
        assert report["rank_accuracy"] == {"1": 0.5, "5": 1.0, "10": 1.0, "20": 1.0}
        assert report["counts"] == {
            "probes": 3, "mate_searches": 2, "non_mate_searches": 1,
            "gallery_subjects": 3, "distractors": 1,
        }
        cmc_lines = (out / "cmc.csv").read_text(encoding="utf-8").splitlines()
        assert cmc_lines[1] == "rank,accuracy"
        assert cmc_lines[2:] == ["1,0.5", "2,0.5", "3,1"]
        roc_lines = (out / "roc.csv").read_text(encoding="utf-8").splitlines()
        assert roc_lines[1] == "far,tar,threshold"
        openset_lines = (out / "openset.csv").read_text(encoding="utf-8").splitlines()
        assert openset_lines[1] == "fpir,fnir,threshold"

    def test_zero_norm_probe_exits_1_naming_the_probe(self, toy_protocol_files, tmp_path, capsys):
        _, protocol_path = toy_protocol_files
        emb_rows = [{"media_id": m, "vector": [1.0, 0.0, 0.0]} for m in ("gm1", "gm2", "gm3")]
        emb_rows += [{"media_id": "pm1", "vector": [1.0, 0.0, 0.0]},
                     {"media_id": "pm2", "vector": [0.0, 0.0, 0.0]},
                     {"media_id": "pm3", "vector": [0.0, 1.0, 0.0]}]
        emb_path = write_jsonl(tmp_path / "zero.jsonl", emb_rows)
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: probe 'p2': zero-norm vector cannot be normalized\n"
        assert not out.exists()

    def test_protocol_without_mate_searches_exits_1(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        protocol = read_json(protocol_path)
        for probe in protocol["probes"]:
            probe["true_subject_id"] = None
        no_mates = tmp_path / "no_mates.json"
        no_mates.write_text(json.dumps(protocol), encoding="utf-8")
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(no_mates),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: no mate searches to rank\n"
        assert not (tmp_path / "out").exists()

    def test_missing_embeddings_listed(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        protocol = read_json(protocol_path)
        protocol["probes"].append({"probe_id": "px", "media_id": "ghost", "true_subject_id": None})
        bad_path = tmp_path / "bad_protocol.json"
        bad_path.write_text(json.dumps(protocol), encoding="utf-8")
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(bad_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "ghost" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_embeddings_list_is_bounded(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        protocol = read_json(protocol_path)
        protocol["probes"] += [{"probe_id": f"px{i}", "media_id": f"ghost{i:02d}",
                                "true_subject_id": None} for i in range(25)]
        bad_path = tmp_path / "bad_protocol.json"
        bad_path.write_text(json.dumps(protocol), encoding="utf-8")
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(bad_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "'ghost09'] (first 10 of 25)" in err and "ghost10" not in err

    def test_empty_probe_set_fails(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        protocol = read_json(protocol_path)
        protocol["probes"] = []
        bad_path = tmp_path / "empty.json"
        bad_path.write_text(json.dumps(protocol), encoding="utf-8")
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(bad_path),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "probes" in capsys.readouterr().err

    def test_binary_embeddings_are_sniffed(self, toy_protocol_files, tmp_path):
        emb_path, protocol_path = toy_protocol_files
        binary_path = tmp_path / "emb.bemb"
        assert main(["convert-emb", "--emb", str(emb_path), "--format", "binary",
                     "--out", str(binary_path)]) == 0
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(binary_path), "--protocol", str(protocol_path),
                     "--out", str(out)])
        assert code == 0
        report = read_json(out / "identification_report.json")
        assert report["rank_accuracy"]["1"] == 0.5

    def test_rerun_is_byte_identical(self, toy_protocol_files, tmp_path):
        emb_path, protocol_path = toy_protocol_files
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run
            assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                         "--out", str(out)]) == 0
            outs.append(out)
        names = ("identification_report.json", "cmc.csv", "roc.csv", "openset.csv",
                 "run_manifest.json")
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_rank_cap_below_one_exits_1(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(tmp_path / "out"), "--rank-cap", "0"])
        assert code == 1
        assert "rank_cap must be positive" in capsys.readouterr().err

    def test_rank_cap_below_one_rejected_without_open_set_curve(self, toy_protocol_files,
                                                                 tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        protocol = read_json(protocol_path)
        protocol["probes"] = [p for p in protocol["probes"] if p["true_subject_id"]]
        mates_path = tmp_path / "all_mates.json"
        mates_path.write_text(json.dumps(protocol), encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"rank_cap": 0}), encoding="utf-8")
        base = ["eval-id", "--emb", str(emb_path), "--protocol", str(mates_path)]
        for extra, out in ((["--rank-cap", "0"], "flag"), (["--config", str(config_path)], "cfg")):
            code = main(base + extra + ["--out", str(tmp_path / out)])
            assert code == 1
            assert "rank_cap must be positive" in capsys.readouterr().err
            assert not (tmp_path / out).exists()
        assert main(base + ["--rank-cap", "1", "--out", str(tmp_path / "ok")]) == 0

    def test_bad_far_or_rank_exits_1_before_reading_inputs(self, toy_protocol_files, tmp_path,
                                                            capsys):
        emb_path, protocol_path = toy_protocol_files
        configs = {"ranks": [1, 0], "far": [0.01, 0.001, 1e-2], "ranks-repeat": [20, 5, 20]}
        for name, value in configs.items():
            key = name.split("-")[0]
            (tmp_path / f"{name}.json").write_text(json.dumps({key: value}), encoding="utf-8")
        cases = {
            "inf": (["--far", "inf"], "FAR target must lie in [0, 1], got inf"),
            "nan": (["--far", "0.1", "--far", "nan"], "got nan"),
            "rank": (["--rank", "0"], "ranks must be positive, got [0]"),
            "cfg": (["--config", str(tmp_path / "ranks.json")], "ranks must be positive, got [1, 0]"),
            "rank-twice": (["--rank", "5", "--rank", "5"], "ranks must not repeat, got [5, 5]"),
            "far-twice": (["--far", "0.01", "--far", "1e-2"],
                          "FAR targets must not repeat, got [0.01, 0.01]"),
            "cfg-far-twice": (["--config", str(tmp_path / "far.json")],
                              "FAR targets must not repeat, got [0.01, 0.001, 0.01]"),
            "cfg-rank-twice": (["--config", str(tmp_path / "ranks-repeat.json")],
                               "ranks must not repeat, got [20, 5, 20]"),
        }
        for name, (extra, expected) in cases.items():
            out = tmp_path / name
            code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                         "--out", str(out)] + extra)
            assert code == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expected in err, (name, err)
            assert err.count("\n") == 1 and "Traceback" not in err
            assert not out.exists()

    def test_far_one_accepts_every_score(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        out = tmp_path / "out"
        assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out), "--far", "0.5", "--far", "1"]) == 0
        half, one = read_json(out / "identification_report.json")["tar_at_far"]
        assert half["tar"] == 0.5 and half["threshold"] is not None
        assert one == {"far_target": 1.0, "threshold": None, "tar": 1.0, "achieved_far": 1.0}
        assert "  TAR@FAR<=1: 1.0 (threshold -inf)\n" in capsys.readouterr().out

    def test_far_outside_unit_interval_exits_1_before_reading_inputs(self, toy_protocol_files,
                                                                     tmp_path, capsys):
        _, protocol_path = toy_protocol_files
        missing = tmp_path / "no-such-embeddings.jsonl"
        for far in (1.5, -0.5):
            config_path = tmp_path / "config.json"
            config_path.write_text(json.dumps({"far": [0.01, far]}), encoding="utf-8")
            for extra in (["--far", str(far)], ["--config", str(config_path)]):
                out = tmp_path / "out"
                code = main(["eval-id", "--emb", str(missing), "--protocol", str(protocol_path),
                             "--out", str(out), *extra])
                assert code == 1 and not out.exists()
                assert capsys.readouterr().err == f"error: FAR target must lie in [0, 1], got {far}\n"

    def test_probe_medium_enrolled_in_gallery_exits_1(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        _mistyped_protocol(protocol_path, ("probes", 2, "media_id", "gm2"))
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == ("error: probe 'p3' uses medium 'gm2', which is enrolled "
                                           "in gallery subject 'g2'\n")

    def test_truncated_config_error_names_the_file_and_position(self, toy_protocol_files,
                                                                tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        config_path = tmp_path / "config.json"
        config_path.write_text('{"ranks": [1,', encoding="utf-8")
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out), "--config", str(config_path)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            f"error: config file {config_path}: invalid JSON (Expecting value) at line 1 column 14\n"
        )

    def test_invalid_utf8_protocol_or_config_names_its_line(self, toy_protocol_files, tmp_path,
                                                            capsys):
        emb_path, protocol_path = toy_protocol_files
        bad = b'{\n "gallery": [],\n "probes": [\n    {"probe_id": "p\xff", "media_id": "m"}\n ]\n}\n'
        bad_path = tmp_path / "bad.json"
        bad_path.write_bytes(bad)
        located = "line 4: invalid UTF-8 (invalid start byte: 0xff at byte 20 of the line)"
        for extra, expected in ((["--protocol", str(bad_path)], f"error: {located}\n"),
                                (["--protocol", str(protocol_path), "--config", str(bad_path)],
                                 f"error: config file {bad_path}: {located}\n")):
            out = tmp_path / "out"
            code = main(["eval-id", "--emb", str(emb_path), "--out", str(out), *extra])
            assert code == 1 and not out.exists()
            assert capsys.readouterr().err == expected

    def test_repeated_gallery_medium_exits_1(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        _mistyped_protocol(protocol_path, ("gallery", 0, "media_ids", ["gm1", "gm1"]))
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == ("error: gallery[0].media_ids must be a non-empty list "
                                           "of distinct strings, got ['gm1', 'gm1']\n")

    def test_medium_under_two_gallery_subjects_exits_1(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        _mistyped_protocol(protocol_path, ("gallery", 1, "media_ids", ["gm2", "gm1"]))
        out = tmp_path / "out"
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--aggregate", "max_score", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == ("error: medium 'gm1' is enrolled in gallery subjects "
                                           "'g1' and 'g2'\n")

    def test_embedding_format_is_not_an_option(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        base = ["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as info:
            main([*base, "--format", "text"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format text" in capsys.readouterr().err
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"format": "text"}), encoding="utf-8")
        assert main([*base, "--config", str(config_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: config file has unknown keys ['format']; ") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_one_evaluation_context_and_no_matrix_copy(self, toy_protocol_files, tmp_path,
                                                       monkeypatch):
        import biomeval.cli
        from biomeval.identify import IdentificationEval, ScoreMatrix

        built = []

        class Counting(IdentificationEval):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def no_subset(self, probe_ids):
            raise AssertionError("eval-id copied mate rows")

        monkeypatch.setattr(biomeval.cli, "IdentificationEval", Counting)
        monkeypatch.setattr(ScoreMatrix, "subset", no_subset)
        emb_path, protocol_path = toy_protocol_files
        assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(tmp_path / "out"), "--rank-cap", "2"]) == 0
        assert len(built) == 1

    def test_each_input_is_released_after_its_last_reader(self, toy_protocol_files, tmp_path,
                                                          monkeypatch):
        """When IdentificationEval reduces the scores, the embedding store, the gallery and
        the probe rows are gone; when the first metric runs, so is the score matrix."""
        from biomeval.identify import IdentificationEval

        refs, alive = {}, {}

        def watch(name, pick=lambda result: result):
            call = getattr(cli, name)

            def wrapper(*args, **kwargs):
                result = call(*args, **kwargs)
                refs[name] = weakref.ref(pick(result))
                return result
            monkeypatch.setattr(cli, name, wrapper)

        def living():
            return sorted(name for name, ref in refs.items() if ref() is not None)

        def evaluate(matrix, manifest):
            alive["reduction"] = living()
            return IdentificationEval(matrix, manifest)

        rank_k_accuracy = IdentificationEval.rank_k_accuracy

        def first_metric(self, k):
            alive.setdefault("metrics", living())
            return rank_k_accuracy(self, k)

        for name in ("load_embeddings", "build_gallery_templates", "score"):
            watch(name)
        watch("probe_matrix", pick=lambda result: result[1])
        monkeypatch.setattr(cli, "IdentificationEval", evaluate)
        monkeypatch.setattr(IdentificationEval, "rank_k_accuracy", first_metric)
        emb_path, protocol_path = toy_protocol_files
        assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(tmp_path / "out")]) == 0
        assert alive == {"reduction": ["score"], "metrics": []}

    def test_unknown_config_key_rejected(self, toy_protocol_files, tmp_path, capsys):
        emb_path, protocol_path = toy_protocol_files
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"threads": 4, "metric": "cosine"}), encoding="utf-8")
        code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--config", str(config_path), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown keys ['threads']" in err and "'rank_cap'" in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key, value", [
    ("eval-id", "far", 0.01),
    ("eval-id", "ranks", 5),
    ("eval-det", "iou", 0.5),
])
def test_scalar_for_a_list_config_key_exits_1_before_reading_inputs(command, key, value,
                                                                     tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({key: value}), encoding="utf-8")
    absent = str(tmp_path / "absent")
    inputs = {"eval-id": ["--emb", absent, "--protocol", absent],
              "eval-det": ["--det", absent, "--gt", absent]}[command]
    out = tmp_path / "out"
    code = main([command, *inputs, "--config", str(config_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: config key {key!r} must be a list, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, config", [
    ("eval-id", {"ranks": [2.7]}),
    ("eval-id", {"seed": 2.5}),
    ("eval-id", {"seed": "7"}),
    ("eval-id", {"far": [True]}),
    ("eval-id", {"rank_cap": 2.0}),
    ("eval-id", {"metric": "foo"}),
    ("eval-id", {"aggregate": "median"}),
    ("eval-det", {"box_format": "abc"}),
    ("eval-det", {"iou": ["0.5"]}),
    ("eval-det", {"iou": [10**400]}),
    ("plan-batches", {"n": 2.5}),
    ("plan-batches", {"n": "4"}),
    ("plan-batches", {"num_batches": True}),
    ("plan-batches", {"stride": 2.9}),
    ("plan-batches", {"mode": "bogus"}),
    ("plan-batches", {"selection": 3}),
], ids=lambda v: json.dumps(v)[:30] if isinstance(v, dict) else v)
def test_bad_config_value_exits_1_before_reading_inputs(command, config, tmp_path, capsys):
    """A config value of the wrong JSON kind, or outside its flag's choices, fails first."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    absent = str(tmp_path / "absent")
    inputs = {"eval-id": ["--emb", absent, "--protocol", absent],
              "eval-det": ["--det", absent, "--gt", absent],
              "plan-batches": ["--media", absent]}[command]
    out = tmp_path / "out"
    code = main([command, *inputs, "--config", str(config_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    (key,) = config
    assert err.startswith(f"error: config key {key!r} ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


def test_config_file_that_is_not_an_object_exits_1(toy_protocol_files, tmp_path, capsys):
    emb_path, protocol_path = toy_protocol_files
    config_path = tmp_path / "c.json"
    config_path.write_text("[1]", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                 "--config", str(config_path), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == "error: config file must hold a JSON object\n"
    assert not out.exists()


def test_flag_replaces_config_list(toy_protocol_files, tmp_path):
    emb_path, protocol_path = toy_protocol_files
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"far": [0.01, 0.1]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                 "--config", str(config_path), "--far", "0.001", "--out", str(out)]) == 0
    assert read_json(out / "identification_report.json")["far_targets"] == [0.001]
    assert read_json(out / "run_manifest.json")["config"]["far_targets"] == [0.001]


def test_integer_in_float_config_list_reads_as_float(two_group_files, tmp_path):
    det_path, gt_path = two_group_files
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"iou": [1]}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["eval-det", "--det", str(det_path), "--gt", str(gt_path),
                 "--config", str(config_path), "--out", str(out)]) == 0
    manifest_text = (out / "run_manifest.json").read_text(encoding="utf-8")
    assert read_json(out / "run_manifest.json")["config"]["iou_thresholds"] == [1.0]
    assert '"iou_thresholds": [\n      1.0\n    ]' in manifest_text
    assert list(read_json(out / "detection_report.json")["pooled"]) == ["1.0"]


def test_config_only_run_matches_flag_run(toy_protocol_files, tmp_path):
    emb_path, protocol_path = toy_protocol_files
    flags = ["--emb", str(emb_path), "--protocol", str(protocol_path), "--far", "0.5",
             "--rank", "2", "--rank", "1", "--metric", "neg_euclidean", "--aggregate", "max_score",
             "--rank-cap", "2", "--seed", "4"]
    config = {"emb": str(emb_path), "protocol": str(protocol_path), "far": [0.5], "ranks": [2, 1],
              "metric": "neg_euclidean", "aggregate": "max_score", "rank_cap": 2,
              "seed": 4, "out": str(tmp_path / "cfg")}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["eval-id", *flags, "--out", str(tmp_path / "flags")]) == 0
    assert main(["eval-id", "--config", str(config_path)]) == 0
    for name in ("identification_report.json", "run_manifest.json"):
        assert (tmp_path / "cfg" / name).read_bytes() == (tmp_path / "flags" / name).read_bytes()


class TestPlanBatches:
    def test_default_plan_shape(self, tmp_path):
        media_path = write_jsonl(tmp_path / "media.jsonl", media_index_rows())
        out = tmp_path / "out"
        code = main(["plan-batches", "--media", str(media_path), "--out", str(out),
                     "--num-batches", "3", "--seed", "5"])
        assert code == 0
        plan = read_json(out / "plan.json")
        assert plan["generator"] == "numpy-pcg64"
        assert plan["seed"] == 5
        assert (plan["n"], plan["k"]) == (4, 4)
        assert plan["stride_choices"] == [150, 300]
        assert len(plan["batches"]) == 3
        for batch in plan["batches"]:
            assert len(batch) == 16

    def test_same_seed_byte_identical(self, tmp_path):
        media_path = write_jsonl(tmp_path / "media.jsonl", media_index_rows())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["plan-batches", "--media", str(media_path), "--out", str(out),
                         "--seed", "9"]) == 0
        assert (out_a / "plan.json").read_bytes() == (out_b / "plan.json").read_bytes()

    def test_test_mode_stride_300(self, tmp_path):
        media_path = write_jsonl(tmp_path / "media.jsonl", media_index_rows(frame_count=900))
        out = tmp_path / "out"
        code = main(["plan-batches", "--media", str(media_path), "--out", str(out),
                     "--mode", "test", "--stride", "300"])
        assert code == 0
        plan = read_json(out / "plan.json")
        for window in plan["frame_windows"].values():
            assert window["indices"] == [0, 300, 600]
            assert window["mask"] == [1, 1, 1]

    def test_infeasible_n_fails(self, tmp_path):
        media_path = write_jsonl(tmp_path / "media.jsonl", media_index_rows(subjects=3))
        code = main(["plan-batches", "--media", str(media_path), "--out", str(tmp_path / "o"),
                     "--n", "5"])
        assert code == 1

    def test_sample_count_section(self, tmp_path):
        media_path = write_jsonl(tmp_path / "media.jsonl", media_index_rows())
        out = tmp_path / "out"
        code = main(["plan-batches", "--media", str(media_path), "--out", str(out),
                     "--sample-count", "50", "--seed", "2"])
        assert code == 0
        plan = read_json(out / "plan.json")
        assert len(plan["sampled_media"]) == 50
        assert plan["dataset_weights"] == {"alpha": 0.5, "beta": 0.5}


    @pytest.mark.parametrize("value", [2.7, "x", True])
    def test_non_integer_frame_count_exits_1_with_line(self, tmp_path, capsys, value):
        rows = media_index_rows()
        rows[3]["frame_count"] = value
        media_path = write_jsonl(tmp_path / "media.jsonl", rows)
        code = main(["plan-batches", "--media", str(media_path), "--out", str(tmp_path / "plan")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == f"error: line 4: frame_count must be an integer, got {value!r}\n"

    def test_integral_float_frame_count_loads_as_int(self, tmp_path):
        rows = media_index_rows()
        ints = write_jsonl(tmp_path / "ints.jsonl", rows)
        floats = write_jsonl(tmp_path / "floats.jsonl", [dict(r, frame_count=900.0) for r in rows])
        for name, path in (("a", ints), ("b", floats)):
            assert main(["plan-batches", "--media", str(path), "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a" / "plan.json").read_bytes() == (tmp_path / "b" / "plan.json").read_bytes()


class TestCheckLosses:
    def test_passes_and_echoes_beta(self, capsys):
        assert main(["check-losses"]) == 0
        out = capsys.readouterr().out
        assert "beta=1/9" in out
        assert "0.111111" in out
        assert "max gradient relative error" in out

    def test_injected_fault_exits_nonzero(self, monkeypatch, capsys):
        import biomeval.losses as losses

        true_grad = losses.smooth_l1_grad
        monkeypatch.setattr(
            losses, "smooth_l1_grad",
            lambda pred, gt, beta=losses.DEFAULT_BETA: 1.5 * true_grad(pred, gt, beta),
        )
        assert main(["check-losses"]) == 1
        assert "failed" in capsys.readouterr().err


class TestConvertEmb:
    def test_round_trip_through_binary(self, tmp_path, toy_protocol_files):
        emb_path, _ = toy_protocol_files
        binary = tmp_path / "emb.bemb"
        text = tmp_path / "emb2.jsonl"
        assert main(["convert-emb", "--emb", str(emb_path), "--format", "binary",
                     "--out", str(binary)]) == 0
        assert main(["convert-emb", "--emb", str(binary), "--format", "text",
                     "--out", str(text)]) == 0
        assert load_embeddings(text) == load_embeddings(binary, format="binary")

    @pytest.mark.parametrize("vector, message", [
        (["1.5", True], "line 2: key 'vector[0]' must be a number, got '1.5'"),
        ([1.0, True], "line 2: key 'vector[1]' must be a number, got True"),
        ([1.0, 10**400], "line 2: key 'vector[1]' is beyond the float range, got 1000000000"),
        ([1.0, None], "line 2: key 'vector[1]' must be a number, got None"),
    ], ids=["string-and-bool", "bool", "huge-int", "null"])
    def test_non_number_component_exits_1_with_line(self, tmp_path, capsys, vector, message):
        emb_path = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [1, 2.5]},
                                                      {"media_id": "b", "vector": vector}])
        code = main(["convert-emb", "--emb", str(emb_path), "--format", "binary",
                     "--out", str(tmp_path / "e.bemb")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err) < 200
        assert not (tmp_path / "e.bemb").exists()

    def test_overflowing_component_exits_1_naming_its_record(self, tmp_path, capsys):
        """One stderr line and no file: the float32 cast raises no numpy warning."""
        emb_path = write_jsonl(tmp_path / "e.jsonl", [{"media_id": "a", "vector": [1.0, 2.0]},
                                                      {"media_id": "b", "vector": [1e300, 2.0]}])
        code = main(["convert-emb", "--emb", str(emb_path), "--format", "binary",
                     "--out", str(tmp_path / "e.bemb")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: record 1: vector for 'b' overflows the 32-bit float range\n")
        assert sorted(os.listdir(tmp_path)) == ["e.jsonl"]

    def test_binary_write_is_stable(self, tmp_path, toy_protocol_files):
        emb_path, _ = toy_protocol_files
        first = tmp_path / "a.bemb"
        second = tmp_path / "b.bemb"
        main(["convert-emb", "--emb", str(emb_path), "--format", "binary", "--out", str(first)])
        main(["convert-emb", "--emb", str(first), "--format", "binary", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fault", ["missing-input", "out-is-a-directory"])
    def test_bad_path_exits_1_before_reading_the_input(self, tmp_path, capsys, monkeypatch,
                                                        toy_protocol_files, fault):
        emb_path, _ = toy_protocol_files
        work = tmp_path / "work"
        (work / "out.bemb").mkdir(parents=True)
        if fault == "missing-input":
            emb, out = work / "absent.jsonl", work / "new" / "e.bemb"
            message = f"no such file (embeddings): {emb}"
        else:
            emb, out = emb_path, work / "out.bemb"
            message = f"output file is a directory: {out}"

        def no_read(*args, **kwargs):
            raise AssertionError("the input was read")

        monkeypatch.setattr(cli, "sniff_embedding_format", no_read)
        monkeypatch.setattr(cli, "load_embeddings", no_read)
        code = main(["convert-emb", "--emb", str(emb), "--format", "binary", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert [p.relative_to(work).as_posix() for p in sorted(work.rglob("*"))] == ["out.bemb"]

    def test_failed_write_leaves_no_output_and_no_temporary_file(self, tmp_path, capsys,
                                                                 monkeypatch, toy_protocol_files):
        emb_path, _ = toy_protocol_files
        out = tmp_path / "conv" / "e.bemb"
        out.parent.mkdir()
        out.write_bytes(b"an earlier conversion")

        def write_then_fail(store, path, format):
            Path(path).write_bytes(b"BEMB" + b"\x00" * 10)  # a part of the file
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "write_embeddings", write_then_fail)
        code = main(["convert-emb", "--emb", str(emb_path), "--format", "binary", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert os.listdir(out.parent) == ["e.bemb"]
        assert out.read_bytes() == b"an earlier conversion"
        out.unlink()
        assert main(["convert-emb", "--emb", str(emb_path), "--format", "binary",
                     "--out", str(out)]) == 1
        assert os.listdir(out.parent) == []


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestGroundTruthWorker:
    """eval-det parses the ground truth in a forked child while it parses the detections."""

    BAD_DET = {"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "score": 2}
    GOOD_GT = {"media_id": "m", "frame": 0, "x": 0, "y": 0, "w": 1, "h": 1, "subject_id": "a"}

    def _bad_gt(self, tmp_path):
        rows = [self.GOOD_GT, dict(self.GOOD_GT, frame=1), dict(self.GOOD_GT, w=-1, subject_id="b")]
        return write_jsonl(tmp_path / "bad_gt.jsonl", rows)

    def _run(self, det_path, gt_path, out, *flags):
        return main(["eval-det", "--det", str(det_path), "--gt", str(gt_path), "--out", str(out),
                     *flags])

    def test_detections_fault_wins_over_ground_truth_fault(self, tmp_path, capsys):
        det_path = write_jsonl(tmp_path / "bad_det.jsonl", [self.BAD_DET])
        out = tmp_path / "out"
        assert self._run(det_path, self._bad_gt(tmp_path), out) == 1
        assert capsys.readouterr().err == "error: line 1: score must lie in [0, 1], got 2\n"
        assert not out.exists()
        _assert_no_child_left()

    def test_ground_truth_fault_keeps_its_line_numbered_message(self, two_group_files, tmp_path,
                                                                capsys):
        det_path, _ = two_group_files
        out = tmp_path / "out"
        assert self._run(det_path, self._bad_gt(tmp_path), out) == 1
        assert capsys.readouterr().err == "error: line 3: box sides must be positive, got w=-1, h=1\n"
        assert not out.exists()
        _assert_no_child_left()

    def test_success_leaves_no_child(self, two_group_files, tmp_path):
        det_path, gt_path = two_group_files
        assert self._run(det_path, gt_path, tmp_path / "out") == 0
        _assert_no_child_left()

    def test_detections_fault_kills_a_running_child(self, tmp_path, capsys, monkeypatch):
        import time

        import biomeval.cli

        monkeypatch.setattr(biomeval.cli, "load_ground_truth", lambda *a, **k: time.sleep(60))
        det_path = write_jsonl(tmp_path / "bad_det.jsonl", [self.BAD_DET])
        start = time.perf_counter()
        assert self._run(det_path, self._bad_gt(tmp_path), tmp_path / "out") == 1
        assert time.perf_counter() - start < 30
        assert capsys.readouterr().err == "error: line 1: score must lie in [0, 1], got 2\n"
        _assert_no_child_left()

    @pytest.mark.parametrize("die, ending", [
        (lambda: os._exit(3), "exited with code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit-3", "sigkill"])
    def test_child_that_dies_without_a_result_exits_1(self, two_group_files, tmp_path, capsys,
                                                      monkeypatch, die, ending):
        import biomeval.cli

        monkeypatch.setattr(biomeval.cli, "load_ground_truth", lambda *a, **k: die())
        det_path, gt_path = two_group_files
        out = tmp_path / "out"
        assert self._run(det_path, gt_path, out) == 1
        err = capsys.readouterr().err
        assert err == f"error: reading ground truth {gt_path}: worker process {ending} without a result\n"
        assert "Traceback" not in err
        assert not out.exists()
        _assert_no_child_left()

    def test_unpicklable_result_exits_1(self, two_group_files, tmp_path, capsys, monkeypatch):
        import biomeval.cli

        monkeypatch.setattr(biomeval.cli, "load_ground_truth", lambda *a, **k: (lambda: None))
        det_path, gt_path = two_group_files
        assert self._run(det_path, gt_path, tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"error: reading ground truth {gt_path}: worker process exited with code 1 without a result\n")
        _assert_no_child_left()

    def test_base_exception_in_child_reaches_the_parent(self, two_group_files, tmp_path,
                                                        monkeypatch):
        import biomeval.cli

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(biomeval.cli, "load_ground_truth", interrupted)
        det_path, gt_path = two_group_files
        with pytest.raises(KeyboardInterrupt):
            self._run(det_path, gt_path, tmp_path / "out")
        assert not (tmp_path / "out").exists()
        _assert_no_child_left()

    def test_without_fork_outputs_are_identical(self, tmp_path, capsys, monkeypatch):
        flags = ["--media", str(GOLDEN / "media.jsonl"), "--box-format", "xyxy"]
        forked, in_order = tmp_path / "forked", tmp_path / "in_order"
        assert self._run(GOLDEN / "detections.jsonl", GOLDEN / "ground_truth.jsonl", forked, *flags) == 0
        forked_stdout = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        assert self._run(GOLDEN / "detections.jsonl", GOLDEN / "ground_truth.jsonl", in_order,
                         *flags) == 0
        assert capsys.readouterr().out == forked_stdout
        for name in ("detection_report.json", "detection_summary.txt", "run_manifest.json"):
            assert (forked / name).read_bytes() == (in_order / name).read_bytes(), name

    def test_without_fork_detections_fault_still_wins(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        det_path = write_jsonl(tmp_path / "bad_det.jsonl", [self.BAD_DET])
        assert self._run(det_path, self._bad_gt(tmp_path), tmp_path / "out") == 1
        assert capsys.readouterr().err == "error: line 1: score must lie in [0, 1], got 2\n"

    def test_module_run_writes_the_summary_once_and_nothing_to_stderr(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
        out = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "biomeval.cli", "eval-det", "--det", str(GOLDEN / "detections.jsonl"),
             "--gt", str(GOLDEN / "ground_truth.jsonl"), "--media", str(GOLDEN / "media.jsonl"),
             "--box-format", "xywh", "--out", str(out)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0
        assert done.stderr == b""
        assert done.stdout == (GOLDEN / "xywh" / "detection_summary.txt").read_bytes()


class TestInputHashWorker:
    """eval-id hashes its inputs in a forked child while it loads and scores them."""

    def _run(self, emb_path, protocol_path, out, *flags):
        return main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                     "--out", str(out), *flags])

    def _bad_embeddings(self, tmp_path):
        return write_jsonl(tmp_path / "bad_emb.jsonl", [{"media_id": "a", "vector": [1, 2.5]},
                                                        {"media_id": "b", "vector": [1.0, None]}])

    def test_success_leaves_no_child(self, toy_protocol_files, tmp_path):
        assert self._run(*toy_protocol_files, tmp_path / "out") == 0
        _assert_no_child_left()

    def test_embeddings_fault_kills_a_running_child(self, toy_protocol_files, tmp_path, capsys,
                                                    monkeypatch):
        import time

        monkeypatch.setattr(cli, "_input_digests", lambda inputs: time.sleep(60))
        _, protocol_path = toy_protocol_files
        out = tmp_path / "out"
        start = time.perf_counter()
        assert self._run(self._bad_embeddings(tmp_path), protocol_path, out) == 1
        assert time.perf_counter() - start < 30
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: key 'vector[1]' must be a number, got None")
        assert err.count("\n") == 1
        assert not out.exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("die, ending", [
        (lambda: os._exit(3), "exited with code 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ], ids=["exit-3", "sigkill"])
    def test_child_that_dies_without_a_result_exits_1(self, toy_protocol_files, tmp_path, capsys,
                                                      monkeypatch, die, ending):
        monkeypatch.setattr(cli, "_input_digests", lambda inputs: die())
        out = tmp_path / "out"
        assert self._run(*toy_protocol_files, out) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: hashing the inputs: worker process {ending} without a result\n"
        assert captured.out == ""
        assert not out.exists()
        _assert_no_child_left()

    @pytest.mark.parametrize("flags", [
        ["--aggregate", "mean"],
        ["--aggregate", "max_score", "--metric", "neg_euclidean", "--rank-cap", "5"],
    ], ids=["mean", "max_score"])
    def test_without_fork_outputs_are_identical(self, tmp_path, capsys, monkeypatch, flags):
        inputs = (ID_GOLDEN / "embeddings.bemb", ID_GOLDEN / "protocol.json")
        forked, in_order = tmp_path / "forked", tmp_path / "in_order"
        assert self._run(*inputs, forked, *flags) == 0
        forked_stdout = capsys.readouterr().out
        monkeypatch.delattr(os, "fork")
        assert self._run(*inputs, in_order, *flags) == 0
        assert capsys.readouterr().out == forked_stdout
        assert _files(in_order) == _files(forked)
        assert "run_manifest.json" in _files(forked)


@pytest.mark.parametrize("command, source", [
    ("eval-det", "flag"), ("eval-det", "config"), ("eval-id", "flag"), ("eval-id", "config"),
    ("plan-batches", "flag"), ("plan-batches", "config"), ("check-losses", "flag"),
])
def test_negative_seed_exits_1_before_reading_inputs(command, source, tmp_path, capsys,
                                                     monkeypatch):
    import biomeval.cli

    def unread(*args, **kwargs):
        raise AssertionError("inputs were read")

    for name in ("load_detections", "load_ground_truth", "load_embeddings", "load_protocol",
                 "load_media_index", "run_self_check"):
        monkeypatch.setattr(biomeval.cli, name, unread)
    absent = str(tmp_path / "absent")
    out = tmp_path / "out"
    argv = {"eval-det": ["--det", absent, "--gt", absent, "--out", str(out)],
            "eval-id": ["--emb", absent, "--protocol", absent, "--out", str(out)],
            "plan-batches": ["--media", absent, "--out", str(out)],
            "check-losses": []}[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"seed": -1}), encoding="utf-8")
        argv += ["--config", str(config_path)]
    assert main([command, *argv]) == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


# Each file-writing command's required input flags, then its optional ones, as
# (flag, input name).
RUN_INPUTS = {
    "eval-det": ([("--det", "detections"), ("--gt", "ground_truth")], [("--media", "media")]),
    "eval-id": ([("--emb", "embeddings"), ("--protocol", "protocol")], []),
    "plan-batches": ([("--media", "media")], []),
}


@pytest.mark.parametrize("command", sorted(RUN_INPUTS))
def test_run_paths_are_checked_in_one_order_before_any_input_is_read(command, tmp_path, capsys,
                                                                     monkeypatch):
    """--out missing, then a required input missing (in flag order), then a given input
    absent (in flag order), then --out naming a file; each exits 1 and reads nothing."""
    def unread(*args, **kwargs):
        raise AssertionError("inputs were read")

    for name in ("load_detections", "load_ground_truth", "load_embeddings", "load_protocol",
                 "load_media_index", "sniff_embedding_format", "_input_digests"):
        monkeypatch.setattr(cli, name, unread)
    required, optional = RUN_INPUTS[command]
    flags = required + optional
    present = tmp_path / "present"
    present.write_text("", encoding="utf-8")
    out_file = tmp_path / "out_file"
    out_file.write_text("", encoding="utf-8")
    absent = {name: tmp_path / name for _, name in flags}

    def error(*argv) -> str:
        assert main([command, *map(str, argv)]) == 1
        return capsys.readouterr().err

    missing_out = "error: missing required output directory: --out\n"
    assert error() == missing_out
    assert error(*(arg for flag, name in flags for arg in (flag, absent[name]))) == missing_out
    for i, (flag, _) in enumerate(required):
        argv = [arg for j, (other_flag, name) in enumerate(flags) if j != i
                for arg in (other_flag, present if j < i else absent[name])]
        assert error("--out", out_file, *argv) == f"error: missing required input: {flag}\n"
    for i, (_, name) in enumerate(flags):
        argv = [arg for j, (flag, other) in enumerate(flags)
                for arg in (flag, present if j < i else absent[other])]
        assert error("--out", out_file, *argv) == f"error: no such file ({name}): {absent[name]}\n"
    argv = [arg for flag, _ in flags for arg in (flag, present)]
    assert error("--out", out_file, *argv) == f"error: output directory is a file: {out_file}\n"


def _run_argv(command, tmp_path):
    """Golden-input arguments (a generated media index for plan-batches), without --out."""
    if command == "eval-det":
        return ["eval-det", "--det", str(GOLDEN / "detections.jsonl"),
                "--gt", str(GOLDEN / "ground_truth.jsonl"), "--media", str(GOLDEN / "media.jsonl")]
    if command == "eval-id":
        return ["eval-id", "--emb", str(ID_GOLDEN / "embeddings.bemb"),
                "--protocol", str(ID_GOLDEN / "protocol.json"), "--aggregate", "max_score"]
    media = write_jsonl(tmp_path / "media.jsonl", media_index_rows())
    return ["plan-batches", "--media", str(media), "--n", "3", "--k", "2", "--sample-count", "4"]


def _files(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _module_run_with_closed_stdout(argv, unbuffered):
    """Run `python -m biomeval.cli` with stdout a pipe whose read end is closed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    try:
        return subprocess.run([sys.executable, "-m", "biomeval.cli", *argv], stdout=write_fd,
                              stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_fd)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["eval-det", "eval-id", "plan-batches"])
def test_closed_stdout_still_writes_every_output(command, unbuffered, tmp_path, capsys):
    argv = _run_argv(command, tmp_path)
    assert main([*argv, "--out", str(tmp_path / "normal")]) == 0
    capsys.readouterr()
    out = tmp_path / "closed"
    done = _module_run_with_closed_stdout([*argv, "--out", str(out)], unbuffered)
    assert done.returncode == 1
    assert done.stderr == b"error: [Errno 32] Broken pipe\n"
    assert "run_manifest.json" in _files(out)
    assert _files(out) == _files(tmp_path / "normal")


@pytest.mark.parametrize("command", ["eval-det", "eval-id"])
def test_outputs_do_not_depend_on_the_hash_seed(command, tmp_path):
    """Runs under two string-hash seeds write the same bytes, the manifest included:
    eval-det keys rows by (media_id, frame) in a dict, and media ids pass through sets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    runs = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        done = subprocess.run([sys.executable, "-m", "biomeval.cli", *_run_argv(command, tmp_path),
                               "--out", str(out)], capture_output=True,
                              env={**env, "PYTHONHASHSEED": seed}, timeout=120)
        assert done.returncode == 0, done.stderr
        runs.append((_files(out), done.stdout))
    assert "run_manifest.json" in runs[0][0] and runs[0] == runs[1]


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["check-losses", "convert-emb"])
def test_closed_stdout_ends_other_commands_the_same_way(command, unbuffered, tmp_path):
    argv = {"check-losses": ["check-losses"],
            "convert-emb": ["convert-emb", "--emb", str(ID_GOLDEN / "embeddings.bemb"),
                            "--format", "text", "--out", str(tmp_path / "emb.jsonl")]}[command]
    done = _module_run_with_closed_stdout(argv, unbuffered)
    assert done.returncode == 1
    assert done.stderr == b"error: [Errno 32] Broken pipe\n"


def test_broken_pipe_in_process_exits_1_after_every_output(tmp_path, capsys):
    """main's broken-pipe branch, run in this process: stdout is a pipe whose read
    end is closed, so the summary's flush fails after the outputs are in place."""
    argv = _run_argv("eval-det", tmp_path)
    assert main([*argv, "--out", str(tmp_path / "normal")]) == 0
    capsys.readouterr()
    read_fd, write_fd = os.pipe()
    os.close(read_fd)
    out = tmp_path / "closed"
    with open(write_fd, "w", encoding="utf-8") as pipe, contextlib.redirect_stdout(pipe):
        code = main([*argv, "--out", str(out)])
        print("more", flush=True)  # the pipe's descriptor now points at devnull
    assert code == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    assert "run_manifest.json" in _files(out)
    assert _files(out) == _files(tmp_path / "normal")


class TestRunWriter:
    """One writer puts every output in place under a temporary name, the manifest last, the summary last."""

    EVAL_DET_OUTPUTS = {"detection_report.json", "detection_summary.txt", "run_manifest.json"}

    def _fail_second_replace(self, monkeypatch):
        real_replace = os.replace
        moved = []

        def replace(src, dst):
            moved.append(Path(dst).name)
            if len(moved) == 2:
                raise OSError("cannot move the second output into place")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        return moved

    def test_failed_second_move_leaves_no_manifest_and_no_temporary_file(self, tmp_path, capsys,
                                                                       monkeypatch):
        moved = self._fail_second_replace(monkeypatch)
        out = tmp_path / "out"
        assert main([*_run_argv("eval-det", tmp_path), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot move the second output into place\n"
        assert captured.out == ""
        assert moved == ["detection_report.json", "detection_summary.txt"]
        assert sorted(p.name for p in out.iterdir()) == ["detection_report.json"]

    def test_failed_run_over_a_complete_run_removes_its_manifest(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        argv = [*_run_argv("eval-det", tmp_path), "--out", str(out)]
        assert main(argv) == 0
        assert {p.name for p in out.iterdir()} == self.EVAL_DET_OUTPUTS
        capsys.readouterr()
        self._fail_second_replace(monkeypatch)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: cannot move the second output into place\n"
        assert captured.out == ""
        assert {p.name for p in out.iterdir()} == self.EVAL_DET_OUTPUTS - {"run_manifest.json"}

    @pytest.mark.parametrize("command", ["eval-det", "eval-id", "plan-batches"])
    def test_manifest_moves_last_and_stdout_follows_it(self, command, tmp_path, monkeypatch):
        out = tmp_path / "out"
        argv = [*_run_argv(command, tmp_path), "--out", str(out)]
        assert main(argv) == 0
        real_replace = os.replace
        events = []

        def replace(src, dst):
            if not events:
                events.append(("manifest present", (out / "run_manifest.json").exists()))
            events.append(("moved", Path(dst).name))
            return real_replace(src, dst)

        class Stdout:
            def write(self, text):
                events.append(("stdout", text))

            def flush(self):
                pass

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(argv) == 0
        assert events[0] == ("manifest present", False)
        assert events[-2] == ("moved", "run_manifest.json")
        assert events[-1][0] == "stdout"
        moves = [name for kind, name in events[1:-1]]
        assert [kind for kind, _ in events[1:-1]] == ["moved"] * len(moves)
        assert sorted(moves) == sorted(p.name for p in out.iterdir())


def test_cli_import_loads_no_heavy_module():
    """`import biomeval.cli` is paid by every run; these modules would add to it."""
    heavy = ("concurrent.futures", "multiprocessing", "asyncio", "scipy", "orjson")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys, biomeval.cli; "
         f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"],
        env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert json.loads(done.stdout) == []


# The flag that names each input, by its name in the manifest's input_digests.
_INPUT_FLAGS = {"embeddings": "--emb", "protocol": "--protocol", "detections": "--det",
                "ground_truth": "--gt", "media": "--media"}


def _input_paths(argv):
    """The manifest name and path of each input an argument list names."""
    return {name: Path(argv[argv.index(flag) + 1])
            for name, flag in _INPUT_FLAGS.items() if flag in argv}


def _sha256_of(path):
    import hashlib

    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", ["eval-id", "eval-det", "plan-batches"])
def test_manifest_digests_are_the_input_files_sha256(command, tmp_path):
    argv = _run_argv(command, tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    digests = read_json(out / "run_manifest.json")["input_digests"]
    expected = {name: _sha256_of(path) for name, path in _input_paths(argv).items()}
    assert digests == expected
    assert set(expected) == {"eval-id": {"embeddings", "protocol"},
                             "eval-det": {"detections", "ground_truth", "media"},
                             "plan-batches": {"media"}}[command]


@pytest.mark.parametrize("command", ["eval-id", "eval-det", "plan-batches"])
def test_run_writer_opens_no_input(command, tmp_path, capsys):
    """The digests are taken while the command runs: the writer needs no input file."""
    argv = _run_argv(command, tmp_path)
    copies = tmp_path / "inputs"
    copies.mkdir()
    expected = {}
    for name, path in _input_paths(argv).items():
        copy = copies / path.name
        copy.write_bytes(path.read_bytes())
        argv[argv.index(_INPUT_FLAGS[name]) + 1] = str(copy)
        expected[name] = _sha256_of(copy)
    out = tmp_path / "out"
    args = cli.build_parser().parse_args([*argv, "--out", str(out)])
    outputs = args.func(args)
    for path in copies.iterdir():
        path.unlink()
    cli._write_run(outputs)
    assert read_json(out / "run_manifest.json")["input_digests"] == expected
    assert capsys.readouterr().out == outputs.summary


def test_eval_runs_load_no_masked_array_module():
    """numpy.ma costs every run that imports it; np.unique imports it on its first call."""
    det, ids = GOLDEN, ID_GOLDEN
    runs = [
        ["eval-id", "--emb", str(ids / "embeddings.bemb"), "--protocol", str(ids / "protocol.json"),
         "--aggregate", "mean"],
        ["eval-id", "--emb", str(ids / "embeddings.bemb"), "--protocol", str(ids / "protocol.json"),
         "--aggregate", "max_score", "--metric", "neg_euclidean", "--rank-cap", "5"],
        ["eval-det", "--det", str(det / "detections.jsonl"), "--gt", str(det / "ground_truth.jsonl"),
         "--media", str(det / "media.jsonl")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH", "")])
    script = (
        "import contextlib, io, json, sys, tempfile\n"
        "from biomeval.cli import main\n"
        "loaded = []\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main([*argv, '--out', f'{out}/{i}']) == 0\n"
        "        loaded.append([argv[0], 'numpy.ma' in sys.modules])\n"
        "print(json.dumps(loaded))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    assert json.loads(done.stdout) == [["eval-id", False], ["eval-id", False], ["eval-det", False]]
