import json

from biomeval import load_embeddings
from biomeval.cli import main, round6

from conftest import write_jsonl


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        summary = (out / "detection_summary.txt").read_text()
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
        cmc_lines = (out / "cmc.csv").read_text().splitlines()
        assert cmc_lines[1] == "rank,accuracy"
        assert cmc_lines[2:] == ["1,0.5", "2,0.5", "3,1"]
        roc_lines = (out / "roc.csv").read_text().splitlines()
        assert roc_lines[1] == "far,tar,threshold"
        openset_lines = (out / "openset.csv").read_text().splitlines()
        assert openset_lines[1] == "fpir,fnir,threshold"

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
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"ranks": [1, 0]}), encoding="utf-8")
        cases = {
            "inf": (["--far", "inf"], "FAR target must be finite and non-negative, got inf"),
            "nan": (["--far", "0.1", "--far", "nan"], "got nan"),
            "rank": (["--rank", "0"], "ranks must be positive, got [0]"),
            "cfg": (["--config", str(config_path)], "ranks must be positive, got [1, 0]"),
        }
        for name, (extra, expected) in cases.items():
            out = tmp_path / name
            code = main(["eval-id", "--emb", str(emb_path), "--protocol", str(protocol_path),
                         "--out", str(out)] + extra)
            assert code == 1, name
            err = capsys.readouterr().err
            assert err.startswith("error: ") and expected in err, (name, err)
            assert "Traceback" not in err
            assert not out.exists()

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

    def test_binary_write_is_stable(self, tmp_path, toy_protocol_files):
        emb_path, _ = toy_protocol_files
        first = tmp_path / "a.bemb"
        second = tmp_path / "b.bemb"
        main(["convert-emb", "--emb", str(emb_path), "--format", "binary", "--out", str(first)])
        main(["convert-emb", "--emb", str(first), "--format", "binary", "--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
