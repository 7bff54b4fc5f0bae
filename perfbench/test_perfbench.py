"""Tests of the benchmark's own machinery, on scaled-down inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py

They check that the output check accepts the real CLI's outputs and
rejects perturbed ones, that the detection reference agrees with the
oracle in tests/oracles.py, and that tracing reports a vanished name
instead of failing.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference
import run
import trace_child
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def small(monkeypatch):
    """Shrink the generators so one CLI run takes well under a second."""
    for name, value in (("ID_SUBJECTS", 120), ("ID_DISTRACTORS", 80), ("ID_MATES", 40),
                        ("ID_NON_MATES", 40), ("ID_DIM", 16), ("DET_CLIPS", 8),
                        ("DET_FRAMES_PER_CLIP", 25), ("DET_CROWD_SHARE", 0.04)):
        monkeypatch.setattr(workloads, name, value)


def _cli(args: list[str]) -> None:
    env = run.child_env()
    subprocess.run([sys.executable, "-c", run.RUN_CLI, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120)


def _rewrite_csv_cell(path: Path, row: int, col: int, value: str) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = value
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("aggregate,rank_cap", [("mean", None), ("max_score", 3)])
def test_id_check_accepts_cli_and_rejects_perturbed(small, tmp_path, aggregate, rank_cap):
    inputs = workloads.make_id_inputs(7, tmp_path / "in")
    out = tmp_path / "out"
    extra = ["--aggregate", aggregate] + ([] if rank_cap is None else ["--rank-cap", str(rank_cap)])
    _cli(["eval-id", "--emb", str(inputs.emb_path), "--protocol", str(inputs.protocol_path),
          "--out", str(out), *extra])
    want = reference.id_expected(inputs, aggregate, rank_cap)
    assert reference.check_id_outputs(out, want) == []

    report_path = out / "identification_report.json"
    pristine = report_path.read_text(encoding="utf-8")
    report = json.loads(pristine)
    report["tar_at_far"][1]["tar"] = round(report["tar_at_far"][1]["tar"] - 0.025, 6)
    report_path.write_text(json.dumps(report), encoding="utf-8")
    assert any("tar_at_far" in p for p in reference.check_id_outputs(out, want))

    report_path.write_text(pristine, encoding="utf-8")
    _rewrite_csv_cell(out / "openset.csv", 3, 2, "0.5")
    assert any("openset.csv" in p for p in reference.check_id_outputs(out, want))
    _rewrite_csv_cell(out / "roc.csv", 2, 2, "not-a-number")
    assert any("roc.csv" in p for p in reference.check_id_outputs(out, want))


def test_det_check_accepts_cli_and_rejects_perturbed(small, tmp_path):
    inputs = workloads.make_det_inputs(7, tmp_path / "in")
    assert inputs.sizes["crowd_frames"] > 0
    out = tmp_path / "out"
    _cli(["eval-det", "--det", str(inputs.det_path), "--gt", str(inputs.gt_path), "--out", str(out)])
    want = reference.det_expected(inputs)
    assert reference.check_det_outputs(out, want) == []

    report_path = out / "detection_report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["pooled"]["0.5"]["tp"] += 1
    report_path.write_text(json.dumps(report), encoding="utf-8")
    assert any("pooled @ 0.5" in p for p in reference.check_det_outputs(out, want))


def test_generators_are_seeded(small, tmp_path):
    a = workloads.make_det_inputs(3, tmp_path / "a")
    b = workloads.make_det_inputs(3, tmp_path / "b")
    c = workloads.make_det_inputs(4, tmp_path / "c")
    assert a.det_path.read_bytes() == b.det_path.read_bytes()
    assert a.det_path.read_bytes() != c.det_path.read_bytes()


def test_frame_reference_matches_oracle(small, tmp_path):
    oracle_path = ROOT / "tests" / "oracles.py"
    if not oracle_path.is_file():
        pytest.skip("tests/oracles.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("bench_oracles", oracle_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    def records(rows):
        return [SimpleNamespace(box=SimpleNamespace(x=r[0], y=r[1], w=r[2], h=r[3]),
                                score=r[4] if len(r) > 4 else None) for r in rows.tolist()]

    inputs = workloads.make_det_inputs(11, tmp_path)
    rng = np.random.default_rng(0)
    picks = rng.choice(len(inputs.frames), size=60, replace=False)
    crowded = np.flatnonzero(inputs.crowd)[:3]
    for f in np.concatenate([picks, crowded]):
        _, preds, gts = inputs.frames[f]
        for thr in workloads.IOU_THRESHOLDS:
            tp, _, _ = oracles.match_frame_reference(records(preds), records(gts), thr)
            assert reference.frame_true_positives(preds, gts, thr) == tp


def test_missing_wrapped_name_is_reported_not_fatal():
    tracer = trace_child.Tracer()
    tracer.wrap("biomeval.cli", "no_such_function", "identify.no_such_function")
    tracer.wrap("biomeval.no_such_module", "load", "io.no_such_module")
    assert tracer.missing == ["identify.no_such_function", "io.no_such_module"]


def test_self_times_add_up_to_main():
    spans = [
        {"name": "io.load_embeddings", "parent": None, "start": 1.0, "end": 4.0, "counts": {"records": 5}},
        {"name": "stores.EmbeddingStore", "parent": 0, "start": 3.0, "end": 3.5},
        {"name": "identify.score", "parent": None, "start": 5.0, "end": 6.0},
    ]
    layers = run.layer_metrics({"main_s": 6.0, "spans": spans})
    assert layers["io.load_embeddings"]["self_s"] == pytest.approx(2.5)
    assert layers["io.load_embeddings"]["counts"] == {"records": 5}
    assert layers["cli"]["self_s"] == pytest.approx(2.0)
    total = sum(v["self_s"] for v in layers.values())
    assert total == pytest.approx(6.0)
