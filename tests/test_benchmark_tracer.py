"""The benchmark's tracer (perfbench/trace_child.py) still finds every name it wraps.

The tracer replaces names in biomeval.cli and biomeval.io with timing shims
that have none of the wrapped objects' attributes (no label or record_type).
A traced run that exits 0, reports no missing name and writes the golden
reports shows that the package calls through those names, builds embedding
stores through biomeval.io's EmbeddingStore name, and looks the annotation
store classes up on biomeval.stores.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
ID_GOLDEN = DATA / "id_golden"
DET_GOLDEN = DATA / "det_golden"


@pytest.mark.parametrize("argv, golden, traced", [
    (["eval-id", "--emb", str(ID_GOLDEN / "embeddings.bemb"), "--protocol", str(ID_GOLDEN / "protocol.json"),
      "--aggregate", "max_score", "--metric", "neg_euclidean", "--rank-cap", "5"],
     ID_GOLDEN / "max_score",
     {"io.sniff_embedding_format", "io.load_embeddings", "stores.EmbeddingStore", "io.load_protocol",
      "identify.score"}),
    (["eval-det", "--det", str(DET_GOLDEN / "detections.jsonl"), "--gt", str(DET_GOLDEN / "ground_truth.jsonl"),
      "--media", str(DET_GOLDEN / "media.jsonl"), "--box-format", "xywh"],
     DET_GOLDEN / "xywh",
     {"io.load_detections", "detection.evaluate_detections"}),
], ids=["id-max-score", "det-xywh"])
def test_traced_run_finds_every_wrapped_name_and_writes_the_golden_reports(argv, golden, traced, tmp_path):
    spans_path, out = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans_path), *argv, "--out", str(out)],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    assert trace["exit"] == 0 and trace["missing"] == []
    assert traced <= {span["name"] for span in trace["spans"]}
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


def test_traced_score_counts_every_cell_of_the_matrix(tmp_path):
    """identify.score's cell count is probes x gallery subjects, read off the ScoreMatrix it returns."""
    protocol = json.loads((ID_GOLDEN / "protocol.json").read_text(encoding="utf-8"))
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans_path), "eval-id",
         "--emb", str(ID_GOLDEN / "embeddings.bemb"), "--protocol", str(ID_GOLDEN / "protocol.json"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode("utf-8", "replace")
    spans = json.loads(spans_path.read_text(encoding="utf-8"))["spans"]
    (traced,) = [span for span in spans if span["name"] == "identify.score"]
    assert traced["counts"]["cells"] == len(protocol["probes"]) * len(protocol["gallery"])
