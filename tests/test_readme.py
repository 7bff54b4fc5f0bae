"""README's Library examples run as written, on copies of the golden inputs."""

import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# README's file name -> the golden input copied under it.
INPUTS = {
    "emb.bemb": DATA / "id_golden" / "embeddings.bemb",
    "protocol.json": DATA / "id_golden" / "protocol.json",
    "dets.jsonl": DATA / "det_golden" / "detections.jsonl",
    "gts.jsonl": DATA / "det_golden" / "ground_truth.jsonl",
    "media.jsonl": DATA / "det_golden" / "media.jsonl",
}


def _library_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_every_library_example_runs(tmp_path, monkeypatch, capsys):
    for name, source in INPUTS.items():
        shutil.copyfile(source, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    for block in _library_blocks():
        exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert "2 (3, 2) [0 2]" in out  # the identification example's fused gallery
    # det_golden's pooled counts at IoU 0.7, as in its detection_summary.txt
    assert "MatchCounts(tp=915, fp=996, fn=207) 0.6033" in out
