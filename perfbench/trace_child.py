"""Run one biomeval CLI command in this process, with a span around each layer call.

Usage: python3 trace_child.py SPANS.json CLI-ARGUMENT...

The wrappers are installed from outside the package: each replaces the
name that ``biomeval.cli`` calls into ``io``, ``stores``, ``identify`` and
``detection`` (and the store constructors ``biomeval.io`` calls) with a
timing shim. Spans are kept in memory and written to SPANS.json once
``main()`` returns. A wrapped name the package no longer has is listed
under "missing" instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

# (module whose attribute is called, attribute, span name)
WRAPPED = (
    ("biomeval.cli", "sniff_embedding_format", "io.sniff_embedding_format"),
    ("biomeval.cli", "load_embeddings", "io.load_embeddings"),
    ("biomeval.cli", "load_protocol", "io.load_protocol"),
    ("biomeval.cli", "load_detections", "io.load_detections"),
    ("biomeval.cli", "load_ground_truth", "io.load_ground_truth"),
    ("biomeval.io", "EmbeddingStore", "stores.EmbeddingStore"),
    ("biomeval.io", "DetectionStore", "stores.DetectionStore"),
    ("biomeval.io", "GroundTruthStore", "stores.GroundTruthStore"),
    ("biomeval.cli", "validate_protocol", "stores.validate_protocol"),
    ("biomeval.cli", "build_gallery_templates", "identify.build_gallery_templates"),
    ("biomeval.cli", "probe_matrix", "identify.probe_matrix"),
    ("biomeval.cli", "score", "identify.score"),
    ("biomeval.cli", "rank_k_accuracy", "identify.rank_k_accuracy"),
    ("biomeval.cli", "cmc", "identify.cmc"),
    ("biomeval.cli", "tar_at_far", "identify.tar_at_far"),
    ("biomeval.cli", "roc_curve", "identify.roc_curve"),
    ("biomeval.cli", "fnir_fpir", "identify.fnir_fpir"),
    ("biomeval.cli", "evaluate_detections", "detection.evaluate_detections"),
)


def _count(name: str, args: tuple, result) -> dict:
    """Work counts read off a call's arguments and result."""
    if name in ("io.load_embeddings", "io.load_detections", "io.load_ground_truth"):
        out = {"records": len(result)}
        if name == "io.load_embeddings":
            out["bytes"] = os.path.getsize(args[0])
        return out
    if name == "stores.validate_protocol":
        return {"probes": len(result.mate_probe_ids) + len(result.non_mate_probe_ids)}
    if name == "identify.build_gallery_templates":
        return {"templates": len(result)}
    if name == "identify.score":
        return {"cells": int(result.scores.size)}
    if name in ("identify.roc_curve", "identify.fnir_fpir"):
        return {"points": len(result.points)}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, module_name: str, attr: str, name: str) -> None:
        try:
            module = importlib.import_module(module_name)
            target = getattr(module, attr)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return

        def shim(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            try:
                span["counts"] = _count(name, args, result)
            except (AttributeError, TypeError, IndexError, OSError):
                span["counts"] = {}
            return result

        setattr(module, attr, shim)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    cli = importlib.import_module("biomeval.cli")
    for module_name, attr, name in WRAPPED:
        tracer.wrap(module_name, attr, name)
    start = time.perf_counter()
    code = cli.main(cli_args)
    end = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"main_s": end - start, "exit": code, "spans": tracer.spans,
                   "missing": tracer.missing}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
