"""Command-line front-end binding the library into reproducible evaluation runs.

Subcommands: eval-det, eval-id, plan-batches, check-losses, convert-emb.
Every file-writing run also writes run_manifest.json with the resolved
configuration, seed, input digests, and tool version; reruns on identical
inputs produce identical bytes. Floats in reports carry 6 significant
digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .detection import DEFAULT_IOU_THRESHOLDS, evaluate_detections
from .errors import BiomevalError, preview
from .identify import (
    DEFAULT_FAR_TARGETS,
    DEFAULT_RANKS,
    IdentificationEval,
    build_gallery_templates,
    far_target,
    probe_matrix,
    score,
)
from .io import (
    load_detections,
    load_embeddings,
    load_ground_truth,
    load_media_index,
    load_protocol,
    sniff_embedding_format,
    write_embeddings,
)
from .losses import DEFAULT_BETA, DEFAULT_EPSILON, DEFAULT_MARGIN, run_self_check
from .sampling import (
    DEFAULT_MEDIA_PER_SUBJECT,
    DEFAULT_STRIDE,
    DEFAULT_SUBJECTS_PER_BATCH,
    GENERATOR_NAME,
    STANDARD_TEST_STRIDES,
    dataset_balanced_weights,
    frame_window,
    pk_batches,
    sample_media,
)

# eval-id no longer calls these; perfbench/trace_child.py wraps them by their
# names in this module, so they stay importable from here.
from .identify import cmc, fnir_fpir, rank_k_accuracy, roc_curve, tar_at_far  # noqa: F401
from .stores import validate_protocol  # noqa: F401


def round6(value: float) -> float:
    """Round to 6 significant digits (round-half-even, via IEEE formatting)."""
    return float(f"{value:.6g}")


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration for one evaluation run.

    Input paths must exist when the config is built; the output directory
    is created if absent.
    """

    out_dir: Path
    inputs: dict[str, str] = field(default_factory=dict)
    iou_thresholds: tuple[float, ...] = DEFAULT_IOU_THRESHOLDS
    seed: int = 0

    def __post_init__(self):
        for flag, path in self.inputs.items():
            if not Path(path).exists():
                raise FileNotFoundError(f"no such file ({flag}): {path}")
        for thr in self.iou_thresholds:
            if not (0.0 < thr <= 1.0):
                raise BiomevalError(f"IoU thresholds must lie in (0, 1], got {thr!r}")
        self.out_dir.mkdir(parents=True, exist_ok=True)


def _round_floats(obj):
    if isinstance(obj, float):
        return round6(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_run_manifest(out_dir: Path, command: str, config: dict, inputs: dict, outputs: list[str]) -> None:
    manifest = {
        "tool": "biomeval",
        "version": __version__,
        "command": command,
        "config": config,
        "input_digests": {name: f"sha256:{_sha256(p)}" for name, p in inputs.items()},
        "outputs": sorted(outputs),
    }
    _write_json(out_dir / "run_manifest.json", manifest)


def _load_config_file(args) -> dict:
    """The --config JSON object; its keys must be destinations of the subcommand's flags."""
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise BiomevalError("config file must hold a JSON object")
    # The parsed namespace holds every destination of the subcommand's parser,
    # plus the subcommand name and handler; a config cannot name another config.
    allowed = set(vars(args)) - {"command", "func", "config"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise BiomevalError(
            f"config file has unknown keys {preview(unknown)}; allowed keys: {sorted(allowed)}"
        )
    return doc


def _resolve(args, config: dict, key: str, default=None):
    """Flag value if given, else config-file value, else the default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _required(value, flag: str) -> str:
    if value is None:
        raise BiomevalError(f"missing required input: {flag}")
    return str(value)


def _resolve_out(args, config: dict) -> Path:
    out = _resolve(args, config, "out")
    if out is None:
        raise BiomevalError("missing required output directory: --out")
    return Path(out)


def _cmd_eval_det(args) -> int:
    config = _load_config_file(args)
    inputs = {
        "detections": _required(_resolve(args, config, "det"), "--det"),
        "ground_truth": _required(_resolve(args, config, "gt"), "--gt"),
    }
    media_path = _resolve(args, config, "media")
    if media_path is not None:
        inputs["media"] = str(media_path)
    run = RunConfig(
        out_dir=_resolve_out(args, config),
        inputs=inputs,
        iou_thresholds=tuple(_resolve(args, config, "iou", list(DEFAULT_IOU_THRESHOLDS))),
        seed=int(_resolve(args, config, "seed", 0)),
    )
    thresholds = run.iou_thresholds
    box_format = _resolve(args, config, "box_format", "xywh")
    out = run.out_dir

    dets = load_detections(inputs["detections"], box_format=box_format)
    gts = load_ground_truth(inputs["ground_truth"], box_format=box_format)
    media_tags = None
    if media_path is not None:
        media_tags = load_media_index(inputs["media"]).media_tags()

    report = evaluate_detections(dets, gts, thresholds, media_tags=media_tags)
    _write_json(out / "detection_report.json", report.to_dict())

    lines = [f"detection evaluation at IoU thresholds {list(thresholds)}"]
    for tag in report.groups:
        for thr in thresholds:
            scores = report.per_group[(tag, thr)]
            lines.append(
                f"  {tag} @ {thr:g}: P={round6(scores.precision)} R={round6(scores.recall)} "
                f"F1={round6(scores.f1)} (tp={scores.counts.tp} fp={scores.counts.fp} fn={scores.counts.fn})"
            )
    for thr in thresholds:
        scores = report.pooled[thr]
        lines.append(
            f"  pooled @ {thr:g}: P={round6(scores.precision)} R={round6(scores.recall)} "
            f"F1={round6(scores.f1)} (tp={scores.counts.tp} fp={scores.counts.fp} fn={scores.counts.fn})"
        )
    summary = "\n".join(lines) + "\n"
    (out / "detection_summary.txt").write_text(summary, encoding="utf-8")
    print(summary, end="")

    run_config = {
        "iou_thresholds": list(thresholds),
        "box_format": box_format,
        "seed": run.seed,
    }
    _write_run_manifest(
        out, "eval-det", run_config, inputs,
        ["detection_report.json", "detection_summary.txt"],
    )
    return 0


def _cmd_eval_id(args) -> int:
    config = _load_config_file(args)
    rank_cap = _resolve(args, config, "rank_cap")
    if rank_cap is not None and (
        isinstance(rank_cap, bool) or not isinstance(rank_cap, int) or rank_cap < 1
    ):
        raise BiomevalError(
            f"rank_cap must be positive (an integer of at least 1), got {rank_cap!r}"
        )
    far_targets = tuple(
        far_target(f) for f in _resolve(args, config, "far", list(DEFAULT_FAR_TARGETS))
    )
    ranks = tuple(int(r) for r in _resolve(args, config, "ranks", list(DEFAULT_RANKS)))
    if any(k < 1 for k in ranks):
        raise BiomevalError(f"ranks must be positive, got {list(ranks)}")
    run = RunConfig(
        out_dir=_resolve_out(args, config),
        inputs={
            "embeddings": _required(_resolve(args, config, "emb"), "--emb"),
            "protocol": _required(_resolve(args, config, "protocol"), "--protocol"),
        },
        seed=int(_resolve(args, config, "seed", 0)),
    )
    emb_path = run.inputs["embeddings"]
    protocol_path = run.inputs["protocol"]
    metric = _resolve(args, config, "metric", "cosine")
    aggregate = _resolve(args, config, "aggregate", "mean")
    emb_format = _resolve(args, config, "format") or sniff_embedding_format(emb_path)
    out = run.out_dir

    embeddings = load_embeddings(emb_path, format=emb_format)
    manifest = load_protocol(protocol_path)
    gallery = build_gallery_templates(manifest, embeddings, method=aggregate)
    probe_ids, probes = probe_matrix(manifest, embeddings)
    matrix = score(probes, gallery, metric=metric, probe_ids=probe_ids)

    evaluation = IdentificationEval(matrix, manifest)
    if not evaluation.mate_rows.size:
        raise BiomevalError("protocol has no mate searches; nothing to rank")

    gallery_size = len(manifest.gallery)
    rank_accuracy = {str(k): evaluation.rank_k_accuracy(k) for k in ranks}
    operating_points = evaluation.tar_at_far(far_targets)
    cmc_curve = evaluation.cmc()
    roc = evaluation.roc_curve()

    outputs = ["identification_report.json", "cmc.csv", "roc.csv"]
    cmc_curve.to_csv(out / "cmc.csv", columns=("rank", "accuracy"))
    roc.to_csv(out / "roc.csv", columns=("far", "tar", "threshold"))

    if evaluation.non_mate_rows.size:
        open_set = evaluation.fnir_fpir(rank_cap=rank_cap)
        open_set.to_csv(out / "openset.csv", columns=("fpir", "fnir", "threshold"))
        outputs.append("openset.csv")

    report = {
        "ranks": list(ranks),
        "rank_accuracy": rank_accuracy,
        "far_targets": list(far_targets),
        "tar_at_far": [p.as_dict() for p in operating_points],
        "counts": {
            "probes": len(manifest.probes),
            "mate_searches": evaluation.mate_rows.size,
            "non_mate_searches": evaluation.non_mate_rows.size,
            "gallery_subjects": gallery_size,
            "distractors": manifest.distractor_count,
        },
        "metric": metric,
        "aggregation": aggregate,
        "rank_cap": rank_cap,
        "open_set_curve": "openset.csv" in outputs,
    }
    _write_json(out / "identification_report.json", report)
    print(
        f"identification over {len(manifest.probes)} probes, {gallery_size} gallery subjects "
        f"({manifest.distractor_count} distractors)"
    )
    for k in ranks:
        print(f"  rank-{k} accuracy: {round6(rank_accuracy[str(k)])}")
    for p in operating_points:
        print(f"  TAR@FAR<={p.far_target:g}: {round6(p.tar)} (threshold {round6(p.threshold)})")

    run_config = {
        "far_targets": list(far_targets),
        "ranks": list(ranks),
        "metric": metric,
        "aggregation": aggregate,
        "rank_cap": rank_cap,
        "embedding_format": emb_format,
        "seed": run.seed,
    }
    _write_run_manifest(out, "eval-id", run_config, run.inputs, outputs)
    return 0


def _cmd_plan_batches(args) -> int:
    config = _load_config_file(args)
    run = RunConfig(
        out_dir=_resolve_out(args, config),
        inputs={"media": _required(_resolve(args, config, "media"), "--media")},
        seed=int(_resolve(args, config, "seed", 0)),
    )
    media_path = run.inputs["media"]
    n = int(_resolve(args, config, "n", DEFAULT_SUBJECTS_PER_BATCH))
    k = int(_resolve(args, config, "k", DEFAULT_MEDIA_PER_SUBJECT))
    num_batches = int(_resolve(args, config, "num_batches", 1))
    stride = int(_resolve(args, config, "stride", DEFAULT_STRIDE))
    length = int(_resolve(args, config, "window_length", 16))
    mode = _resolve(args, config, "mode", "train")
    selection = _resolve(args, config, "selection", "window")
    seed = run.seed
    sample_count = _resolve(args, config, "sample_count")
    out = run.out_dir

    index = load_media_index(media_path)
    plan = pk_batches(index.media_by_subject(), n=n, k=k, num_batches=num_batches, seed=seed)

    planned_media = sorted({m for batch in plan.batches for m in batch})
    windows = {}
    # Per-media seeds derive from the run seed and the media's sorted
    # position, so windows replay identically across runs.
    for offset, media_id in enumerate(planned_media, start=1):
        window = frame_window(
            frame_count=index.get(media_id).frame_count,
            stride=stride,
            length=length,
            mode=mode,
            seed=seed + offset,
            selection=selection,
        )
        windows[media_id] = {"indices": list(window.indices), "mask": list(window.mask)}

    payload = {
        "generator": GENERATOR_NAME,
        "seed": seed,
        "n": n,
        "k": k,
        "batch_size": plan.batch_size,
        "num_batches": num_batches,
        "stride": stride,
        "stride_choices": list(STANDARD_TEST_STRIDES),
        "window_length": length,
        "mode": mode,
        "selection": selection,
        "batches": [list(batch) for batch in plan.batches],
        "frame_windows": windows,
    }
    if sample_count is not None:
        weights = dataset_balanced_weights(index.media_by_tag())
        payload["dataset_weights"] = {tag: weights.per_dataset[tag] for tag in sorted(weights.per_dataset)}
        payload["sampled_media"] = sample_media(weights, int(sample_count), seed)
    _write_json(out / "plan.json", payload)
    print(f"wrote plan for {num_batches} batch(es) of {plan.batch_size} media to {out / 'plan.json'}")

    run_config = {
        "n": n, "k": k, "num_batches": num_batches, "stride": stride,
        "window_length": length, "mode": mode, "selection": selection, "seed": seed,
    }
    _write_run_manifest(out, "plan-batches", run_config, {"media": media_path}, ["plan.json"])
    return 0


def _cmd_check_losses(args) -> int:
    seed = args.seed if args.seed is not None else 0
    report = run_self_check(seed=seed)
    print(
        f"loss defaults: beta=1/9 ({round6(DEFAULT_BETA)}), margin={DEFAULT_MARGIN}, "
        f"epsilon={DEFAULT_EPSILON}"
    )
    for line in report.lines():
        print(line)
    print(f"max gradient relative error: {report.max_gradient_error:.3e}")
    if not report.passed:
        failed = [c.name for c in report.checks if not c.passed]
        print(f"error: checks failed: {failed}", file=sys.stderr)
        return 1
    return 0


def _cmd_convert_emb(args) -> int:
    emb_path = _required(args.emb, "--emb")
    if not Path(emb_path).exists():
        raise FileNotFoundError(f"no such file: {emb_path}")
    target = args.format
    source = sniff_embedding_format(emb_path)
    store = load_embeddings(emb_path, format=source)
    out_path = Path(args.out)
    if out_path.parent and not out_path.parent.exists():
        out_path.parent.mkdir(parents=True, exist_ok=True)
    write_embeddings(store, out_path, format=target)
    print(f"converted {len(store)} embeddings ({source} -> {target}) to {out_path}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--out", help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, help="seed for the deterministic RNG")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biomeval",
        description="Detection scoring, loss self-checks, sampling plans, and "
        "closed/open-set identification metrics.",
    )
    parser.add_argument("--version", action="version", version=f"biomeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-det", help="score detections against ground truth")
    _add_common(p)
    p.add_argument("--det", help="detections JSONL file")
    p.add_argument("--gt", help="ground-truth JSONL file")
    p.add_argument("--media", help="optional media-index JSONL supplying dataset tags")
    p.add_argument(
        "--iou", type=float, action="append",
        help=f"IoU threshold, repeatable (default {list(DEFAULT_IOU_THRESHOLDS)})",
    )
    p.add_argument("--box-format", dest="box_format", choices=("xywh", "xyxy"))
    p.set_defaults(func=_cmd_eval_det)

    p = sub.add_parser("eval-id", help="closed- and open-set identification metrics")
    _add_common(p)
    p.add_argument("--emb", help="embeddings file (text JSONL or binary)")
    p.add_argument("--protocol", help="protocol manifest JSON")
    p.add_argument("--format", choices=("text", "binary"), help="embedding format (default: sniff)")
    p.add_argument(
        "--far", type=float, action="append",
        help=f"FAR target, repeatable (default {list(DEFAULT_FAR_TARGETS)})",
    )
    p.add_argument("--rank", dest="ranks", type=int, action="append",
                   help=f"report rank, repeatable (default {list(DEFAULT_RANKS)})")
    p.add_argument("--metric", choices=("cosine", "neg_euclidean"))
    p.add_argument("--aggregate", choices=("mean", "max_score"))
    p.add_argument("--rank-cap", dest="rank_cap", type=int,
                   help="count a mate search failed when its rank exceeds this cap")
    p.set_defaults(func=_cmd_eval_id)

    p = sub.add_parser("plan-batches", help="emit a deterministic sampling plan")
    _add_common(p)
    p.add_argument("--media", help="media-index JSONL file")
    p.add_argument("--n", type=int, help=f"subjects per batch (default {DEFAULT_SUBJECTS_PER_BATCH})")
    p.add_argument("--k", type=int, help=f"media per subject (default {DEFAULT_MEDIA_PER_SUBJECT})")
    p.add_argument("--num-batches", dest="num_batches", type=int, help="batches to plan (default 1)")
    p.add_argument(
        "--stride", type=int,
        help=f"frame stride; standard test strides are {list(STANDARD_TEST_STRIDES)} "
        f"(default {DEFAULT_STRIDE})",
    )
    p.add_argument("--window-length", dest="window_length", type=int,
                   help="padded window length for train mode (default 16)")
    p.add_argument("--mode", choices=("train", "test"))
    p.add_argument("--selection", choices=("window", "uniform"),
                   help="train-mode frame pick: consecutive run or uniform subset")
    p.add_argument("--sample-count", dest="sample_count", type=int,
                   help="also draw this many media via dataset-balanced weights")
    p.set_defaults(func=_cmd_plan_batches)

    p = sub.add_parser("check-losses", help="run the loss self-check suite")
    p.add_argument("--seed", type=int, help="seed for the randomized checks (default 0)")
    p.set_defaults(func=_cmd_check_losses)

    p = sub.add_parser("convert-emb", help="convert embeddings between text and binary")
    p.add_argument("--emb", required=True, help="input embeddings file (format sniffed)")
    p.add_argument("--format", required=True, choices=("text", "binary"), help="target format")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=_cmd_convert_emb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BiomevalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
