"""Command-line front-end binding the library into reproducible evaluation runs.

Subcommands: eval-det, eval-id, plan-batches, check-losses, convert-emb.
Each option takes its flag's value, else the --config file's value under the
flag's destination name, else the flag's default. A config value must have
its flag's JSON kind (a string, an integer, a number, or a list of one of
these for a repeatable flag) and gets the flag's checks, all before any input
is read; a flag given on the command line replaces a config list. Every
file-writing run also writes run_manifest.json with the resolved
configuration, seed, the digests of its inputs as read when the run starts,
and tool version; reruns on identical inputs produce identical bytes.
Floats in reports carry 6 significant digits. One writer (_write_run) owns
the write order: each output under a temporary name, moved into place, the
manifest last, the summary last.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import __version__
from .detection import DEFAULT_IOU_THRESHOLDS, evaluate_detections, iou_thresholds
from .errors import BiomevalError, ParseError, brief, preview
from .identify import (
    AGGREGATION_METHODS,
    DEFAULT_FAR_TARGETS,
    DEFAULT_RANKS,
    SCORE_METRICS,
    IdentificationEval,
    build_gallery_templates,
    far_targets,
    positive_rank,
    probe_matrix,
    report_ranks,
    score,
)
from .io import (
    BOX_FORMATS,
    EMBEDDING_FORMATS,
    load_detections,
    load_embeddings,
    load_ground_truth,
    load_media_index,
    load_protocol,
    read_json,
    sniff_embedding_format,
    write_embeddings,
)
from .losses import DEFAULT_BETA, DEFAULT_EPSILON, DEFAULT_MARGIN, run_self_check
from .sampling import (
    DEFAULT_MEDIA_PER_SUBJECT,
    DEFAULT_STRIDE,
    DEFAULT_SUBJECTS_PER_BATCH,
    GENERATOR_NAME,
    MODES,
    SELECTIONS,
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


def _input_digests(inputs: dict[str, str]) -> dict[str, str]:
    """Each input file's SHA-256 digest by its name, as run_manifest.json records it."""
    return {name: f"sha256:{_sha256(path)}" for name, path in inputs.items()}


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(_round_floats(payload), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


@dataclass(frozen=True)
class RunOutputs:
    """What a file-writing command produced: its files' bytes by name, in write
    order, the manifest's command and config, the summary for stdout, and
    the digests of its inputs from _input_digests, taken as the run read them."""

    out_dir: Path
    command: str
    config: dict
    artefacts: dict[str, bytes]
    summary: str
    digests: dict[str, str]


@contextmanager
def _replacing(path: Path):
    """Yield a temporary path beside path, for the caller to write; then move it
    onto path. On any failure the temporary file is removed and path is untouched."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_run(outputs: RunOutputs) -> None:
    """Write a run's outputs so that a directory holding run_manifest.json holds
    every output of the run that wrote it.

    An earlier run's manifest is removed first, each artefact is moved into
    place whole, the new manifest follows them, and the summary goes to
    stdout last (main flushes it). A run that fails part-way leaves no
    manifest and no temporary file. The manifest's input digests are the
    ones the command took; no input file is opened here.
    """
    manifest = _json_bytes({
        "tool": "biomeval",
        "version": __version__,
        "command": outputs.command,
        "config": outputs.config,
        "input_digests": outputs.digests,
        "outputs": sorted(outputs.artefacts),
    })
    outputs.out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = outputs.out_dir / "run_manifest.json"
    manifest_path.unlink(missing_ok=True)
    for name, data in (*outputs.artefacts.items(), (manifest_path.name, manifest)):
        with _replacing(outputs.out_dir / name) as tmp:
            tmp.write_bytes(data)
    sys.stdout.write(outputs.summary)


# The JSON kind of a config value, by its flag's argparse type: the Python
# types it may have (never a bool), and its name in messages, alone and in a list.
_JSON_KINDS = {
    int: (int, "an integer", "integers"),
    float: ((int, float), "a number", "numbers"),
    None: (str, "a string", "strings"),
}


def _config_value(action: argparse.Action, value):
    """A --config value converted as its flag's argument would be.

    It must have the JSON kind of the flag's type (a list of that kind for a
    repeatable flag), lie among the flag's choices, and then goes through the
    flag's type, so `{"iou": [1]}` reads as [1.0].
    """
    key = action.dest
    repeatable = isinstance(action, argparse._AppendAction)
    if repeatable and not isinstance(value, list):
        raise BiomevalError(f"config key {key!r} must be a list, got {brief(value)}")
    accepted, kind, kinds = _JSON_KINDS[action.type]
    items = value if repeatable else [value]
    for v in items:
        if isinstance(v, bool) or not isinstance(v, accepted):
            expected = f"a list of {kinds}" if repeatable else kind
            raise BiomevalError(f"config key {key!r} must be {expected}, got {brief(value)}")
        if action.choices is not None and v not in action.choices:
            raise BiomevalError(f"config key {key!r} must be one of {list(action.choices)}, got {brief(v)}")
    try:
        items = [v if action.type is None else action.type(v) for v in items]
    except OverflowError:
        raise BiomevalError(f"config key {key!r} is beyond the float range, got {brief(value)}") from None
    return items if repeatable else items[0]


def _load_config_file(path, actions) -> dict:
    """The --config JSON object, each value converted by _config_value; its keys
    must be destinations of the subcommand's flags."""
    if path is None:
        return {}
    try:
        doc = read_json(path)
    except ParseError as exc:
        raise BiomevalError(f"config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise BiomevalError("config file must hold a JSON object")
    by_key = {action.dest: action for action in actions}
    unknown = sorted(set(doc) - set(by_key))
    if unknown:
        raise BiomevalError(f"config file has unknown keys {preview(unknown)}; allowed keys: {sorted(by_key)}")
    return {key: _config_value(by_key[key], value) for key, value in doc.items()}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: each destination takes its flag's value when the
    flag is given, else the --config file's value, else the flag's default."""

    def parse_known_args(self, args=None, namespace=None):
        actions = [a for a in self._actions if a.dest not in ("help", "config")]
        # Every destination starts at None, so argparse applies no default and
        # one still None afterwards had no flag. A repeatable flag then starts
        # from an empty list: it replaces a config list (or its default)
        # instead of extending it.
        namespace = namespace or argparse.Namespace()
        for action in actions:
            vars(namespace).setdefault(action.dest, None)
        given, extras = super().parse_known_args(args, namespace)
        config = _load_config_file(getattr(given, "config", None), actions)
        for action in actions:
            if getattr(given, action.dest) is None:
                setattr(given, action.dest, config.get(action.dest, action.default))
        if getattr(given, "seed", 0) < 0:
            raise BiomevalError(f"seed must be a non-negative integer, got {given.seed}")
        return given, extras


def _run_paths(args, required: dict[str, str],
               optional: dict[str, str] | None = None) -> tuple[Path, dict[str, str]]:
    """(out_dir, inputs) of a file-writing run: --out as a Path, and each given
    input's path by its name. required and optional map an input's name to its
    flag, whose destination is the flag without its leading "--".

    Checked in one order before any input is read: --out is given, each
    required flag is given (in order), each given input exists, --out is not a
    file. The command then reads its inputs, hashes them with _input_digests
    (eval-id and eval-det in a forked child while they read), and hands its
    outputs and the digests to _write_run, which alone creates --out, so a run
    that fails on its inputs leaves no directory behind.
    """
    if args.out is None:
        raise BiomevalError("missing required output directory: --out")
    inputs = {}
    for name, flag in (*required.items(), *(optional or {}).items()):
        path = getattr(args, flag[2:])
        if path is not None:
            inputs[name] = path
        elif name in required:
            raise BiomevalError(f"missing required input: {flag}")
    for name, path in inputs.items():
        if not Path(path).exists():
            raise FileNotFoundError(f"no such file ({name}): {path}")
    out_dir = Path(args.out)
    if out_dir.exists() and not out_dir.is_dir():
        raise FileExistsError(f"output directory is a file: {out_dir}")
    return out_dir, inputs


def _child_main(call, read_fd: int, write_fd: int) -> NoReturn:
    """The forked child: pickle call()'s outcome into the pipe, then os._exit on every path."""
    code = 1
    try:
        os.close(read_fd)
        try:
            outcome = (True, call())
        except BaseException as exc:
            outcome = (False, exc)
        data = pickle.dumps(outcome, protocol=5)
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


@contextmanager
def _in_child(call, what: str):
    """Start call() in a forked child; yield a function that returns its result,
    or raises the exception it raised.

    The child writes nothing but its outcome (pickled into a pipe) and never
    returns into the caller's code. Leaving the block reaps the child, killing
    it first if its result was never taken, so an error raised in the block
    comes before the child's. Without os.fork, call() runs when its result is
    asked for. `what` names the work in the error for a child that dies
    without sending a result.
    """
    if not hasattr(os, "fork"):
        yield call
        return
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns about forking with live (BLAS) threads; the child
        # only parses and never calls into BLAS.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        _child_main(call, read_fd, write_fd)
    os.close(write_fd)
    running = True

    def result():
        nonlocal running
        data = reader.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        running = False
        # The child exits 0 only once its whole outcome is in the pipe.
        if code != 0:
            ending = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise BiomevalError(f"{what}: worker process {ending} without a result")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    with open(read_fd, "rb") as reader:
        try:
            yield result
        finally:
            if running:
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _cmd_eval_det(args) -> RunOutputs:
    thresholds = iou_thresholds(args.iou)
    out_dir, inputs = _run_paths(args, {"detections": "--det", "ground_truth": "--gt"},
                                 {"media": "--media"})

    # The ground truth is parsed, and then the inputs hashed, in a second
    # process while this one parses the detections; a detections fault still
    # comes first.
    gt_path = inputs["ground_truth"]
    with _in_child(lambda: (load_ground_truth(gt_path, box_format=args.box_format),
                            _input_digests(inputs)),
                   f"reading ground truth {gt_path}") as ground_truth:
        dets = load_detections(inputs["detections"], box_format=args.box_format)
        gts, digests = ground_truth()
    media_tags = None if args.media is None else load_media_index(args.media).media_tags()

    report = evaluate_detections(dets, gts, thresholds, media_tags=media_tags)

    def line(name, thr, scores) -> str:
        counts = scores.counts
        return (f"  {name} @ {thr:g}: P={round6(scores.precision)} R={round6(scores.recall)} "
                f"F1={round6(scores.f1)} (tp={counts.tp} fp={counts.fp} fn={counts.fn})")

    lines = [f"detection evaluation at IoU thresholds {list(thresholds)}"]
    lines += [line(tag, thr, report.per_group[(tag, thr)]) for tag in report.groups for thr in thresholds]
    lines += [line("pooled", thr, report.pooled[thr]) for thr in thresholds]
    summary = "\n".join(lines) + "\n"
    return RunOutputs(
        out_dir, "eval-det",
        config={"iou_thresholds": list(thresholds), "box_format": args.box_format, "seed": args.seed},
        artefacts={
            "detection_report.json": _json_bytes(report.to_dict()),
            "detection_summary.txt": summary.encode("utf-8"),
        },
        summary=summary,
        digests=digests,
    )


def _cmd_eval_id(args) -> RunOutputs:
    rank_cap = positive_rank("rank_cap", args.rank_cap)
    targets, ranks = far_targets(args.far), report_ranks(args.ranks)
    out_dir, inputs = _run_paths(args, {"embeddings": "--emb", "protocol": "--protocol"})
    # The settings that the report and the manifest's config share.
    settings = {"ranks": list(ranks), "far_targets": list(targets), "metric": args.metric,
                "aggregation": args.aggregate, "rank_cap": rank_cap}

    # The inputs are hashed in a second process while this one loads and
    # scores them; a fault here kills that process and comes first.
    with _in_child(lambda: _input_digests(inputs), "hashing the inputs") as digests:
        emb_format = sniff_embedding_format(args.emb)
        embeddings = load_embeddings(args.emb, format=emb_format)
        manifest = load_protocol(args.protocol)
        gallery = build_gallery_templates(manifest, embeddings, method=args.aggregate)
        probe_ids, probes = probe_matrix(manifest, embeddings)
        del embeddings  # each input is released after its last reader
        matrix = score(probes, gallery, metric=args.metric, probe_ids=probe_ids)
        del gallery, probes
        evaluation = IdentificationEval(matrix, manifest)
        del matrix

        gallery_size = len(manifest.gallery)
        rank_accuracy = {str(k): evaluation.rank_k_accuracy(k) for k in ranks}
        operating_points = evaluation.tar_at_far(targets)
        cmc_curve = evaluation.cmc()
        roc = evaluation.roc_curve()
        open_set = evaluation.fnir_fpir(rank_cap=rank_cap) if evaluation.non_mate_rows.size else None
        input_digests = digests()

    artefacts = {
        "cmc.csv": cmc_curve.to_csv(columns=("rank", "accuracy")).encode("utf-8"),
        "roc.csv": roc.to_csv(columns=("far", "tar", "threshold")).encode("utf-8"),
    }
    if open_set is not None:
        artefacts["openset.csv"] = open_set.to_csv(columns=("fpir", "fnir", "threshold")).encode("utf-8")

    report = {
        **settings,
        "rank_accuracy": rank_accuracy,
        "tar_at_far": [p.as_dict() for p in operating_points],
        "counts": {
            "probes": len(manifest.probes),
            "mate_searches": evaluation.mate_rows.size,
            "non_mate_searches": evaluation.non_mate_rows.size,
            "gallery_subjects": gallery_size,
            "distractors": manifest.distractor_count,
        },
        "open_set_curve": "openset.csv" in artefacts,
    }
    lines = [
        f"identification over {len(manifest.probes)} probes, {gallery_size} gallery subjects "
        f"({manifest.distractor_count} distractors)"
    ]
    lines += [f"  rank-{k} accuracy: {round6(rank_accuracy[str(k)])}" for k in ranks]
    lines += [f"  TAR@FAR<={p.far_target:g}: {round6(p.tar)} (threshold {round6(p.threshold)})"
              for p in operating_points]

    artefacts["identification_report.json"] = _json_bytes(report)
    run_config = {**settings, "embedding_format": emb_format, "seed": args.seed}
    return RunOutputs(out_dir, "eval-id", config=run_config, artefacts=artefacts,
                      summary="\n".join(lines) + "\n", digests=input_digests)


def _cmd_plan_batches(args) -> RunOutputs:
    out_dir, inputs = _run_paths(args, {"media": "--media"})
    seed = args.seed

    index = load_media_index(inputs["media"])
    plan = pk_batches(index.media_by_subject(), n=args.n, k=args.k, num_batches=args.num_batches, seed=seed)

    planned_media = sorted({m for batch in plan.batches for m in batch})
    windows = {}
    # Per-media seeds derive from the run seed and the media's sorted
    # position, so windows replay identically across runs.
    for offset, media_id in enumerate(planned_media, start=1):
        window = frame_window(
            frame_count=index.get(media_id).frame_count,
            stride=args.stride,
            length=args.window_length,
            mode=args.mode,
            seed=seed + offset,
            selection=args.selection,
        )
        windows[media_id] = {"indices": list(window.indices), "mask": list(window.mask)}

    run_config = {
        "n": args.n, "k": args.k, "num_batches": args.num_batches, "stride": args.stride,
        "window_length": args.window_length, "mode": args.mode, "selection": args.selection, "seed": seed,
    }
    payload = {
        **run_config,
        "generator": GENERATOR_NAME,
        "batch_size": plan.batch_size,
        "stride_choices": list(STANDARD_TEST_STRIDES),
        "batches": [list(batch) for batch in plan.batches],
        "frame_windows": windows,
    }
    if args.sample_count is not None:
        weights = dataset_balanced_weights(index.media_by_tag())
        payload["dataset_weights"] = {tag: weights.per_dataset[tag] for tag in sorted(weights.per_dataset)}
        payload["sampled_media"] = sample_media(weights, args.sample_count, seed)
    return RunOutputs(
        out_dir, "plan-batches", config=run_config,
        artefacts={"plan.json": _json_bytes(payload)},
        summary=f"wrote plan for {args.num_batches} batch(es) of {plan.batch_size} media to "
                f"{out_dir / 'plan.json'}\n",
        digests=_input_digests(inputs),
    )


def _cmd_check_losses(args) -> int:
    report = run_self_check(seed=args.seed)
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
    # Both paths are checked before the input is read, as _run_paths checks a run's.
    out_path = Path(args.out)
    if not Path(args.emb).exists():
        raise FileNotFoundError(f"no such file (embeddings): {args.emb}")
    if out_path.is_dir():
        raise IsADirectoryError(f"output file is a directory: {out_path}")
    target = args.format
    source = sniff_embedding_format(args.emb)
    store = load_embeddings(args.emb, format=source)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with _replacing(out_path) as tmp:
        write_embeddings(store, tmp, format=target)
    print(f"converted {len(store)} embeddings ({source} -> {target}) to {out_path}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--out", help="output directory (created if absent)")
    parser.add_argument("--seed", type=int, default=0, help="seed for the deterministic RNG")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biomeval",
        description="Detection scoring, loss self-checks, sampling plans, and "
        "closed/open-set identification metrics.",
    )
    parser.add_argument("--version", action="version", version=f"biomeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    p = sub.add_parser("eval-det", help="score detections against ground truth")
    _add_common(p)
    p.add_argument("--det", help="detections JSONL file")
    p.add_argument("--gt", help="ground-truth JSONL file")
    p.add_argument("--media", help="optional media-index JSONL supplying dataset tags")
    p.add_argument(
        "--iou", type=float, action="append", default=DEFAULT_IOU_THRESHOLDS,
        help=f"IoU threshold, repeatable (default {list(DEFAULT_IOU_THRESHOLDS)})",
    )
    p.add_argument("--box-format", dest="box_format", choices=BOX_FORMATS, default="xywh")
    p.set_defaults(func=_cmd_eval_det)

    p = sub.add_parser("eval-id", help="closed- and open-set identification metrics")
    _add_common(p)
    p.add_argument("--emb", help="embeddings file (text JSONL or binary; format sniffed)")
    p.add_argument("--protocol", help="protocol manifest JSON")
    p.add_argument(
        "--far", type=float, action="append", default=DEFAULT_FAR_TARGETS,
        help=f"FAR target, repeatable (default {list(DEFAULT_FAR_TARGETS)})",
    )
    p.add_argument("--rank", dest="ranks", type=int, action="append", default=DEFAULT_RANKS,
                   help=f"report rank, repeatable (default {list(DEFAULT_RANKS)})")
    p.add_argument("--metric", choices=SCORE_METRICS, default="cosine")
    p.add_argument("--aggregate", choices=AGGREGATION_METHODS, default="mean")
    p.add_argument("--rank-cap", dest="rank_cap", type=int,
                   help="count a mate search failed when its rank exceeds this cap")
    p.set_defaults(func=_cmd_eval_id)

    p = sub.add_parser("plan-batches", help="emit a deterministic sampling plan")
    _add_common(p)
    p.add_argument("--media", help="media-index JSONL file")
    p.add_argument("--n", type=int, default=DEFAULT_SUBJECTS_PER_BATCH, help=f"subjects per batch (default {DEFAULT_SUBJECTS_PER_BATCH})")
    p.add_argument("--k", type=int, default=DEFAULT_MEDIA_PER_SUBJECT, help=f"media per subject (default {DEFAULT_MEDIA_PER_SUBJECT})")
    p.add_argument("--num-batches", dest="num_batches", type=int, default=1, help="batches to plan (default 1)")
    p.add_argument(
        "--stride", type=int, default=DEFAULT_STRIDE,
        help=f"frame stride; standard test strides are {list(STANDARD_TEST_STRIDES)} "
        f"(default {DEFAULT_STRIDE})",
    )
    p.add_argument("--window-length", dest="window_length", type=int, default=16,
                   help="padded window length for train mode (default 16)")
    p.add_argument("--mode", choices=MODES, default="train")
    p.add_argument("--selection", choices=SELECTIONS, default="window",
                   help="train-mode frame pick: consecutive run or uniform subset")
    p.add_argument("--sample-count", dest="sample_count", type=int,
                   help="also draw this many media via dataset-balanced weights")
    p.set_defaults(func=_cmd_plan_batches)

    p = sub.add_parser("check-losses", help="run the loss self-check suite")
    p.add_argument("--seed", type=int, default=0, help="seed for the randomized checks (default 0)")
    p.set_defaults(func=_cmd_check_losses)

    p = sub.add_parser("convert-emb", help="convert embeddings between text and binary")
    p.add_argument("--emb", required=True, help="input embeddings file (format sniffed)")
    p.add_argument("--format", required=True, choices=EMBEDDING_FORMATS, help="target format")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=_cmd_convert_emb)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result = args.func(args)
        if isinstance(result, RunOutputs):
            _write_run(result)
            result = 0
        sys.stdout.flush()
        return result
    except BrokenPipeError as exc:
        # stdout's reader has gone. Point fd 1 at devnull so the interpreter's
        # flush at exit cannot raise again (the Python docs' SIGPIPE recipe).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (BiomevalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
