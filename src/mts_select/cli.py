"""Command-line front end: rank, select, eval, gen-synthetic.

Exit codes: 0 success, 1 input error (including bad flags), 2 internal
consistency failure. Diagnostics go to stderr; results go to files. Every run
writes a run.json echoing the fully resolved configuration, and any command
with a fixed seed and thread count is byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from .dataset import Dataset, load_dataset, split, write_dataset
from .distance import cached_distance_matrix
from .errors import ConsistencyError, InputError
from .evaluation import accuracy, aggregate, nn1_classify
from .graph import knn_graph, symmetrize
from .ranker import clamp_neighbors, map_features, rank_features
from .select import SUPPORT_EPSILON, select_features
from .synthetic import generate

CACHE_ENV = "MTS_SELECT_CACHE"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as InputError (exit code 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1; got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0; got {value}")
    return value


def _add_common(p: argparse.ArgumentParser, with_data: bool = True) -> None:
    if with_data:
        p.add_argument("--data", required=True, help="dataset directory")
        p.add_argument("--train-fraction", type=float, default=1.0,
                       help="stratified training fraction; 1.0 keeps every segment in training")
        p.add_argument("--dtw-window", type=_nonnegative_int, default=None,
                       help="warp band half-width for DTW (default: unconstrained)")
        p.add_argument("--znorm", action="store_true",
                       help="z-normalize each series before DTW")
        p.add_argument("--cache-dir", default=None,
                       help=f"distance cache directory (default: ${CACHE_ENV} or <out>/cache)")
    p.add_argument("--seed", type=int, default=0, help="root seed for all randomness")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="worker threads (results unaffected)")


def build_parser() -> _Parser:
    parser = _Parser(prog="mts-select", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_rank = sub.add_parser("rank", help="score and sort features by label alignment")
    _add_common(p_rank)
    p_rank.add_argument("--knn", type=int, default=10, help="neighbors per segment")
    p_rank.add_argument("--out", required=True, help="output directory")

    p_sel = sub.add_parser("select", help="select a sparse low-redundancy feature subset")
    _add_common(p_sel)
    p_sel.add_argument("--knn", type=int, default=10)
    group = p_sel.add_mutually_exclusive_group(required=True)
    group.add_argument("--lambda", dest="lam", type=float, help="sparsity penalty")
    group.add_argument("--target-size", type=int, help="bisect the penalty toward this support size")
    p_sel.add_argument("--beta", type=float, default=1.0, help="redundancy penalty weight")
    p_sel.add_argument("--penalty", choices=["mi", "cmi"], default="cmi")
    p_sel.add_argument("--nystrom", type=int, default=None,
                       help="landmark count for the approximate penalty (0 forces exact)")
    p_sel.add_argument("--dump-redundancy", action="store_true",
                       help="also write the shifted penalty matrix as redundancy.csv")
    p_sel.add_argument("--out", required=True, help="output directory")

    p_eval = sub.add_parser("eval", help="score a selection with a 1-NN classifier")
    _add_common(p_eval)
    p_eval.add_argument("--subset", required=True, help="alpha.csv or scores.csv")
    p_eval.add_argument("--top", type=int, default=None, help="keep the K best-valued features")
    p_eval.add_argument("--weighted", action="store_true",
                        help="weight each distance matrix by the subset file's value column")
    p_eval.add_argument("--aggregate", choices=["dists", "graphs"], default="dists",
                        help="sum raw distance matrices or (1 - similarity) graph complements")
    p_eval.add_argument("--knn", type=int, default=10, help="neighbors (graphs aggregation only)")
    p_eval.add_argument("--out", required=True, help="results JSON path")

    p_gen = sub.add_parser("gen-synthetic", help="write a planted synthetic dataset")
    _add_common(p_gen, with_data=False)
    p_gen.add_argument("--n", type=int, required=True, help="number of segments")
    p_gen.add_argument("--classes", type=int, required=True)
    p_gen.add_argument("--informative", type=int, required=True)
    p_gen.add_argument("--noise", type=int, required=True)
    p_gen.add_argument("--duplicate", type=int, action="append", default=[],
                       help="duplicate this feature index (repeatable)")
    p_gen.add_argument("--out", required=True, help="dataset directory to create")
    return parser


def _resolve_cache(args, out_dir: Path) -> Path:
    if getattr(args, "cache_dir", None):
        return Path(args.cache_dir)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return out_dir / "cache"


def _write_run_config(path: Path, args, cache: Path | None = None) -> None:
    """run.json: every parsed argument ("lam" as "lambda") and the resolved
    cache directory; --dump-redundancy is not echoed."""
    config = {"lambda" if k == "lam" else k: v for k, v in vars(args).items() if k != "dump_redundancy"}
    if cache is not None:
        config["cache_dir"] = str(cache)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_json(path, config)


def _write_json(path: Path, obj: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_split(args) -> Dataset:
    if not 0.0 < args.train_fraction <= 1.0:
        raise InputError(f"train fraction must be in (0, 1]; got {args.train_fraction}")
    ds = load_dataset(args.data)
    if args.train_fraction < 1.0:
        ds = split(ds, args.train_fraction, args.seed)
    return ds


def _write_scores(path: Path, ds: Dataset, scores: np.ndarray, order: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature_id", "name", "score", "rank"])
        for rank, fid in enumerate(order, start=1):
            writer.writerow([int(fid), ds.descriptors[int(fid)].name, repr(float(scores[fid])), rank])


def _cmd_rank(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = _resolve_cache(args, out_dir)
    _write_run_config(out_dir / "run.json", args, cache)
    ds = _load_split(args)
    result = rank_features(
        ds, args.knn, seed=args.seed, cache_dir=cache,
        window=args.dtw_window, znorm=args.znorm, threads=args.threads,
    )
    _write_scores(out_dir / "scores.csv", ds, result.scores, result.order)
    return 0


def _cmd_select(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = _resolve_cache(args, out_dir)
    _write_run_config(out_dir / "run.json", args, cache)
    ds = _load_split(args)
    result = select_features(
        ds, args.knn, lam=args.lam, target_size=args.target_size, beta=args.beta,
        penalty_kind=args.penalty, nystrom_s=args.nystrom, seed=args.seed,
        cache_dir=cache, window=args.dtw_window, znorm=args.znorm, threads=args.threads,
    )
    with open(out_dir / "alpha.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature_id", "name", "alpha"])
        for d in ds.descriptors:
            writer.writerow([d.id, d.name, repr(float(result.alpha[d.id]))])
    meta = {
        "lambda": result.lam,
        "beta": result.beta,
        "gamma": result.gamma,
        "penalty_kind": result.penalty_kind,
        "sweeps_used": result.solve_result.sweeps_used,
        "final_objective": float(result.solve_result.objective_trace[-1]),
        "converged": result.solve_result.converged,
    }
    _write_json(out_dir / "alpha_meta.json", meta)
    if args.dump_redundancy:
        with open(out_dir / "redundancy.csv", "w", encoding="utf-8", newline="\n") as fh:
            for row in result.penalty.values:
                fh.write(",".join(repr(float(x)) for x in row))
                fh.write("\n")
    return 0


def _read_subset(path: Path) -> tuple[str, list[tuple[int, float]]]:
    """Read (feature_id, value) pairs from alpha.csv or scores.csv."""
    if not path.is_file():
        raise InputError(f"subset file not found: {path}")
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header == ["feature_id", "name", "alpha"]:
            kind, value_col = "alpha", 2
        elif header == ["feature_id", "name", "score", "rank"]:
            kind, value_col = "scores", 2
        else:
            raise InputError(f"{path}: unrecognized subset header {header}")
        entries = []
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                entries.append((int(row[0]), float(row[value_col])))
            except (ValueError, IndexError):
                raise InputError(f"{path} row {r}: unparsable subset row") from None
    return kind, entries


def _select_subset(kind: str, entries: list[tuple[int, float]], top: int | None) -> list[tuple[int, float]]:
    if top is not None:
        if top < 1:
            raise InputError("--top must be at least 1")
        ranked = sorted(entries, key=lambda e: (-e[1], e[0]))
        chosen = ranked[:top]
    elif kind == "alpha":
        chosen = [e for e in entries if e[1] > SUPPORT_EPSILON]
    else:
        raise InputError("a scores.csv subset needs --top K")
    if not chosen:
        raise InputError("subset selection is empty")
    return sorted(chosen, key=lambda e: e[0])


def _cmd_eval(args) -> int:
    out_path = Path(args.out)
    out_dir = out_path.parent if out_path.parent != Path("") else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = _resolve_cache(args, out_dir)
    _write_run_config(out_dir / "run.json", args, cache)
    ds = _load_split(args)
    if not ds.test_ids:
        raise InputError("evaluation needs a test split; pass --train-fraction below 1.0")
    kind, entries = _read_subset(Path(args.subset))
    chosen = _select_subset(kind, entries, args.top)
    for fid, _ in chosen:
        if not 0 <= fid < ds.m:
            raise InputError(f"subset refers to unknown feature id {fid}")

    def build_matrix(fid: int) -> np.ndarray:
        dist = cached_distance_matrix(ds, fid, cache, window=args.dtw_window, znorm=args.znorm)
        if args.aggregate == "graphs":
            k = clamp_neighbors(args.knn, ds.n)
            W = symmetrize(knn_graph(dist.values, k))
            comp = 1.0 - W
            np.fill_diagonal(comp, 0.0)
            return comp
        return dist.values

    matrices = map_features(build_matrix, [fid for fid, _ in chosen], args.threads)
    weights = [v for _, v in chosen] if args.weighted else None
    combined = aggregate(matrices, weights)
    y = ds.label_codes()
    predictions = nn1_classify(combined, ds.train_ids, ds.test_ids, y)
    acc = accuracy(predictions, y[np.asarray(ds.test_ids, dtype=np.intp)])
    results = {
        "accuracy": acc,
        "n_selected": len(chosen),
        "selected_ids": [fid for fid, _ in chosen],
        "weighted": bool(args.weighted),
    }
    _write_json(out_path, results)
    return 0


def _cmd_gen(args) -> int:
    out_dir = Path(args.out)
    ds = generate(
        n=args.n, classes=args.classes, informative=args.informative,
        noise=args.noise, seed=args.seed, duplicates=tuple(args.duplicate),
    )
    write_dataset(ds, out_dir)
    _write_run_config(out_dir / "run.json", args)
    return 0


_COMMANDS = {
    "rank": _cmd_rank,
    "select": _cmd_select,
    "eval": _cmd_eval,
    "gen-synthetic": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
