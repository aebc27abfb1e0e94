"""Command-line surface for the knowledge-pool pipeline.

Subcommands: scene-gen, simulate, learn, predict, pool.  Exit codes:
0 success, 1 runtime failure, 2 usage error.  Every stochastic stage
requires an explicit --seed so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .features import RealizationConfig, load_dataset, save_dataset
from .forest import ForestParams
from .geometry import (atomic_write_text, brief, canonical_street_scene, json_field,
                       load_json, load_scene, save_scene)
from .pipeline import (FitCache, build_pool, cdf_csv, learn_positions,
                       loo_evaluate, simulate_trajectory,
                       spectrum_csv, summary_csv, trace_trajectory)
from .pool import ALPHA, BETA, GAMMA, Pool, load_pool, save_pool
from .predict import trajectory_contexts
from .propagation import path_loss


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def _apply_config(args, parser):
    """Fill unset options from the optional JSON config file.  A key may name
    any subcommand's option, so one file serves every stage; naming none is
    a usage error."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = load_json(args.config)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        parser.error("config file must hold a JSON object")
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    known = {a.dest for p in (parser, *commands.values()) for a in p._actions}
    kinds = {a.dest: bool if isinstance(a, argparse._StoreTrueAction) else a.type
             for a in parser._actions + commands[args.command]._actions}
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr not in known:
            parser.error(f"config key {brief(key)} names no option")
        if value is None or not hasattr(args, attr) or getattr(args, attr) is not None:
            continue
        try:  # a flag's kind is bool, a string option's None
            setattr(args, attr, json_field(cfg, key, kinds.get(attr) or str))
        except ValueError as exc:
            parser.error(f"config value {exc}")
    return args


def _require_seed(args, parser):
    if args.seed is None:
        parser.error("--seed is required for stochastic stages")


def _given(args, **options) -> dict:
    """{library parameter: value} of the options (named by `args` attribute)
    that the user set; the library's defaults stand for the rest."""
    return {param: getattr(args, opt) for param, opt in options.items()
            if getattr(args, opt) is not None}


def _out(args, name):
    out_dir = args.out_dir or os.curdir
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def cmd_scene_gen(args, parser) -> int:
    scene, traj = canonical_street_scene(**_given(
        args, spacing_m="spacing", frequency_hz="frequency_hz",
        reflection_loss_db="reflection_loss_db", seed="seed"))
    path = _out(args, "scene.json")
    save_scene(path, scene, traj)
    if not args.quiet:
        print(f"wrote {path}")
        print("position  state")
        for i, rx in enumerate(traj.positions, 1):
            s = path_loss(scene, rx, position_id=i)
            print(f"{i:8d}  {'LOS' if s.los else 'NLOS'}")
    return 0


def cmd_simulate(args, parser) -> int:
    _require_seed(args, parser)
    if not args.scene or not os.path.exists(args.scene):
        return _fail(f"scene file not found: {args.scene}")
    scene, traj = load_scene(args.scene)
    cfg = RealizationConfig(seed=args.seed, **_given(
        args, n_realizations="n_realizations", scatterer_jitter_sigma="scatterer_jitter",
        rx_jitter_sigma="rx_jitter"))
    rows = simulate_trajectory(scene, traj, cfg)
    path = _out(args, "dataset.csv")
    save_dataset(path, rows)
    if not args.quiet:
        print(f"wrote {path} ({len(rows)} rows)")
    return 0


def cmd_learn(args, parser) -> int:
    _require_seed(args, parser)
    for name, p in (("scene", args.scene), ("dataset", args.dataset)):
        if not p or not os.path.exists(p):
            return _fail(f"{name} file not found: {p}")
    scene, traj = load_scene(args.scene)
    rows = load_dataset(args.dataset)
    params = ForestParams(seed=args.seed, **_given(
        args, n_trees="n_trees", max_depth="max_depth", min_leaf="min_leaf",
        features_per_split="features_per_split"))
    cache = FitCache()
    knowledge = learn_positions(scene, traj, rows, params, cache=cache)
    for k in knowledge:
        if k.weights.degenerate:
            print(f"warning: position {k.position_id} has degenerate weights; "
                  "no spectrum emitted", file=sys.stderr)
    pool = Pool(forest_params=params, cache=cache, **_given(
        args, capacity="capacity", theta_high="theta_high", theta_low="theta_low"))
    contexts = trajectory_contexts(scene, traj, trace_trajectory(scene, traj))
    build_pool(rows, contexts, pool)
    spath = _out(args, "spectrum.csv")
    atomic_write_text(spath, spectrum_csv(knowledge))
    ppath = _out(args, "pool.json")
    save_pool(ppath, pool)
    if not args.quiet:
        print(f"wrote {spath} and {ppath} ({len(pool.entries)} entries)")
    return 0


def cmd_predict(args, parser) -> int:
    for name, p in (("scene", args.scene), ("dataset", args.dataset),
                    ("pool", args.pool)):
        if not p or not os.path.exists(p):
            return _fail(f"{name} file not found: {p}")
    scene, traj = load_scene(args.scene)
    rows = load_dataset(args.dataset)
    pool_tmpl = load_pool(args.pool)
    _, reports = loo_evaluate(scene, traj, rows, pool_template=pool_tmpl,
                              **_given(args, tau="tau", knn_k="k"))
    cpath = _out(args, "cdf.csv")
    atomic_write_text(cpath, cdf_csv(reports))
    spath = _out(args, "summary.csv")
    atomic_write_text(spath, summary_csv(reports))
    if not args.quiet:
        for method in sorted(reports):
            r = reports[method]
            print(f"{method}: mean={r.mean:.3f} rmse={r.rmse:.3f} "
                  f"p80={r.p80:.3f} n={len(r.errors)} capped={r.n_capped}")
        print(f"wrote {cpath} and {spath}")
    return 0


def cmd_pool(args, parser) -> int:
    pool = load_pool(args.pool_file)
    if args.action == "show":
        print(f"{len(pool.entries)} entries "
              f"(capacity {pool.capacity}, thresholds {pool.theta_low}/{pool.theta_high})")
        ids = sorted(pool.entries)
        for eid in ids:
            e = pool.entries[eid]
            state = "degenerate" if e.weights.degenerate else "ok"
            print(f"  entry {eid}: position {e.context.position_id} "
                  f"{'LOS' if e.context.los else 'NLOS'} "
                  f"utilization={e.utilization_count} {state}")
        if len(ids) > 1 and not args.quiet:
            print("similarity matrix:")
            for a, sims in zip(ids, pool.similarities()):
                print(f"  {a}: " + " ".join(f"{s:.3f}" for s in sims))
            print(f"eviction scores ({ALPHA} x max similarity (to entry) - {BETA} x "
                  f"log1p(utilization) - {GAMMA} x age rank; the highest goes first):")
            for t in pool.eviction_terms():
                print(f"  {t.entry_id}: {t.redundancy:.3f} ({t.nearest_id}) - "
                      f"{t.utilization:.3f} - {t.age:.3f} = {t.score:.3f}")
    elif args.action == "evict":
        if args.capacity is not None:
            pool = dataclasses.replace(pool, capacity=args.capacity)
        removed = pool.sort_and_evict()
        save_pool(args.pool_file, pool)
        print(f"evicted {len(removed)} entries: {removed}")
    elif args.action == "merge":
        if not args.into or not os.path.exists(args.into):
            return _fail(f"target pool not found: {args.into}")
        target = load_pool(args.into)
        outcomes = []
        for eid in sorted(pool.entries):
            e = pool.entries[eid]
            outcome, new_id = target.ingest(e.context, e.train_X, e.train_y,
                                            now=e.updated_at)
            outcomes.append((eid, outcome.value, new_id))
        save_pool(args.into, target)
        for eid, outcome, new_id in outcomes:
            print(f"entry {eid}: {outcome} -> {new_id}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rekpool", description="Radio environment knowledge pool pipeline")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic stages")
    parser.add_argument("--config", default=None, help="JSON config file; "
                        "flags override config values")
    # None marks an option as unset, so that a config file can set it
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: the current directory)")
    parser.add_argument("--quiet", action="store_true", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scene-gen", help="generate the canonical street scene")
    p.add_argument("--spacing", type=float, default=None)
    p.add_argument("--frequency-hz", type=float, default=None)
    p.add_argument("--reflection-loss-db", type=float, default=None)
    p.set_defaults(func=cmd_scene_gen)

    p = sub.add_parser("simulate", help="generate the realization dataset")
    p.add_argument("--scene", required=True)
    p.add_argument("--n-realizations", type=int, default=None)
    p.add_argument("--scatterer-jitter", type=float, default=None)
    p.add_argument("--rx-jitter", type=float, default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("learn", help="fit per-position knowledge and build the pool")
    p.add_argument("--scene", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--n-trees", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=None)
    p.add_argument("--features-per-split", type=int, default=None)
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--theta-high", type=float, default=None)
    p.add_argument("--theta-low", type=float, default=None)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("predict", help="leave-one-position-out evaluation")
    p.add_argument("--scene", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("pool", help="inspect or mutate a pool file")
    p.add_argument("action", choices=("show", "evict", "merge"))
    p.add_argument("pool_file")
    p.add_argument("--capacity", type=int, default=None)
    p.add_argument("--into", default=None, help="target pool for merge")
    p.set_defaults(func=cmd_pool)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args = _apply_config(args, parser)
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
