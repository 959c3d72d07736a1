"""Command-line front end: reproducible runs over MetaImage volume sets.

Every artifact-writing command drops ``run_config.txt`` (the fully resolved
configuration) into the directory it writes, so any output can be traced back
to the exact settings that produced it.  Exit codes: 0 success, 1 pipeline
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path

from . import patch_engine
from .config import (
    CODECS,
    DATA_ROOT,
    KEYS,
    OUTPUT_DIR,
    Key,
    RunConfig,
    apply_settings,
    load_config,
    parse_dims,
    render_config,
    resolve_data_root,
)
from .errors import ConfigError, ValidationError
from .eval_harness.folds import make_folds, save_folds
from .eval_harness.phantom import MIN_DIMS, random_phantom
from .eval_harness.report import load_report_csvs, render_report
from .eval_harness.runner import (
    image_path,
    label_path,
    load_inventory,
    preprocess_pair,
    run_experiment,
)
from .preprocess import default_slice_policy, filter_slices
from .volume_io import Vendor, check_volume_id, prob_path, read_labels, read_volume, vendor_of
from .volume_io import write_files, write_volume


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="flat key=value configuration file")
    for key in KEYS:
        if key.flag is not None:
            sub.add_argument(key.flag, dest=key.name, help=key.help)


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Config file (if any), then every flag given, each parsed by its key."""
    cfg = load_config(args.config) if args.config else RunConfig()
    given = {key.name: getattr(args, key.name) for key in KEYS if key.flag is not None}
    cfg = apply_settings(cfg, {name: text for name, text in given.items() if text is not None})
    return resolve_data_root(cfg)


def _require(cfg: RunConfig, *keys: Key) -> None:
    for key in keys:
        if key.get(cfg) is None:
            raise ConfigError(f"{key.flag} is required for this command (or set it in the config)")


def _flag_id(flag: str, text: str) -> str:
    """``text`` as the volume id (or id prefix) ``flag`` gives; a path is a usage error."""
    try:
        return check_volume_id(text, flag)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from None


def _write_config_copy(cfg: RunConfig, directory: Path) -> None:
    write_files((directory / "run_config.txt", render_config(cfg)))


def _write_report(cfg: RunConfig, entries: list, name: str) -> int:
    """Write ``entries`` as ``reports/<name>.csv`` and ``.md`` with the
    run's config beside them, and print the table."""
    table, csv_text = render_report(entries, training=cfg.training)
    out_dir = cfg.output_dir / "reports"
    write_files((out_dir / f"{name}.csv", csv_text), (out_dir / f"{name}.md", table))
    _write_config_copy(cfg, out_dir)
    print(table)
    return 0


def cmd_info(args: argparse.Namespace, cfg: RunConfig) -> int:
    for path in args.paths:
        vol = read_volume(path)
        vendor = vendor_of(vol.dims)
        name = vendor.value if vendor else "Unknown"
        w, h, d = vol.dims
        print(f"{vol.volume_id}: {name} {w}x{h}x{d}")
    return 0


def cmd_preprocess(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, DATA_ROOT, OUTPUT_DIR)
    target = cfg.working_size
    out_dir = cfg.output_dir / "volumes"
    inventory = load_inventory(cfg.data_root)
    for vendor in sorted(inventory):
        for volume_id in sorted(inventory[vendor]):
            lpath = label_path(cfg.data_root, volume_id)
            with ThreadPoolExecutor(cfg.resolved_jobs) as pool:
                vol, labels = preprocess_pair(
                    partial(read_volume, image_path(cfg.data_root, volume_id)),
                    partial(read_labels, lpath) if lpath.exists() else None,
                    cfg.preprocess, target, pool, cfg.resolved_jobs,
                )
            write_volume(vol, out_dir / f"{volume_id}.mhd")
            if labels is not None:
                write_volume(labels, out_dir / f"{volume_id}_labels.mhd")
            print(f"preprocessed {volume_id} -> {target[0]}x{target[1]}")
    _write_config_copy(cfg, out_dir)
    return 0


def cmd_folds(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, DATA_ROOT, OUTPUT_DIR)
    inventory = load_inventory(cfg.data_root)
    plan = make_folds(inventory, cfg.folds_k, cfg.seed)
    out_dir = cfg.output_dir / "folds"
    save_folds(plan, out_dir / "folds.json")
    _write_config_copy(cfg, out_dir)
    for fold in range(plan.k):
        sizes = ", ".join(
            f"{vendor}: {len(ids)}" for vendor, ids in sorted(plan.test_sets[fold].items())
        )
        print(f"fold {fold} test volumes: {sizes}")
    return 0


def _inventory_vendor(cfg: RunConfig, volume_id: str) -> Vendor | None:
    """The scanner ``inventory.json`` lists ``volume_id`` under (None for a
    name that is no ``Vendor``); an id it does not list is a usage error."""
    for name, ids in load_inventory(cfg.data_root).items():
        if volume_id in ids:
            return next((vendor for vendor in Vendor if vendor.value == name), None)
    raise ConfigError(f"volume {volume_id!r} is not listed in {cfg.data_root / 'inventory.json'}")


def cmd_patchify(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, DATA_ROOT, OUTPUT_DIR)
    _flag_id("--volume", args.volume)
    mode = cfg.depth_mode
    if args.slice is not None and mode is patch_engine.DepthMode.D3:
        raise ConfigError("--slice picks one B-scan, which --depth-mode 3d does not patch by")
    per_slice = args.slice is None and mode is not patch_engine.DepthMode.D3  # a policy picks slices
    policy = cfg.slice_policy
    if policy == "auto" and per_slice:
        policy = default_slice_policy(_inventory_vendor(cfg, args.volume))
    lpath = label_path(cfg.data_root, args.volume)
    # only the automatic policy patchifies every slice of an unlabeled volume
    if per_slice and cfg.slice_policy == "diseased_only" and not lpath.exists():
        raise ConfigError(f"--slice-policy diseased_only needs the label file {lpath}, which does not exist")
    filtered = per_slice and policy == "diseased_only" and lpath.exists()
    with ThreadPoolExecutor(cfg.resolved_jobs) as pool:
        vol, labels = preprocess_pair(
            partial(read_volume, image_path(cfg.data_root, args.volume)),
            partial(read_labels, lpath) if filtered else None, cfg.preprocess, cfg.working_size,
            pool, cfg.resolved_jobs,
        )
    if args.slice is not None and not 0 <= args.slice < vol.dims[2]:
        raise ConfigError(f"--slice {args.slice} outside volume depth {vol.dims[2]}")
    grid = cfg.grid(vol.dims[:2])
    out_dir = cfg.output_dir / "patches"

    if mode is patch_engine.DepthMode.D3:
        patches = patch_engine.extract(vol, grid)
        base = out_dir / f"{args.volume}_3d"
        patch_engine.save_patches(base, patches, grid, volume_id=args.volume)
        print(f"wrote {len(patches)} patches to {base}.raw")
    else:
        slices = range(vol.dims[2]) if args.slice is None else [args.slice]
        if labels is not None:
            slices = filter_slices(labels, "diseased_only")
        for z in slices:
            patches = patch_engine.extract(vol, grid, z)
            base = out_dir / f"{args.volume}_z{z:04d}"
            patch_engine.save_patches(base, patches, grid, volume_id=args.volume)
        print(f"wrote {len(grid.anchors)} patches for each of {len(slices)} slices")
    _write_config_copy(cfg, out_dir)
    return 0


def cmd_stitch(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, OUTPUT_DIR)
    _flag_id("--volume", args.volume)
    dims = parse_dims(args.dims, 3)
    sizes = []

    def spilled():  # read each spill only when stitch reaches it
        for base in args.predictions:
            pairs = patch_engine.load_predictions(Path(base))
            sizes.append(len(pairs))
            yield from pairs

    with ThreadPoolExecutor(cfg.resolved_jobs) as pool:
        prob = patch_engine.stitch(spilled(), cfg.grid(dims[:2]), dims[2], volume_id=args.volume, pool=pool)
    prob.validate()
    out_dir = cfg.output_dir / "predictions"
    out_path = prob_path(out_dir, args.volume)
    write_volume(prob, out_path)
    _write_config_copy(cfg, out_dir)
    print(f"stitched {sum(sizes)} patch predictions into {out_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, DATA_ROOT, OUTPUT_DIR)
    if args.fold is not None and not 0 <= args.fold < cfg.folds_k:
        raise ConfigError(f"--fold {args.fold} outside plan with k={cfg.folds_k}")
    folds = [args.fold] if args.fold is not None else range(cfg.folds_k)
    entries = []
    for fold in folds:
        entries.extend(run_experiment(cfg, fold))
    return _write_report(cfg, entries, f"evaluate_{cfg.depth_mode.value}_{cfg.variant}")


def cmd_report(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, OUTPUT_DIR)
    return _write_report(cfg, load_report_csvs(args.csvs), "report")


def cmd_synth(args: argparse.Namespace, cfg: RunConfig) -> int:
    _require(cfg, DATA_ROOT)
    dims = parse_dims(args.dims, 3)
    if any(n < low for n, low in zip(dims, MIN_DIMS)):
        raise ConfigError(f"--dims must be at least {'x'.join(map(str, MIN_DIMS))}, got {args.dims}")
    vendors = [v.strip() for v in args.vendors.split(",") if v.strip()]
    if not vendors:
        raise ConfigError("--vendors must name at least one vendor")
    # each volume id is a prefix and a number
    prefixes = [_flag_id("--vendors", vendor.lower()) for vendor in vendors]
    for i, prefix in enumerate(prefixes):
        if prefix in prefixes[:i]:
            first = vendors[prefixes.index(prefix)]
            raise ConfigError(f"--vendors {first!r} and {vendors[i]!r} both give the volume ids {prefix}_NN")
    if args.n_per_vendor < 1:
        raise ConfigError("--n-per-vendor must be >= 1")
    if args.n_blobs < 1:
        raise ConfigError("--n-blobs must be >= 1")
    root = cfg.data_root
    inventory: dict[str, list[str]] = {}
    counter = 0
    for vendor, prefix in zip(vendors, prefixes):
        ids = []
        for i in range(args.n_per_vendor):
            volume_id = f"{prefix}_{i:02d}"
            vol, labels = random_phantom(
                dims,
                seed=cfg.seed + counter,
                n_blobs=args.n_blobs,
                close_radius=max(1, cfg.close_radius),
                volume_id=volume_id,
            )
            for volume, where in ((vol, image_path), (labels, label_path)):
                write_volume(volume, where(root, volume_id))
            ids.append(volume_id)
            counter += 1
        inventory[vendor] = ids
    write_files((root / "inventory.json", json.dumps(inventory, indent=2, sort_keys=True) + "\n"))
    _write_config_copy(cfg, root)
    total = sum(len(v) for v in inventory.values())
    print(f"wrote {total} phantom volumes under {root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octpipe",
        description="Patch-based vs. full-image segmentation pipeline toolkit for OCT volumes",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    number = CODECS[int][0]  # integers as settings and report cells spell them

    p = subs.add_parser("info", help="print vendor and geometry of volumes")
    p.add_argument("paths", nargs="+", type=Path)
    _add_common(p)
    p.set_defaults(handler=cmd_info)

    p = subs.add_parser("preprocess", help="resize/denoise every inventory volume")
    _add_common(p)
    p.set_defaults(handler=cmd_preprocess)

    p = subs.add_parser("folds", help="plan cross-validation folds")
    _add_common(p)
    p.set_defaults(handler=cmd_folds)

    p = subs.add_parser("patchify", help="extract overlapping patches to disk")
    p.add_argument("--volume", required=True, help="volume id to patchify")
    p.add_argument("--slice", type=number, help="single slice index (default: policy-selected)")
    _add_common(p)
    p.set_defaults(handler=cmd_patchify)

    p = subs.add_parser("stitch", help="stitch spilled patch predictions into a volume")
    p.add_argument("--volume", required=True, help="volume id for the output")
    p.add_argument("--dims", required=True, help="target dims as WxHxD")
    p.add_argument("--predictions", nargs="+", required=True, help="prediction spill base paths")
    _add_common(p)
    p.set_defaults(handler=cmd_stitch)

    p = subs.add_parser("evaluate", help="run the pipeline over cross-validation folds")
    p.add_argument("--fold", type=number, help="evaluate a single fold (default: all)")
    _add_common(p)
    p.set_defaults(handler=cmd_evaluate)

    p = subs.add_parser("report", help="merge evaluate CSVs into one table")
    p.add_argument("csvs", nargs="+", type=Path)
    _add_common(p)
    p.set_defaults(handler=cmd_report)

    p = subs.add_parser("synth", help="write a synthetic phantom dataset")
    p.add_argument("--dims", default="128x128x8", help="volume dims as WxHxD")
    p.add_argument("--n-per-vendor", type=number, default=3)
    p.add_argument("--vendors", default="Cirrus,Spectralis,Topcon")
    p.add_argument("--n-blobs", type=number, default=6)
    _add_common(p)
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return args.handler(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
