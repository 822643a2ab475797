"""Command-line interface.

Commands: compress, decompress, info, metrics, sweep, progressive.
Exit status is 0 on success, 1 on a pipeline error, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import __version__
from .codec import (_check_encode_budget, _check_search_arguments, compress,
                    decompress, decompress_with_bits, target_ratio_search)
from .errors import CarpError
from .grid import PixelGrid, load, original_region, pad, save
from .lattice import StatsLattice, build_stats
from .metrics import psnr, quality_report
from .model import Hyperparams, empirical_bayes_fit
from .stream import PRIOR_FIELDS, CompressedStream

SWEEP_COLUMNS = ["sigma", "q", "bytes", "ratio", "psnr_db", "ms_ssim",
                 "encode_ms", "decode_ms"]
PROGRESSIVE_COLUMNS = ["scales", "bits_used", "psnr_db"]


def _add_hyper_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=None,
                   help="quantizer step override (default max(sigma, 0.5))")
    for name in PRIOR_FIELDS:
        p.add_argument(f"--{name}", type=float, default=None)


def _prior_overrides(args) -> dict[str, float]:
    return {k: getattr(args, k) for k in PRIOR_FIELDS if getattr(args, k) is not None}


def _resolve_hyperparams(args, sigma: float, grid: PixelGrid,
                         stats: StatsLattice | None) -> Hyperparams:
    if args.empirical_bayes:
        hp = empirical_bayes_fit(grid, sigma, stats=stats)
    else:
        hp = Hyperparams(sigma=sigma)
    return replace(hp, **_prior_overrides(args))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"carp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress an image to a .carp stream")
    p.add_argument("input")
    p.add_argument("output")
    rate = p.add_mutually_exclusive_group(required=True)
    rate.add_argument("--sigma", type=float, help="noise scale knob")
    rate.add_argument("--target-ratio", type=float,
                      help="search sigma for this compression ratio")
    p.add_argument("--tol", type=float, default=0.1,
                   help="relative tolerance for --target-ratio")
    p.add_argument("--empirical-bayes", action="store_true",
                   help="fit alpha/beta/c/tau0/eta0 by marginal likelihood grid search")
    _add_hyper_flags(p)

    p = sub.add_parser("decompress", help="reconstruct an image from a stream")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--prefix-scales", type=int, default=None,
                   help="decode only detail scales below this count")

    p = sub.add_parser("info", help="print stream header and tree summary")
    p.add_argument("input")

    p = sub.add_parser("metrics", help="quality metrics between two images")
    p.add_argument("reference")
    p.add_argument("test")
    p.add_argument("--psnr-aggregate", choices=["global", "frame_mean"],
                   default="global")

    p = sub.add_parser("sweep", help="rate-distortion sweep writing CSV rows")
    p.add_argument("input")
    p.add_argument("output_csv")
    pts = p.add_mutually_exclusive_group(required=True)
    pts.add_argument("--sigmas", help="comma-separated sigma grid")
    pts.add_argument("--ratios", help="comma-separated target ratios")
    p.add_argument("--tol", type=float, default=0.1)
    p.add_argument("--workers", type=int, default=1)
    _add_hyper_flags(p)

    p = sub.add_parser("progressive",
                       help="decode scale prefixes, writing images and a CSV")
    p.add_argument("stream")
    p.add_argument("reference")
    p.add_argument("out_dir")
    p.add_argument("--scales", default=None,
                   help="comma-separated prefix scale counts (default 2,4,6,8,full)")

    return parser


def _load_padded(path: str) -> PixelGrid:
    return pad(load(path))


def _cmd_compress(args) -> int:
    if args.target_ratio is not None:
        _check_search_arguments(args.target_ratio, args.tol)
    grid = _load_padded(args.input)
    # check the whole encode before the hyperparameter fit sweeps the image;
    # the fit and the ratio search share one set of block statistics, and a
    # plain encode builds its own a level at a time
    _check_encode_budget(grid.dims_padded, grid.channels)
    reused = args.empirical_bayes or args.target_ratio is not None
    stats = build_stats(grid) if reused else None
    searched = ""
    if args.target_ratio is not None:
        hp_base = _resolve_hyperparams(args, sigma=1.0, grid=grid, stats=stats)
        result = target_ratio_search(grid, hp_base, args.target_ratio, tol=args.tol,
                                     stats=stats)
        stream = result.stream
        searched = f", {len(result.attempts)} encodes"
        if not result.converged:
            print(f"warning: ratio search stopped at {result.ratio:.2f}",
                  file=sys.stderr)
    else:
        hp = _resolve_hyperparams(args, sigma=args.sigma, grid=grid, stats=stats)
        stream = compress(grid, hp, q=args.q, stats=stats)
    stream.write_file(args.output)
    print(f"{args.output}: {stream.size_bytes} bytes, "
          f"ratio {stream.compression_ratio:.2f}, sigma {stream.sigma:g}{searched}")
    return 0


def _cmd_decompress(args) -> int:
    stream = CompressedStream.read_file(args.input)
    grid = decompress(stream, prefix_scales=args.prefix_scales)
    save(grid, args.output)
    print(f"{args.output}: {'x'.join(str(d) for d in grid.dims_original)}, "
          f"{grid.channels} channel(s), {grid.bit_depth}-bit")
    return 0


def _cmd_info(args) -> int:
    stream = CompressedStream.read_file(args.input)
    tree = stream.decode_tree()
    counts = tree.node_counts()
    print(f"m: {stream.m}")
    print(f"dims_original: {'x'.join(str(d) for d in stream.dims_original)}")
    print(f"dims_padded: {'x'.join(str(d) for d in stream.dims_padded)}")
    print(f"channels: {len(stream.channels)}")
    print(f"bit_depth: {stream.bit_depth}")
    print(f"sigma: {stream.sigma:g}")
    print(f"q: {stream.q:g}")
    print("hyperparams: " + " ".join(f"{name}={value:g}"
                                     for name, value in zip(PRIOR_FIELDS, stream.prior)))
    print(f"tree nodes: {counts['total']} ({counts['internal']} internal, "
          f"{counts['pruned_leaves']} pruned leaves, "
          f"{counts['atomic_leaves']} atomic leaves)")
    print(f"pruned pixel fraction: {tree.pruned_pixel_fraction():.4f}")
    print(f"stream bytes: {stream.size_bytes}")
    print(f"raw bytes: {stream.raw_bytes}")
    print(f"compression ratio: {stream.compression_ratio:.4f}")
    return 0


def _cmd_metrics(args) -> int:
    ref = load(args.reference)
    test = load(args.test)
    report = quality_report(ref, test)
    if args.psnr_aggregate == "frame_mean":
        print(f"psnr_db_frame_mean: {psnr(ref, test, aggregate='frame_mean'):.4f}")
    for line in report.lines():
        print(line)
    return 0


def _sweep_point(payload) -> dict:
    grid, kind, value, tol, q, hp_kwargs, stats = payload
    t0 = time.perf_counter()
    if kind == "sigma":
        hp = Hyperparams(sigma=value, **hp_kwargs)
        stream = compress(grid, hp, q=q)
    else:
        hp_base = Hyperparams(sigma=1.0, **hp_kwargs)
        stream = target_ratio_search(grid, hp_base, value, tol=tol, stats=stats).stream
    encode_ms = 1000.0 * (time.perf_counter() - t0)
    t0 = time.perf_counter()
    recon = decompress(stream)
    decode_ms = 1000.0 * (time.perf_counter() - t0)
    report = quality_report(original_region(grid), recon,
                            compression_ratio=stream.compression_ratio)
    return {
        "sigma": f"{stream.sigma:g}",
        "q": f"{stream.q:g}",
        "bytes": str(stream.size_bytes),
        "ratio": f"{stream.compression_ratio:.6f}",
        "psnr_db": f"{report.psnr_db:.6f}",
        "ms_ssim": f"{report.ms_ssim:.6f}" if report.ms_ssim is not None else "",
        "encode_ms": f"{encode_ms:.3f}",
        "decode_ms": f"{decode_ms:.3f}",
    }


def _cmd_sweep(args) -> int:
    if args.sigmas:
        points = [("sigma", float(v)) for v in args.sigmas.split(",") if v]
    else:
        points = [("ratio", float(v)) for v in args.ratios.split(",") if v]
    if not points:
        raise ValueError("sweep grid is empty")
    for value in [value for kind, value in points if kind == "ratio"]:
        _check_search_arguments(value, args.tol)
    grid = _load_padded(args.input)
    hp_kwargs = _prior_overrides(args)
    # check the encode before the ratio searches of one process get their one
    # shared lattice; sigma points stream theirs
    _check_encode_budget(grid.dims_padded, grid.channels)
    stats = build_stats(grid) if args.ratios and args.workers == 1 else None
    payloads = [(grid, kind, value, args.tol, args.q, hp_kwargs, stats)
                for kind, value in points]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    with open(args.output_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"{args.output_csv}: {len(rows)} rows")
    return 0


def _cmd_progressive(args) -> int:
    stream = CompressedStream.read_file(args.stream)
    ref = load(args.reference)
    n_scales = stream.n_scales
    if args.scales:
        prefixes = [int(v) for v in args.scales.split(",") if v]
    else:
        prefixes = [s for s in (2, 4, 6, 8) if s < n_scales]
    if n_scales not in prefixes:
        prefixes.append(n_scales)
    os.makedirs(args.out_dir, exist_ok=True)
    ext = ".pgm" if stream.m == 2 and len(stream.channels) == 1 else ".raw"
    rows = []
    for prefix in prefixes:
        grid, bits_used = decompress_with_bits(stream, prefix_scales=prefix)
        save(grid, os.path.join(args.out_dir, f"prefix_{prefix:02d}{ext}"))
        rows.append({
            "scales": str(prefix),
            "bits_used": str(bits_used),
            "psnr_db": f"{psnr(ref, grid):.6f}",
        })
    csv_path = os.path.join(args.out_dir, "progressive.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=PROGRESSIVE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"{csv_path}: {len(rows)} rows")
    return 0


_COMMANDS = {
    "compress": _cmd_compress,
    "decompress": _cmd_decompress,
    "info": _cmd_info,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "progressive": _cmd_progressive,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    ratio_mode = ((args.command == "compress" and args.target_ratio is not None)
                  or (args.command == "sweep" and args.ratios))
    if ratio_mode and args.q is not None:
        parser.error("--q cannot be combined with ratio targets "
                     "(the search ties q to sigma)")
    if ratio_mode and args.tau0 is not None:
        parser.error("--tau0 cannot be combined with ratio targets "
                     "(the search ties tau0 to 1/sigma)")
    if args.command == "sweep" and args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        return _COMMANDS[args.command](args)
    except (CarpError, ValueError, OSError) as exc:
        print(f"carp {args.command}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
