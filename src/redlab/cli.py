"""Command-line front end.

Subcommands: ``detect`` (offset redundancy maps), ``denoise`` (threshold
NL-means), ``lattice`` (basis extraction), ``rank`` (periodicity ranking
of a directory of images) and ``sample`` (background-model draws).  Every
run writes a ``manifest.json`` capturing the resolved parameters and the
seed; rerunning with the same manifest reproduces outputs byte for byte.

Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, background, denoise, detect, imgio, lattice
from .grid import PatchDomain, laplacian

__all__ = ["main"]


def _parse_patch(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--patch wants x,y,p (got {text!r})")
    x, y, p = (int(v) for v in parts)
    if p < 1:
        raise ValueError("patch side must be >= 1")
    return x, y, p


def _read_input(path: str) -> tuple[np.ndarray, int]:
    if not Path(path).is_file():
        raise ValueError(f"input file not found: {path}")
    return imgio.read_pgm(path)


def _write_manifest(outdir: Path, command: str, params: dict, outputs: dict) -> None:
    manifest = {
        "schema": 1,
        "tool": "redlab",
        "version": __version__,
        "command": command,
        "params": params,
        "outputs": outputs,
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _cmd_detect(args) -> int:
    u, _ = _read_input(args.input)
    x, y, p = _parse_patch(args.patch)
    patch = PatchDomain(anchor=(x, y), side=p)
    if args.model == "exemplar":
        model = background.from_exemplar(u)
    else:
        model = background.white_noise(u.shape, std=float(u.std()))
    mask = None
    if args.mask is not None:
        if args.mask < 1:
            raise ValueError("--mask stride must be >= 1")
        mask = detect.stride_mask(u.shape, args.mask)
    result = detect.autosim_detection(u, patch, model, args.nfa, mask=mask)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = detect.save_detection(result, outdir)
    params = {
        "input": args.input,
        "patch": [x, y, p],
        "nfa_max": args.nfa,
        "model": args.model,
        "mask_stride": args.mask,
        "seed": args.seed,
    }
    _write_manifest(outdir, "detect", params, outputs)
    return 0


def _cmd_denoise(args) -> int:
    if args.sigma <= 0:
        raise ValueError("--sigma must be positive")
    u, maxval = _read_input(args.input)
    cfg = denoise.DenoiseConfig(
        sigma=args.sigma,
        patch_side=args.p,
        search_radius=args.c,
        nfa_max=args.nfa,
        threshold_mode=args.mode,
    )
    report = denoise.nlmeans_threshold(u, cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out_img = outdir / "denoised.pgm"
    imgio.write_pgm(out_img, report.denoised, maxval=maxval)
    stats = {
        "threshold_mean": report.threshold_mean,
        "thresholds": report.thresholds.tolist(),
        "selected_min": int(report.selected_counts.min()),
        "selected_max": int(report.selected_counts.max()),
        "selected_histogram": np.bincount(
            report.selected_counts.astype(np.int64).ravel()
        ).tolist(),
    }
    if args.clean is not None:
        clean, _ = _read_input(args.clean)
        stats["psnr_noisy_dB"] = denoise.psnr(clean, u)
        stats["psnr_denoised_dB"] = denoise.psnr(clean, report.denoised)
    (outdir / "report.json").write_text(json.dumps(stats, indent=2) + "\n")
    params = {
        "input": args.input,
        "sigma": args.sigma,
        "nfa_max": args.nfa,
        "patch_side": args.p,
        "search_radius": args.c,
        "mode": args.mode,
        "clean": args.clean,
        "seed": args.seed,
    }
    _write_manifest(
        outdir,
        "denoise",
        params,
        {"denoised": str(out_img), "report": str(outdir / "report.json")},
    )
    return 0


def _lattice_points_in_bounds(anchor, basis, shape, cap=10000):
    """Integer-combination lattice points inside the image, grown from the
    anchor by breadth-first search."""
    h, w = shape
    seen = {(0, 0)}
    frontier = [(0, 0)]
    points = []
    while frontier and len(points) < cap:
        m, n = frontier.pop()
        pt = (
            anchor[0] + m * basis[0, 0] + n * basis[1, 0],
            anchor[1] + m * basis[0, 1] + n * basis[1, 1],
        )
        if not (0 <= pt[0] < w and 0 <= pt[1] < h):
            continue
        points.append(pt)
        for dm, dn in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nxt = (m + dm, n + dn)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return points


def _cmd_lattice(args) -> int:
    u, maxval = _read_input(args.input)
    x, y, p = _parse_patch(args.patch)
    patch = PatchDomain(anchor=(x, y), side=p)
    work = laplacian(u) if args.preprocess == "laplacian" else u
    model = background.from_exemplar(work)
    result = detect.autosim_detection(work, patch, model, args.nfa)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    fit_path = outdir / "fit.json"
    overlay_path = outdir / "overlay.pgm"
    params = {
        "input": args.input,
        "patch": [x, y, p],
        "nfa_max": args.nfa,
        "preprocess": args.preprocess,
        "delta_b": args.dB,
        "delta_m": args.dM,
        "n_iter": args.iters,
        "init": args.init,
        "seed": args.seed,
    }
    try:
        graph = lattice.build_graph(result.d_map, result.as_values)
    except lattice.GraphTooSmall as exc:
        fit_path.write_text(
            json.dumps(
                {"status": "insufficient detections", "detail": str(exc)}, indent=2
            )
            + "\n"
        )
        _write_manifest(outdir, "lattice", params, {"fit": str(fit_path)})
        print(f"insufficient detections: {exc}", file=sys.stderr)
        return 0
    fit = lattice.alternate_minimization(
        graph.edge_vectors,
        args.dB,
        args.dM,
        args.iters,
        init=args.init,
        seed=args.seed,
    )
    score = lattice.c_per(fit, graph.n_components)
    payload = {
        "status": "ok",
        "n_components": graph.n_components,
        "vertices": graph.vertices.tolist(),
        "edges": graph.edges.tolist(),
        "edge_vectors": graph.edge_vectors.tolist(),
        "c_per": score if score != float("inf") else "inf",
        **fit.to_dict(),
    }
    fit_path.write_text(json.dumps(payload, indent=2) + "\n")
    overlay = u.copy()
    if not fit.degenerate:
        for px, py in _lattice_points_in_bounds((x, y), fit.basis, u.shape):
            iy, ix = int(round(py)), int(round(px))
            overlay[max(0, iy - 1) : iy + 2, max(0, ix - 1) : ix + 2] = maxval
    imgio.write_pgm(overlay_path, overlay, maxval=maxval)
    _write_manifest(
        outdir,
        "lattice",
        params,
        {"fit": str(fit_path), "overlay": str(overlay_path)},
    )
    return 0


def _cmd_rank(args) -> int:
    indir = Path(args.images)
    if not indir.is_dir():
        raise ValueError(f"not a directory: {args.images}")
    paths = sorted(indir.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm images in {args.images}")
    images = [imgio.read_pgm(p)[0] for p in paths]
    records = lattice.rank_textures(
        images,
        n_anchors=args.K,
        patch_side=args.p,
        nfa_max=args.nfa,
        delta_m=args.dM,
        delta_b=args.dB,
        n_iter=args.iters,
        seed=args.seed,
        labels=[p.name for p in paths],
    )
    for rec in records:
        rec.pop("c_per_values", None)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rank_path = outdir / "ranking.json"
    rank_path.write_text(json.dumps(records, indent=2) + "\n")
    params = {
        "images": [str(p) for p in paths],
        "K": args.K,
        "patch_side": args.p,
        "nfa_max": args.nfa,
        "delta_m": args.dM,
        "delta_b": args.dB,
        "n_iter": args.iters,
        "seed": args.seed,
    }
    _write_manifest(outdir, "rank", params, {"ranking": str(rank_path)})
    return 0


def _cmd_sample(args) -> int:
    if (args.model_from is None) == (args.white is None):
        raise ValueError("give exactly one of --model-from or --white WxH")
    offset = 0.0
    if args.model_from is not None:
        u, maxval = _read_input(args.model_from)
        model = background.from_exemplar(u)
        offset = float(u.mean())
    else:
        try:
            w, h = (int(v) for v in args.white.lower().split("x"))
        except ValueError as exc:
            raise ValueError(f"--white wants WxH (got {args.white!r})") from exc
        if w < 1 or h < 1:
            raise ValueError("--white dimensions must be positive")
        model = background.white_noise((h, w), std=args.std)
        offset = 127.5
        maxval = 255
    draw = background.sample(model, args.seed) + offset
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    out_img = outdir / "sample.pgm"
    imgio.write_pgm(out_img, draw, maxval=maxval)
    params = {
        "model_from": args.model_from,
        "white": args.white,
        "std": args.std,
        "seed": args.seed,
    }
    _write_manifest(outdir, "sample", params, {"sample": str(out_img)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redlab",
        description="Spatial redundancy detection and its applications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0, help="master 64-bit seed")

    d = sub.add_parser("detect", help="offset redundancy detection maps")
    d.add_argument("input", help="input PGM image")
    d.add_argument("--patch", required=True, help="x,y,p patch anchor and side")
    d.add_argument("--nfa", type=float, default=1.0, help="NFA budget")
    d.add_argument("--model", choices=("white", "exemplar"), default="exemplar")
    d.add_argument("--mask", type=int, default=None, help="offset stride mask")
    common(d)
    d.set_defaults(func=_cmd_detect)

    n = sub.add_parser("denoise", help="threshold NL-means denoising")
    n.add_argument("input", help="noisy PGM image")
    n.add_argument("--sigma", type=float, required=True, help="noise std (gray levels)")
    n.add_argument("--nfa", type=float, default=4.41, help="rejected-offset budget")
    n.add_argument("--p", type=int, default=8, help="patch side")
    n.add_argument("--c", type=int, default=10, help="search radius")
    n.add_argument(
        "--mode", choices=("constant-mean", "per-offset"), default="constant-mean"
    )
    n.add_argument("--clean", default=None, help="clean reference for PSNR")
    common(n)
    n.set_defaults(func=_cmd_denoise)

    la = sub.add_parser("lattice", help="lattice extraction")
    la.add_argument("input", help="input PGM image")
    la.add_argument("--patch", required=True, help="x,y,p patch anchor and side")
    la.add_argument("--nfa", type=float, default=10.0, help="NFA budget")
    la.add_argument("--preprocess", choices=("none", "laplacian"), default="none")
    la.add_argument("--dB", type=float, default=1e-2, help="basis regularizer")
    la.add_argument("--dM", type=float, default=10.0, help="coefficient regularizer")
    la.add_argument("--iters", type=int, default=10, help="optimizer iterations")
    la.add_argument("--init", choices=("median", "random"), default="median")
    common(la)
    la.set_defaults(func=_cmd_lattice)

    r = sub.add_parser("rank", help="periodicity ranking of a directory")
    r.add_argument("images", help="directory of PGM images")
    r.add_argument("--K", type=int, default=150, help="patch anchors per image")
    r.add_argument("--p", type=int, default=20, help="patch side")
    r.add_argument("--nfa", type=float, default=1.0)
    r.add_argument("--dM", type=float, default=10.0)
    r.add_argument("--dB", type=float, default=1e-2)
    r.add_argument("--iters", type=int, default=10)
    common(r)
    r.set_defaults(func=_cmd_rank)

    s = sub.add_parser("sample", help="draw from a background model")
    s.add_argument("--model-from", default=None, help="exemplar PGM image")
    s.add_argument("--white", default=None, help="white-noise dims WxH")
    s.add_argument("--std", type=float, default=50.0, help="white-noise std")
    common(s)
    s.set_defaults(func=_cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
