"""Command-line front end.

Subcommands: ``detect`` (offset redundancy maps), ``denoise`` (threshold
NL-means), ``lattice`` (basis extraction), ``rank`` (periodicity ranking
of a directory of images) and ``sample`` (background-model draws).

Output contract, the same for every run.  Commands turn the library's
arrays into outputs (JSON text, or an image writer) and write nothing:

* ``main`` encodes all JSON and the manifest, then creates ``--out`` and
  writes, so a run that fails before its writes leaves no directory; a
  write that fails removes the files the run wrote, and ``--out`` if the
  run created it;
* ``manifest.json`` (schema 2) records each option under its own name,
  the images ``rank`` read and the files written; rerunning with the
  same parameters reproduces every output byte for byte;
* JSON is strict: arrays become lists, an infinity is the string
  ``"inf"`` (``"-inf"``), and a NaN is a numerical failure.  The one
  exception is ``ranking.json``, which writes infinite scores as a bare
  ``Infinity``;
* float options must be finite, ``--c`` at least 0, and the counts
  (``--K``, ``--iters``, ``--mask``, ``--p`` and the ``p`` of ``--patch
  x,y,p``) at least 1; the parser rejects anything else.

Exit codes: 0 success, 2 invalid input, I/O error or an input too large
for memory, 3 numerical failure (a non-finite result included).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, background, denoise, detect, imgio, lattice
from .grid import PatchDomain, laplacian

__all__ = ["main"]


def _strict(obj, name: str):
    """``obj`` with arrays as lists and infinities as ``"inf"``/``"-inf"``;
    a NaN raises ``ArithmeticError`` naming the file ``name``."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _strict(value, name) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value, name) for value in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        if math.isnan(obj):
            raise ArithmeticError(f"NaN in {name}")
        return "inf" if obj > 0 else "-inf"
    return obj


def _json(obj, name: str) -> str:
    """``obj`` as the strict JSON text of the output file ``name``."""
    return json.dumps(_strict(obj, name), indent=2, allow_nan=False) + "\n"


def _pgm(image, maxval: int):
    """The writer of ``image`` as a PGM file."""
    return lambda path: imgio.write_pgm(path, image, maxval=maxval)


def finite(text: str) -> float:
    """Parser type of the float options."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def count(text: str) -> int:
    """Parser type of the count options."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def nonnegative(text: str) -> int:
    """Parser type of ``--c``, a count that may be 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_PATCH_HELP = "x,y,p patch anchor and side; write a negative anchor as --patch=-1,2,4"


def patch(text: str) -> tuple[int, int, int]:
    """Parser type of ``--patch x,y,p``: the anchor and a side of at least 1."""
    x, y, p = (int(v) for v in text.split(","))
    if p < 1:
        raise ValueError(text)
    return x, y, p


def _check_fits(path, u, p: int) -> None:
    """Raise unless the unwrapped ``--p`` windows fit in the image ``u``
    read from ``path``."""
    h, w = u.shape
    if min(h, w) < p:
        raise ValueError(f"{path}: {w}x{h} image smaller than the patch (--p {p})")


def _cmd_detect(args):
    u, _ = imgio.read_pgm(args.input)
    x, y, p = args.patch
    domain = PatchDomain(anchor=(x, y), side=p)
    if args.model == "exemplar":
        model = background.from_exemplar(u)
    else:
        model = background.white_noise(u.shape, std=float(u.std()))
    mask = None if args.mask is None else detect.stride_mask(u.shape, args.mask)
    result = detect.autosim_detection(u, domain, model, args.nfa, mask=mask)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    meta = {
        "patch": {"anchor": [x, y], "side": p},
        "nfa_max": args.nfa,
        "model": {
            "kind": model.kind,
            "dims": [u.shape[1], u.shape[0]],
            "variance": float(model.gamma[0, 0]),
        },
        "mask": None if mask is None else {"evaluated_offsets": int(mask.sum())},
        "fallback_counts": result.fallback_counts,
        "n_detected": result.n_detected,
        "warnings": result.warnings,
    }
    return {}, [
        ("p_map", "P_map.pfm", lambda path: imgio.write_pfm(path, result.p_map)),
        ("d_map", "D_map.pgm", _pgm(result.d_map * 255.0, 255)),
        ("meta", "detection.json", _json(meta, "detection.json")),
    ]


def _cmd_denoise(args):
    if args.sigma <= 0:
        raise ValueError(f"{args.input}: --sigma must be positive")
    u, maxval = imgio.read_pgm(args.input)
    _check_fits(args.input, u, args.p)
    window = (2 * args.c + 1) ** 2
    if not 0 <= args.nfa <= window:
        raise ValueError(f"{args.input}: --nfa {args.nfa} outside [0, {window}] (--c {args.c})")
    if math.isinf(args.sigma * args.sigma):
        raise ArithmeticError(f"{args.input}: --sigma {args.sigma} squared overflows")
    cfg = denoise.DenoiseConfig(
        sigma=args.sigma,
        patch_side=args.p,
        search_radius=args.c,
        nfa_max=args.nfa,
        threshold_mode=args.mode,
    )
    report = denoise.nlmeans_threshold(u, cfg)
    stats = {
        "threshold_mean": report.threshold_mean,
        "thresholds": report.thresholds,
        "selected_min": int(report.selected_counts.min()),
        "selected_max": int(report.selected_counts.max()),
        "selected_histogram": np.bincount(report.selected_counts.astype(np.int64).ravel()),
    }
    if args.clean is not None:
        clean, _ = imgio.read_pgm(args.clean)
        stats["psnr_noisy_dB"] = denoise.psnr(clean, u)
        stats["psnr_denoised_dB"] = denoise.psnr(clean, report.denoised)
    return {}, [
        ("denoised", "denoised.pgm", _pgm(report.denoised, maxval)),
        ("report", "report.json", _json(stats, "report.json")),
    ]


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


def _cmd_lattice(args):
    u, maxval = imgio.read_pgm(args.input)
    x, y, p = args.patch
    work = laplacian(u) if args.preprocess == "laplacian" else u
    model = background.from_exemplar(work)
    result = detect.autosim_detection(work, PatchDomain(anchor=(x, y), side=p), model, args.nfa)
    try:
        graph = lattice.build_graph(result.d_map, result.as_values)
    except lattice.GraphTooSmall as exc:
        print(f"insufficient detections: {exc}", file=sys.stderr)
        failed = {"status": "insufficient detections", "detail": str(exc)}
        return {}, [("fit", "fit.json", _json(failed, "fit.json"))]
    fit = lattice.alternate_minimization(
        graph.edge_vectors,
        args.dB,
        args.dM,
        args.iters,
        init=args.init,
        seed=args.seed,
    )
    payload = {
        "status": "ok",
        "n_components": graph.n_components,
        "vertices": graph.vertices,
        "edges": graph.edges,
        "edge_vectors": graph.edge_vectors,
        "c_per": lattice.c_per(fit, graph.n_components),
        **dataclasses.asdict(fit),
    }
    overlay = u.copy()
    if not fit.degenerate:
        for px, py in _lattice_points_in_bounds((x, y), fit.basis, u.shape):
            iy, ix = int(round(py)), int(round(px))
            overlay[max(0, iy - 1) : iy + 2, max(0, ix - 1) : ix + 2] = maxval
    return {}, [
        ("fit", "fit.json", _json(payload, "fit.json")),
        ("overlay", "overlay.pgm", _pgm(overlay, maxval)),
    ]


def _cmd_rank(args):
    indir = Path(args.images)
    if not indir.is_dir():
        raise ValueError(f"not a directory: {args.images}")
    paths = sorted(indir.glob("*.pgm"))
    if not paths:
        raise ValueError(f"no .pgm images in {args.images}")
    images = [imgio.read_pgm(p)[0] for p in paths]
    for path, u in zip(paths, images):
        _check_fits(path, u, args.p)
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
    # Bare ``Infinity`` scores: benchmarks/checks.py compares them as numbers.
    ranking = json.dumps(records, indent=2) + "\n"
    return {"images": [str(p) for p in paths]}, [("ranking", "ranking.json", ranking)]


def _cmd_sample(args):
    if (args.model_from is None) == (args.white is None):
        raise ValueError("give exactly one of --model-from or --white WxH")
    if args.model_from is not None:
        u, maxval = imgio.read_pgm(args.model_from)
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
    with np.errstate(over="ignore", invalid="ignore"):
        draw = background.sample(model, args.seed) + offset
    if not np.isfinite(draw).all():
        raise ArithmeticError(f"the draw overflows (--std {args.std})")
    return {}, [("sample", "sample.pgm", _pgm(draw, maxval))]


def _input_of(args) -> str:
    """The input of a command, as its command line names it."""
    if args.command == "rank":
        return args.images
    if args.command == "sample":
        return args.model_from if args.white is None else f"--white {args.white}"
    return args.input


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redlab",
        description="Spatial redundancy detection and its applications.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--out", default=".", help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=0, help="master 64-bit seed")

    d = sub.add_parser("detect", help="offset redundancy detection maps")
    d.add_argument("input", help="input PGM image")
    d.add_argument("--patch", type=patch, required=True, help=_PATCH_HELP)
    d.add_argument("--nfa", type=finite, default=1.0, help="NFA budget")
    d.add_argument("--model", choices=("white", "exemplar"), default="exemplar")
    d.add_argument("--mask", type=count, default=None, help="offset stride mask")
    common(d, seed=False)
    d.set_defaults(func=_cmd_detect)

    n = sub.add_parser("denoise", help="threshold NL-means denoising")
    n.add_argument("input", help="noisy PGM image")
    n.add_argument("--sigma", type=finite, required=True, help="noise std (gray levels)")
    n.add_argument("--nfa", type=finite, default=4.41, help="rejected-offset budget")
    n.add_argument("--p", type=count, default=8, help="patch side")
    n.add_argument("--c", type=nonnegative, default=10, help="search radius")
    n.add_argument(
        "--mode", choices=("constant-mean", "per-offset"), default="constant-mean"
    )
    n.add_argument("--clean", default=None, help="clean reference for PSNR")
    common(n, seed=False)
    n.set_defaults(func=_cmd_denoise)

    la = sub.add_parser("lattice", help="lattice extraction")
    la.add_argument("input", help="input PGM image")
    la.add_argument("--patch", type=patch, required=True, help=_PATCH_HELP)
    la.add_argument("--nfa", type=finite, default=10.0, help="NFA budget")
    la.add_argument("--preprocess", choices=("none", "laplacian"), default="none")
    la.add_argument("--dB", type=finite, default=1e-2, help="basis regularizer")
    la.add_argument("--dM", type=finite, default=10.0, help="coefficient regularizer")
    la.add_argument("--iters", type=count, default=10, help="optimizer iterations")
    la.add_argument("--init", choices=("median", "random"), default="median")
    common(la)
    la.set_defaults(func=_cmd_lattice)

    r = sub.add_parser("rank", help="periodicity ranking of a directory")
    r.add_argument("images", help="directory of PGM images")
    r.add_argument("--K", type=count, default=150, help="patch anchors per image")
    r.add_argument("--p", type=count, default=20, help="patch side")
    r.add_argument("--nfa", type=finite, default=1.0)
    r.add_argument("--dM", type=finite, default=10.0)
    r.add_argument("--dB", type=finite, default=1e-2)
    r.add_argument("--iters", type=count, default=10)
    common(r)
    r.set_defaults(func=_cmd_rank)

    s = sub.add_parser("sample", help="draw from a background model")
    s.add_argument("--model-from", default=None, help="exemplar PGM image")
    s.add_argument("--white", default=None, help="white-noise dims WxH")
    s.add_argument("--std", type=finite, default=50.0, help="white-noise std")
    common(s)
    s.set_defaults(func=_cmd_sample)
    return parser


def _write_all(outdir: Path, outputs) -> None:
    """Write each output into ``outdir``, created as needed.  If a write
    fails, remove the files this run wrote (the failing one too, unless it
    was there before) and the directories it created, then re-raise."""
    created = [d for d in (outdir, *outdir.parents) if not d.exists()]
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        for _, name, content in outputs:
            path = outdir / name
            if not path.exists():  # a file this run begins goes, even half written
                written.append(path)
            if callable(content):
                content(path)
            else:
                path.write_text(content)
            written.append(path)
    except BaseException:
        with contextlib.suppress(OSError):  # the write's error is the one to report
            for path in written:
                path.unlink(missing_ok=True)
            for d in created:  # innermost first
                d.rmdir()
        raise


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        resolved, outputs = args.func(args)
        outdir = Path(args.out)
        params = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
        manifest = {
            "schema": 2,
            "tool": "redlab",
            "version": __version__,
            "command": args.command,
            "params": {**params, **resolved},
            "outputs": {key: str(outdir / name) for key, name, _ in outputs},
        }
        outputs.append(("manifest", "manifest.json", _json(manifest, "manifest.json")))
        _write_all(outdir, outputs)
        return 0
    # LinAlgError subclasses ValueError, so numerical failures go first.
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: not enough memory for {_input_of(args)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
