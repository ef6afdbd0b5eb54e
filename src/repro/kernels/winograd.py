"""Winograd convolution with a general transform-matrix generator.

The paper (Section 3.3.1) replaces hard-coded Winograd transform tables with
a *generator* able to produce the ``A``, ``B``, ``G`` matrices for any output
tile size ``n`` and kernel size ``k``.  Interpolation points follow Eq. 8:

    x * (x - f)(x + f) * (x - 2f)(x + 2f) * ...

with ``f = 0.5`` chosen to minimize numerical error.  We construct ``A^T``
and ``G`` in closed form from the points (plus the point at infinity) and
solve for ``B^T`` exactly over the rationals from the bilinear-algorithm
identity, so the generated algorithm is *exact* up to float rounding:

    sum_l  AT[j, l] * G[l, c] * BT[l, i]  ==  1  iff  i == j + c   (else 0)

which is precisely the statement "y = A^T [(G g) . (B^T d)] computes the
valid correlation of d with g".

The 2-D convolution (``winograd_conv2d``) follows Figure 4: tile the input,
transform tiles with ``B^T X B``, pre-transform the kernel with ``G W G^T``
(done once at pre-inference — the "pre-computed constants" of Figure 2),
batch the Hadamard products into per-position matrix multiplications over
the channel dimension, and inverse-transform with ``A^T Y' A``.  Every stage
is a float64 GEMM on the same BLAS substrate as sliding window, and square
and rectangular kernels share one core
(:func:`winograd_conv2d_rect_with_kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from .workspace import Spec, bind_pad, carve

__all__ = [
    "WinogradTransforms",
    "axis_transforms",
    "bind_winograd_conv2d",
    "generate_transforms",
    "interpolation_points",
    "transform_kernel",
    "transform_kernel_rect",
    "winograd_conv2d",
    "winograd_conv2d_rect_with_kernel",
    "winograd_conv2d_with_kernel",
    "winograd_workspace",
    "transform_cache_entries",
    "preload_transforms",
    "clear_transform_cache",
    "transforms_to_json",
    "transforms_from_json",
]


def interpolation_points(count: int, f: Fraction = Fraction(1, 2)) -> List[Fraction]:
    """The first ``count`` points of the paper's Eq. 8 sequence.

    Sequence: ``0, f, -f, 2f, -2f, 3f, -3f, ...``
    """
    points: List[Fraction] = [Fraction(0)]
    step = 1
    while len(points) < count:
        points.append(f * step)
        if len(points) < count:
            points.append(-f * step)
        step += 1
    return points[:count]


def _solve_exact(rows: List[List[Fraction]], rhs: List[List[Fraction]]) -> List[List[Fraction]]:
    """Solve the (possibly overdetermined but consistent) system M X = R exactly.

    Gaussian elimination over ``Fraction``; raises ``ValueError`` if the
    system is inconsistent or rank-deficient.
    """
    n_rows = len(rows)
    n_cols = len(rows[0])
    n_rhs = len(rhs[0])
    aug = [rows[i] + rhs[i] for i in range(n_rows)]
    pivot_row = 0
    pivot_cols = []
    for col in range(n_cols):
        pivot = next(
            (r for r in range(pivot_row, n_rows) if aug[r][col] != 0), None
        )
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        factor = aug[pivot_row][col]
        aug[pivot_row] = [v / factor for v in aug[pivot_row]]
        for r in range(n_rows):
            if r != pivot_row and aug[r][col] != 0:
                scale = aug[r][col]
                aug[r] = [a - scale * b for a, b in zip(aug[r], aug[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == n_rows:
            break
    if len(pivot_cols) < n_cols:
        raise ValueError("Winograd system is rank-deficient; pick distinct points")
    # Rows beyond the pivots must be all-zero (consistency).
    for r in range(len(pivot_cols), n_rows):
        if any(v != 0 for v in aug[r]):
            raise ValueError("Winograd system inconsistent; generator invariant broken")
    solution = [[Fraction(0)] * n_rhs for _ in range(n_cols)]
    for r, col in enumerate(pivot_cols):
        solution[col] = aug[r][n_cols:]
    return solution


@dataclass(frozen=True)
class WinogradTransforms:
    """Generated transform matrices for F(n x n, k x k).

    Attributes:
        n: output tile size.
        k: kernel size.
        t: input tile size ``n + k - 1`` (= number of multiplies per 1-D tile).
        at: ``A^T`` of shape (n, t) — output/inverse transform.
        g: ``G`` of shape (t, k) — kernel transform.
        bt: ``B^T`` of shape (t, t) — input transform.
    """

    n: int
    k: int
    t: int
    at: np.ndarray
    g: np.ndarray
    bt: np.ndarray


#: Process-wide transform cache keyed by (n, k, f_num, f_den).  Solving for
#: the matrices is exact rational Gaussian elimination — by far the most
#: expensive part of conv pre-inference — so the cache is exposed for
#: snapshotting (``transform_cache_entries``) and re-seeding
#: (``preload_transforms``): a warm serving process restores the matrices
#: from disk instead of re-deriving them (see :mod:`repro.serving.cache`).
_TRANSFORM_CACHE: Dict[Tuple[int, int, int, int], WinogradTransforms] = {}


def _generate_cached(n: int, k: int, f_num: int, f_den: int) -> WinogradTransforms:
    key = (n, k, f_num, f_den)
    cached = _TRANSFORM_CACHE.get(key)
    if cached is None:
        cached = _TRANSFORM_CACHE.setdefault(key, _generate(n, k, f_num, f_den))
    return cached


def transform_cache_entries() -> Dict[Tuple[int, int, int, int], WinogradTransforms]:
    """A snapshot of every transform generated so far (for persistence)."""
    return dict(_TRANSFORM_CACHE)


def _check_transform(key: Tuple[int, int, int, int], tr: WinogradTransforms) -> None:
    """Raise ``ValueError`` unless ``tr``'s sizes and matrix shapes fit ``key``."""
    n, k, _, _ = key
    t = n + k - 1
    if (
        (tr.n, tr.k, tr.t) != (n, k, t)
        or tr.at.shape != (n, t)
        or tr.g.shape != (t, k)
        or tr.bt.shape != (t, t)
    ):
        raise ValueError(f"transform entry {key} does not match its matrices")


def preload_transforms(
    entries: Mapping[Tuple[int, int, int, int], WinogradTransforms],
) -> int:
    """Seed the cache with previously generated transforms.

    Returns the number of entries actually inserted (existing keys win —
    an in-process transform is never replaced by a deserialized one).

    Raises:
        ValueError: if an entry's matrices do not have the shapes its key
            implies; nothing is inserted then.
    """
    for key, tr in entries.items():
        _check_transform(key, tr)
    inserted = 0
    for key, tr in entries.items():
        if key not in _TRANSFORM_CACHE:
            _TRANSFORM_CACHE[key] = tr
            inserted += 1
    return inserted


def clear_transform_cache() -> None:
    """Drop every cached transform (tests and cold-start benchmarks)."""
    _TRANSFORM_CACHE.clear()


def transforms_to_json(
    entries: Mapping[Tuple[int, int, int, int], WinogradTransforms],
) -> List[Dict[str, Any]]:
    """JSON-serializable form of a transform-cache snapshot.

    The matrices are tiny (``t <= 10``), so nested float lists keep the
    cache file human-inspectable.
    """
    return [
        {
            "n": n, "k": k, "f_num": f_num, "f_den": f_den,
            "at": tr.at.tolist(), "g": tr.g.tolist(), "bt": tr.bt.tolist(),
        }
        for (n, k, f_num, f_den), tr in sorted(entries.items())
    ]


def transforms_from_json(
    data: Iterable[Mapping[str, Any]],
) -> Dict[Tuple[int, int, int, int], WinogradTransforms]:
    """Inverse of :func:`transforms_to_json`.

    Raises:
        ValueError: if an entry's matrices do not have the shapes its key
            implies (``KeyError``/``TypeError`` for missing or mistyped
            fields).
    """
    entries: Dict[Tuple[int, int, int, int], WinogradTransforms] = {}
    for item in data:
        n, k = int(item["n"]), int(item["k"])
        key = (n, k, int(item["f_num"]), int(item["f_den"]))
        tr = WinogradTransforms(
            n=n, k=k, t=n + k - 1,
            at=np.asarray(item["at"], dtype=np.float64),
            g=np.asarray(item["g"], dtype=np.float64),
            bt=np.asarray(item["bt"], dtype=np.float64),
        )
        _check_transform(key, tr)
        entries[key] = tr
    return entries


def _generate(n: int, k: int, f_num: int, f_den: int) -> WinogradTransforms:
    f = Fraction(f_num, f_den)
    t = n + k - 1
    points = interpolation_points(t - 1, f)
    if len(set(points)) != len(points):
        raise ValueError("interpolation points must be distinct")

    # G: rows are [1, a, a^2, ...]/N_i for finite points, then e_{k-1} for ∞.
    g_rows: List[List[Fraction]] = []
    for i, a in enumerate(points):
        norm = Fraction(1)
        for j, other in enumerate(points):
            if j != i:
                norm *= a - other
        g_rows.append([a**p / norm for p in range(k)])
    g_rows.append([Fraction(0)] * (k - 1) + [Fraction(1)])

    # A^T: columns are [1, a, a^2, ...] for finite points, e_{n-1} for ∞.
    at_rows: List[List[Fraction]] = [
        [a**j for a in points] + [Fraction(1) if j == n - 1 else Fraction(0)]
        for j in range(n)
    ]

    # Solve for B^T from the bilinear identity (see module docstring):
    # for each output column i of B^T, sum_l AT[j,l] G[l,c] BT[l,i] = [i == j+c].
    system_rows: List[List[Fraction]] = []
    rhs: List[List[Fraction]] = []
    for j in range(n):
        for c in range(k):
            system_rows.append([at_rows[j][l] * g_rows[l][c] for l in range(t)])
            rhs.append([Fraction(1) if i == j + c else Fraction(0) for i in range(t)])
    bt_cols = _solve_exact(system_rows, rhs)  # shape (t rows of solution) x t
    # _solve_exact returns X with X[l][i] = BT[l][i] (unknowns were BT[:, i]).
    bt_rows = bt_cols

    to_np = lambda rows: np.array([[float(v) for v in row] for row in rows], dtype=np.float64)
    return WinogradTransforms(n=n, k=k, t=t, at=to_np(at_rows), g=to_np(g_rows), bt=to_np(bt_rows))


def generate_transforms(n: int, k: int, f: Fraction = Fraction(1, 2)) -> WinogradTransforms:
    """Generate exact Winograd transforms for F(n x n, k x k).

    Args:
        n: output tile size (>= 1; n == 1 degenerates to direct convolution).
        k: kernel size (>= 2 for a meaningful Winograd transform).
        f: the Eq. 8 spacing scalar (default 1/2, as in the paper).

    Raises:
        ValueError: for invalid sizes.
    """
    if n < 1 or k < 1:
        raise ValueError(f"invalid Winograd sizes n={n}, k={k}")
    frac = Fraction(f)
    return _generate_cached(n, k, frac.numerator, frac.denominator)


def axis_transforms(n: int, k: int, f: Fraction = Fraction(1, 2)) -> WinogradTransforms:
    """Transforms for one axis of F(n, k); ``k == 1`` degenerates to identities.

    A k = 1 "convolution" along an axis is a scalar multiply, so its
    transforms collapse to identities with ``G = ones((n, 1))``.
    """
    if k == 1:
        eye = np.eye(n, dtype=np.float64)
        return WinogradTransforms(n=n, k=1, t=n, at=eye, g=np.ones((n, 1)), bt=eye)
    return generate_transforms(n, k, f)


def transform_kernel_rect(
    weights: np.ndarray, tr_h: WinogradTransforms, tr_w: WinogradTransforms,
) -> np.ndarray:
    """Pre-transform conv weights per axis: ``W' = G_h W G_w^T`` per (oc, ic) pair.

    Args:
        weights: (oc, ic, kh, kw) convolution kernel.
        tr_h, tr_w: per-axis transforms (:func:`axis_transforms`).

    Returns:
        (th, tw, ic, oc) transformed kernel, laid out so the Hadamard stage
        is one (tiles, ic) x (ic, oc) GEMM per tile position (Figure 4).
    """
    _, _, kh, kw = weights.shape
    if (kh, kw) != (tr_h.k, tr_w.k):
        raise ValueError(f"kernel {kh}x{kw} does not match transforms k={(tr_h.k, tr_w.k)}")
    wt = np.tensordot(tr_h.g, weights.astype(np.float64), axes=([1], [2]))  # (th, oc, ic, kw)
    wt = np.tensordot(wt, tr_w.g, axes=([3], [1]))  # (th, oc, ic, tw)
    return np.ascontiguousarray(wt.transpose(0, 3, 2, 1))


def transform_kernel(weights: np.ndarray, transforms: WinogradTransforms) -> np.ndarray:
    """Pre-transform square conv weights: ``W' = G W G^T`` per (oc, ic) pair.

    Args:
        weights: (oc, ic, k, k) convolution kernel.
        transforms: matrices from :func:`generate_transforms`.

    Returns:
        (t, t, ic, oc) transformed kernel (see :func:`transform_kernel_rect`).
    """
    return transform_kernel_rect(weights, transforms, transforms)


def _winograd_geometry(x_shape, tr_h: WinogradTransforms, tr_w: WinogradTransforms, pads):
    """(oh, ow, tiles_h, tiles_w) of a stride-1 Winograd convolution."""
    _, _, ih, iw = x_shape
    top, bottom, left, right = pads
    oh = ih + top + bottom - tr_h.k + 1
    ow = iw + left + right - tr_w.k + 1
    if oh <= 0 or ow <= 0:
        raise ValueError(f"kernel ({tr_h.k},{tr_w.k}) does not fit padded input {(ih, iw)}")
    return oh, ow, -(-oh // tr_h.n), -(-ow // tr_w.n)


def winograd_workspace(
    x_shape: Tuple[int, ...],
    oc: int,
    tr_h: WinogradTransforms,
    tr_w: WinogradTransforms,
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dtype=np.float32,
) -> List[Spec]:
    """Temporaries of :func:`winograd_conv2d_rect_with_kernel`: the
    zero-bordered float64 input, the gathered tiles, the first-stage GEMM
    result of either transform, M, and the whole-tile output when it must
    be cropped."""
    batch, ic, _, _ = x_shape
    oh, ow, tiles_h, tiles_w = _winograd_geometry(x_shape, tr_h, tr_w, pads)
    (nh, kh, th), (nw, kw, tw) = (tr_h.n, tr_h.k, tr_h.t), (tr_w.n, tr_w.k, tr_w.t)
    count = batch * tiles_h * tiles_w
    f64 = np.dtype(np.float64)
    specs = [
        ((batch, tiles_h * nh + kh - 1, tiles_w * nw + kw - 1, ic), f64),
        ((th, tw, batch, tiles_h, tiles_w, ic), f64),
        ((max(th * tw * count * ic, nh * tw * count * oc),), f64),
        ((th * tw, count, oc), f64),
    ]
    if (tiles_h * nh, tiles_w * nw) != (oh, ow):
        specs.append(((batch, oc, tiles_h * nh, tiles_w * nw), np.dtype(dtype)))
    return specs


def bind_winograd_conv2d(
    x_shape: Tuple[int, ...],
    transformed_kernel: np.ndarray,
    tr_h: WinogradTransforms,
    tr_w: WinogradTransforms,
    bias: Optional[np.ndarray] = None,
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    dtype=np.float32,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Bind :func:`winograd_conv2d_rect_with_kernel` for an ``x_shape``
    input: carve the temporaries of :func:`winograd_workspace` from
    ``scratch`` (fresh when ``None``) and build every view of a run — the
    padded buffer's border and interior, its strided tile windows, each
    stage's GEMM operand and output reshapes, and the tile scatter and
    crop.  Returns the run step ``run(x)``, which writes the
    ``(N, oc, oh, ow)`` result into ``out`` (a fresh array per call when
    ``None``)."""
    nh, th = tr_h.n, tr_h.t
    nw, tw = tr_w.n, tr_w.t
    batch, ic, _, _ = x_shape
    oc = transformed_kernel.shape[3]
    top, _, left, _ = pads
    oh, ow, tiles_h, tiles_w = _winograd_geometry(x_shape, tr_h, tr_w, pads)
    xp, tiles, zbuf, m, *whole = carve(
        scratch, winograd_workspace(x_shape, oc, tr_h, tr_w, pads, dtype)
    )
    count = batch * tiles_h * tiles_w
    # Explicit conv padding plus bottom/right padding to whole tiles.
    pad = bind_pad(xp, (batch,) + tuple(x_shape[2:]) + (ic,), (0, top, left, 0))
    # tiles[b, d, (n, i, j), c] = xp[n, i * nh + b, j * nw + d, c]
    gather = np.lib.stride_tricks.sliding_window_view(xp, (th, tw), axis=(1, 2))[
        :, ::nh, ::nw].transpose(4, 5, 0, 1, 2, 3)
    # X' = B_h^T X B_w; the second GEMM overwrites the gathered tiles.
    t2, z2 = tiles.reshape(th, -1), zbuf[: tiles.size].reshape(th, -1)
    z3, t3 = z2.reshape(th, tw, -1), tiles.reshape(th, tw, -1)
    # Hadamard-as-matmul per tile position (Figure 4).
    xt, kt = tiles.reshape(th * tw, count, ic), transformed_kernel.reshape(th * tw, ic, oc)
    # Y = A_h^T M A_w; the second GEMM overwrites M, which it no longer reads.
    m2, zm2 = m.reshape(th, -1), zbuf[: nh * tw * count * oc].reshape(nh, -1)
    zm3, y3 = zm2.reshape(nh, tw, -1), m.reshape(-1)[: nh * nw * count * oc].reshape(nh, nw, -1)
    y = y3.reshape(nh, nw, batch, tiles_h, tiles_w, oc)
    # Scatter the tiles back to NCHW, casting once, then crop to (oh, ow).
    scatter = y.transpose(2, 5, 3, 0, 4, 1)

    def tiled(full: np.ndarray) -> np.ndarray:
        return full.reshape(batch, oc, tiles_h, nh, tiles_w, nw)

    full = whole[0] if whole else out
    dst = None if full is None else tiled(full)
    crop = whole[0][:, :, :oh, :ow] if whole else None

    def run(x: np.ndarray) -> np.ndarray:
        pad(x.transpose(0, 2, 3, 1))
        tiles[...] = gather
        np.matmul(tr_h.bt, t2, out=z2)
        np.matmul(tr_w.bt, z3, out=t3)
        np.matmul(xt, kt, out=m)
        np.matmul(tr_h.at, m2, out=zm2)
        np.matmul(tr_w.at, zm3, out=y3)
        if bias is not None:
            np.add(y, bias, out=y)
        result, target = out, dst
        if result is None:
            result = np.empty((batch, oc, oh, ow), dtype=dtype)
            if target is None:
                target = tiled(result)
        target[...] = scatter
        if crop is not None:
            result[...] = crop
        return result

    return run


def winograd_conv2d_rect_with_kernel(
    x: np.ndarray,
    transformed_kernel: np.ndarray,
    tr_h: WinogradTransforms,
    tr_w: WinogradTransforms,
    bias: Optional[np.ndarray] = None,
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """F(nh x nw, kh x kw) Winograd convolution given a transformed kernel.

    The one core behind every Winograd entry point.  Each stage of Figure 4
    is a float64 BLAS call on sliding window's GEMM substrate: one
    zero-bordered channels-last copy and tile gather, ``B_h^T X B_w`` as two
    (t x t) @ (t x rest) GEMMs, the Hadamard stage as one batched
    (tiles, ic) @ (ic, oc) matmul over the ``th * tw`` tile positions, and
    ``A_h^T M A_w`` as two more GEMMs.  Stride 1, dilation 1.  ``out``
    receives the (N, oc, oh, ow) result; the temporaries of
    :func:`winograd_workspace` come from ``scratch`` when it is given.
    :func:`bind_winograd_conv2d` once, then its run step once.
    """
    return bind_winograd_conv2d(x.shape, transformed_kernel, tr_h, tr_w, bias, pads, x.dtype,
                                out, scratch)(x)


def winograd_conv2d_with_kernel(
    x: np.ndarray,
    transformed_kernel: np.ndarray,
    transforms: WinogradTransforms,
    bias: Optional[np.ndarray] = None,
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    stride: Tuple[int, int] = (1, 1),
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Square Winograd convolution given an already-transformed kernel.

    Splitting kernel transformation out mirrors MNN's pre-inference: ``G W
    G^T`` is computed once per session and reused across inferences.

    Only stride 1 is supported (Winograd requires it); callers fall back to
    sliding window otherwise.  ``out`` and ``scratch`` are as for
    :func:`winograd_conv2d_rect_with_kernel`.
    """
    if stride != (1, 1):
        raise ValueError("Winograd convolution requires stride 1")
    return winograd_conv2d_rect_with_kernel(
        x, transformed_kernel, transforms, transforms, bias, pads, out, scratch)


def winograd_conv2d(
    x: np.ndarray,
    weights: np.ndarray,
    bias: Optional[np.ndarray] = None,
    tile: Tuple[int, int] = (2, 2),
    pads: Tuple[int, int, int, int] = (0, 0, 0, 0),
    stride: Tuple[int, int] = (1, 1),
    f: Fraction = Fraction(1, 2),
) -> np.ndarray:
    """Winograd convolution F(nh x nw, kh x kw) from raw weights.

    A square kernel with a square tile ``(n, n)`` is the classic
    F(n x n, k x k); asymmetric kernels like Inception's 1x7 / 7x1 get
    independent per-axis tiles and interpolation points — the generator's
    payoff beyond hard-coded tables.

    Args:
        x: (N, ic, H, W) input.
        weights: (oc, ic, kh, kw) kernel (stride 1, dilation 1).
        bias: optional (oc,) bias.
        tile: output tile ``(nh, nw)``.
        pads: explicit (top, bottom, left, right) input padding.
        f: interpolation-point spacing (Eq. 8).
    """
    if stride != (1, 1):
        raise ValueError("Winograd convolution requires stride 1")
    _, _, kh, kw = weights.shape
    tr_h, tr_w = axis_transforms(tile[0], kh, f), axis_transforms(tile[1], kw, f)
    kernel = transform_kernel_rect(weights, tr_h, tr_w)
    return winograd_conv2d_rect_with_kernel(x, kernel, tr_h, tr_w, bias, pads)
