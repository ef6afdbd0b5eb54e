"""Matrix multiplication kernels: the tiled base GEMM and Strassen on top.

The paper (Section 3.3.2) converts 1x1 convolutions to large GEMMs and
accelerates them with Strassen's algorithm, recursing only while the saved
base multiplication outweighs the extra matrix additions — its Eq. 9 for a
product ``[n, k] x [k, m] -> [n, m]``::

    n*k*m  -  7*(n/2)*(k/2)*(m/2)  >  4*(m/2)*(k/2) + 4*(n/2)*(k/2) + 7*(m/2)*(n/2)

Both the direct and the Strassen path run on the same *micro-kernel* — a
tiled GEMM whose base tile multiply stands in for MNN's hand-written
assembly kernel.  Building both on the same substrate keeps the Table 3
comparison fair: Strassen wins exactly because it issues fewer base-tile
multiplications, which is the paper's mechanism.

That substrate is Table 3's.  The engine's 1x1 conv and FC kernels call
:func:`strassen_matmul` only where :func:`strassen_recurses`; every
other product is one BLAS call, since BLAS blocks for the cache itself
and the tiles would only add a zero-fill and an accumulation pass.
:meth:`GemmStats.record_tiles` counts such a call as the substrate would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = [
    "GemmStats", "tiled_matmul", "strassen_matmul", "matmul", "strassen_should_recurse",
    "strassen_recurses",
]

#: Edge length of the micro-kernel tile.  256 floats keeps a full tile
#: triple (A, B, C) comfortably inside typical L2, mirroring MNN's choice of
#: a cache-resident base kernel.
DEFAULT_TILE = 256


@dataclass
class GemmStats:
    """Instrumentation collected while running a GEMM kernel.

    Attributes:
        base_multiplies: number of micro-kernel (tile x tile) multiplies.
        mul_elements: total scalar multiplications issued to the micro-kernel
            (the paper's ``MUL`` complexity measure).
        add_elements: scalar additions spent on Strassen's extra matrix
            additions (zero for the direct path).
        max_depth: deepest Strassen recursion level reached.
    """

    base_multiplies: int = 0
    mul_elements: int = 0
    add_elements: int = 0
    max_depth: int = 0

    def record_base(self, n: int, k: int, m: int) -> None:
        self.base_multiplies += 1
        self.mul_elements += n * k * m

    def record_tiles(self, n: int, k: int, m: int, tile: int = DEFAULT_TILE) -> None:
        """Count ``[n, k] x [k, m]`` as :func:`tiled_matmul` issues it:
        one base multiply per ``tile``-blocked (row, inner, column) triple."""
        self.base_multiplies += -(-n // tile) * -(-k // tile) * -(-m // tile)
        self.mul_elements += n * k * m

    def record_adds(self, count: int) -> None:
        self.add_elements += count


def tiled_matmul(
    a: np.ndarray,
    b: np.ndarray,
    tile: int = DEFAULT_TILE,
    stats: Optional[GemmStats] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Blocked GEMM: C = A @ B computed tile by tile.

    This is the "direct multiplication" baseline of Table 3.  Each
    ``tile x tile`` block product is one micro-kernel invocation, written
    into one reused tile temporary and accumulated into C.  ``out``, an
    ``(n, m)`` C-contiguous array, receives C instead of a fresh array.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    n, k = a.shape
    _, m = b.shape
    dtype = np.result_type(a.dtype, b.dtype)
    if out is None:
        out = np.zeros((n, m), dtype=dtype)
    else:
        out[...] = 0
    buf = np.empty(min(tile, n) * min(tile, m), dtype=dtype)
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        for j0 in range(0, m, tile):
            j1 = min(j0 + tile, m)
            acc = out[i0:i1, j0:j1]
            prod = buf[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            for p0 in range(0, k, tile):
                p1 = min(p0 + tile, k)
                acc += np.matmul(a[i0:i1, p0:p1], b[p0:p1, j0:j1], out=prod)
                if stats is not None:
                    stats.record_base(i1 - i0, p1 - p0, j1 - j0)
    return out


def strassen_should_recurse(n: int, k: int, m: int) -> bool:
    """The paper's Eq. 9 recursion gate for ``[n, k] x [k, m]``.

    Recursion continues only while the multiplications saved exceed the cost
    of the extra matrix additions.
    """
    saved = n * k * m - 7 * (n // 2) * (k // 2) * (m // 2)
    extra = 4 * (m // 2) * (k // 2) + 4 * (n // 2) * (k // 2) + 7 * (m // 2) * (n // 2)
    return saved > extra


def strassen_recurses(n: int, k: int, m: int, tile: int = DEFAULT_TILE) -> bool:
    """Whether :func:`strassen_matmul` splits ``[n, k] x [k, m]`` at all.

    Its top-level stop rule: below it the whole product goes to
    :func:`tiled_matmul` as one base-kernel GEMM, which a caller outside
    Table 3's comparison may as well issue as one BLAS call.
    """
    return min(n, k, m) > tile and strassen_should_recurse(n, k, m)


def _pad_even(x: np.ndarray) -> np.ndarray:
    """Zero-pad both dims of ``x`` up to even sizes (no-op if already even)."""
    ph = x.shape[0] % 2
    pw = x.shape[1] % 2
    if ph == 0 and pw == 0:
        return x
    return np.pad(x, ((0, ph), (0, pw)))


def _strassen(
    a: np.ndarray,
    b: np.ndarray,
    tile: int,
    stats: Optional[GemmStats],
    depth: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    n, k = a.shape
    m = b.shape[1]
    # Stop per Eq. 9, or once the sub-problem reaches micro-kernel
    # granularity (Eq. 9 alone would recurse down to 32x32, where call
    # overhead dwarfs the saved multiplications; MNN likewise bottoms out
    # at its assembly-kernel tile size — hence Table 3's "no benefit at
    # 256^3" row).
    if (
        min(n, k, m) <= tile
        or not strassen_should_recurse(n, k, m)
    ):
        return tiled_matmul(a, b, tile, stats, out)

    if stats is not None and depth + 1 > stats.max_depth:
        stats.max_depth = depth + 1

    a = _pad_even(a)
    b = _pad_even(b)
    n2, k2 = a.shape[0] // 2, a.shape[1] // 2
    m2 = b.shape[1] // 2
    a11, a12 = a[:n2, :k2], a[:n2, k2:]
    a21, a22 = a[n2:, :k2], a[n2:, k2:]
    b11, b12 = b[:k2, :m2], b[:k2, m2:]
    b21, b22 = b[k2:, :m2], b[k2:, m2:]

    if stats is not None:
        # 4 additions on A quadrants (n/2 x k/2), 4 on B quadrants
        # (k/2 x m/2), 7 recombination adds (n/2 x m/2) — the paper's Eq. 9
        # bookkeeping (we issue 8 recombinations; the inequality's 7 counts
        # the distinct M-term combinations).
        stats.record_adds(5 * n2 * k2 + 5 * k2 * m2 + 8 * n2 * m2)

    rec = lambda x, y: _strassen(x, y, tile, stats, depth + 1)
    m1 = rec(a11 + a22, b11 + b22)
    m2_ = rec(a21 + a22, b11)
    m3 = rec(a11, b12 - b22)
    m4 = rec(a22, b21 - b11)
    m5 = rec(a11 + a12, b22)
    m6 = rec(a21 - a11, b11 + b12)
    m7 = rec(a12 - a22, b21 + b22)

    top = np.hstack([m1 + m4 - m5 + m7, m3 + m5])
    bottom = np.hstack([m2_ + m4, m1 - m2_ + m3 + m6])
    full = np.vstack([top, bottom])
    if out is None:
        return full[:n, :m]
    out[...] = full[:n, :m]
    return out


def strassen_matmul(
    a: np.ndarray,
    b: np.ndarray,
    tile: int = DEFAULT_TILE,
    stats: Optional[GemmStats] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """GEMM via Strassen's algorithm with the paper's Eq. 9 stop rule.

    Falls back to :func:`tiled_matmul` for problems too small to benefit.
    ``out`` receives the product as in :func:`tiled_matmul`.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"bad GEMM shapes {a.shape} x {b.shape}")
    return _strassen(a, b, tile, stats, depth=0, out=out)


def matmul(
    a: np.ndarray,
    b: np.ndarray,
    use_strassen: bool = True,
    tile: int = DEFAULT_TILE,
    stats: Optional[GemmStats] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Dispatch a GEMM to Strassen or the direct tiled kernel.

    This mirrors MNN's behaviour: large multiplications (from 1x1 convs)
    route through Strassen automatically, everything else runs direct.
    ``out`` receives the product as in :func:`tiled_matmul`.
    """
    if use_strassen:
        return strassen_matmul(a, b, tile, stats, out)
    return tiled_matmul(a, b, tile, stats, out)
