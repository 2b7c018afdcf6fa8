"""Core block calculus.

A block is a positive weight vector.  Self-concatenation models cutting a
column into equal slices and restacking, a bump tiling (``Bump``) adds
weight at a sparse progression of the restacked levels, and the cyclic
partial sums S_k are the Birkhoff sums of the column labels read
cyclically.

Weights are stored as int64 multiples of a common rational ``scale``.  This
keeps all block arithmetic exact while allowing towers with millions of
levels to live in a single numpy array; floats are rejected, and no unit
arithmetic may leave the int64 range silently.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

Scalar = Union[int, Fraction]

# Guard against int64 overflow in products and sums of units: a quantity
# that may reach it is checked, or held as exact Python integers.
_INT64_SAFE = 1 << 62

_INT64_MAX = (1 << 63) - 1


class BlockError(ValueError):
    """Invalid block or invalid block operation."""


def _has_shift(units: np.ndarray, d: int) -> bool:
    """units[i] == units[i + d] for every i, compared in chunks of growing
    length so that a mismatch near the start exits early."""
    n = units.size - d
    i, step = 0, 64
    while i < n:
        j = min(n, i + step)
        if (units[i:j] != units[d + i:d + j]).any():
            return False
        i, step = j, 4 * step
    return True


def _least_period(units: np.ndarray) -> int:
    """Least p dividing h = len(units) with units == tile(units[:p], h/p).

    The divisors of h that are periods are the multiples of the least one,
    so it is found by dividing h by each prime factor for as long as the
    quotient is still a period: one comparison per prime factor power.
    """
    h = p = units.size
    n, q = h, 2
    while n > 1:
        if q * q > n:
            q = n
        if n % q == 0:
            while n % q == 0:
                n //= q
            while p % q == 0 and _has_shift(units[:p], p // q):
                p //= q
        q += 1
    return p


class Bump(NamedTuple):
    """How a bump tiling built a block: its units are ``factor`` times the
    units of ``child``, tiled, plus ``amount`` at positions spacing,
    2*spacing, ... (1-based).  ``spacing`` is a multiple of len(child).

    Given to ``Block`` by ``lemma_engine._add_bumps`` for the blocks it
    builds, and by ``skyscraper.integerize`` for the integer blocks of
    bump-tiled ones; ``self_concat`` passes it on."""

    child: "Block"
    factor: int
    amount: int
    spacing: int


class Block:
    """Positive weight vector: its units at a common rational scale.

    Positions are 1-based.  ``units`` holds the weights divided by
    ``scale``: positive int64 entries, with ``scale`` a positive Fraction;
    an int64 array is held as given, not copied.  Float units, a float
    scale and float weights raise ``BlockError``, and so does a unit total
    that leaves the int64 range.  ``bump`` is the ``Bump`` of the tiling
    that built the block, else None.  Partial sums are taken over one
    least period only, by ``period_prefix``.
    """

    __slots__ = ("units", "scale", "bump", "_period", "_total")

    def __init__(self, units: Sequence[int], scale: Scalar = 1,
                 bump: Optional[Bump] = None):
        arr = np.asarray(units)
        if arr.ndim != 1 or arr.size == 0:
            raise BlockError("block must be a nonempty vector")
        # numpy infers float64 for Python ints that fit neither int64 nor
        # uint64 together, such as [1, 2**63]; they are rejected with floats
        if arr.dtype.kind not in "iuO" or (arr.dtype.kind == "O" and not all(
                isinstance(u, (int, np.integer)) for u in arr)):
            raise BlockError(f"block units must be integers, got {arr.dtype}")
        if not isinstance(scale, Rational):
            raise BlockError(f"block scale must be rational, got {scale!r}")
        if arr.dtype.kind in "uO" and \
                not 0 < int(arr.min()) <= int(arr.max()) <= _INT64_MAX:
            raise BlockError("block units must be positive and fit int64")
        arr = arr.astype(np.int64, copy=False)
        scale = Fraction(scale)
        if scale <= 0:
            raise BlockError("scale must be positive")
        if not (arr > 0).all():
            raise BlockError("block weights must be positive")
        # no int64 sum of at most `step` units can wrap; those sums are
        # added as Python ints
        step = _INT64_MAX // int(arr.max())
        sums = np.add.reduceat(arr, np.arange(0, arr.size, step))
        total = sum(map(int, sums))
        if total > _INT64_MAX:
            raise BlockError("block unit total leaves the int64 range")
        self.units = arr
        self.scale = scale
        self.bump = bump
        self._period: Optional[int] = None
        self._total = total

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_weights(cls, weights: Sequence[Scalar]) -> "Block":
        """Build a block from rational weights."""
        if len(weights) == 0:
            raise BlockError("block must be nonempty")
        if not all(isinstance(w, Rational) for w in weights):
            raise BlockError("block weights must be rational, not float")
        fracs = [Fraction(w) for w in weights]
        den = math.lcm(*(f.denominator for f in fracs))
        units = [int(f * den) for f in fracs]
        return cls(units, Fraction(1, den))

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return int(self.units.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self.scale == other.scale:
            return bool((self.units == other.units).all())
        return self.weights() == other.weights()

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"Block({self.weights()})"
        return f"Block(h={len(self)}, E={self.mean})"

    def weights(self) -> list:
        return [self.scale * int(u) for u in self.units]

    @property
    def period(self) -> int:
        """Least p dividing h with units == tile(units[:p], h/p).

        S_k at position nu equals S_k at nu + p, so the law of S_k over the
        block is h/p copies of its law over the first p positions, and the
        deviation profile behind ``is_normalized`` is p-periodic.  Computed
        once per block, on first use.
        """
        if self._period is None:
            self._period = _least_period(self.units)
        return self._period

    def changed_count(self) -> int:
        """Number of levels whose weight differs from the tiled weights of
        the first block of the ``Bump`` chain, read off the chain.

        Each bump lands on the last level of a child copy, since the
        spacing is a multiple of len(child), and that level is already
        changed exactly when the child has a ``Bump``."""
        b = self.bump
        if b is None:
            return 0
        n = len(self) // len(b.child) * b.child.changed_count()
        return n if b.child.bump is not None else n + len(self) // b.spacing

    # -- statistics --------------------------------------------------------

    def total_units(self) -> int:
        return self._total

    def period_prefix(self) -> np.ndarray:
        """The p + 1 partial sums 0, u_1, u_1 + u_2, ... of one least period
        p, in int64: a period's total is at most the block's."""
        p = self.period
        pre = np.zeros(p + 1, dtype=np.int64)
        np.cumsum(self.units[:p], out=pre[1:])
        return pre

    @property
    def mean(self) -> Fraction:
        """E(w), the mean weight, exact."""
        return self.scale * Fraction(self.total_units(), len(self))


def self_concat(w: Block, m: int) -> Block:
    """m-fold self concatenation w^{⊙m}."""
    if m < 1:
        raise BlockError(f"self-concatenation count must be >= 1, got {m}")
    if m == 1:
        return w
    out = Block(np.tile(w.units, m), w.scale, w.bump)
    out._period = w._period
    return out


def _deviation_units(pre: np.ndarray) -> np.ndarray:
    """D(t) = h*pre[t] - t*pre[h] for t = 0..h, from the partial sums
    ``pre`` of a period h of a block w.

    S_k(w)(nu) deviates from kE(w) by (D((nu-1+k) mod h) - D(nu-1)) / h, for
    every k >= 0, because whole periods contribute exactly their mean.
    """
    h = pre.size - 1
    tot = pre[-1]
    if h * int(tot) >= _INT64_SAFE:
        t = np.arange(h + 1, dtype=object)
        return h * pre.astype(object) - t * int(tot)
    # the result and one temporary, h*pre, at a time
    dev = np.arange(h + 1, dtype=np.int64)
    dev *= -tot
    dev += h * pre
    return dev


def _window_extremes(x: np.ndarray, width: int, op) -> np.ndarray:
    """op's extreme of x[j:j+width] for j = 0..len(x)-width, exactly, with
    op np.maximum or np.minimum.

    The running max/min of van Herk and Gil-Werman: cut x into rows of
    ``width``; a window then covers a suffix of one row and a prefix of the
    next, so its extreme combines one suffix and one prefix accumulation.
    Works on int64 and object (Python int) arrays alike.  The full rows are
    accumulated through a reshaped view of x, and the partial last row, in
    which no window starts, has only its prefixes taken, so x is never
    copied.  The result is a view of the suffix buffer, written over it, so
    no third array of that size is made.
    """
    n = x.size
    full = n - n % width
    b = x[:full].reshape(-1, width)
    pre = np.empty_like(x)
    op.accumulate(b, axis=1, out=pre[:full].reshape(-1, width))
    op.accumulate(x[full:], out=pre[full:])
    # written through a reversed view, the suffixes need no copy
    suf = np.empty_like(b)
    op.accumulate(b[:, ::-1], axis=1, out=suf[:, ::-1])
    out = suf.ravel()[:n - width + 1]
    return op(out, pre[width - 1:], out=out)


def _shift_scan(dev: np.ndarray, h: int, k0: int, kk: int, violates,
                last: bool):
    """Exact scan of the shifted-deviation test over every k in [k0, kk].

    ``violates(k, m)`` decides whether amplitude m breaks the allowance at k.
    The range is cut at the multiples of h, and each piece is first tested
    against its sliding-window extremes at the smallest allowance of the
    piece; only ranges that fail the coarse test are bisected, down to
    single shifts where the test is sharp.  The leftmost range is always
    tested first, so the witness has the smallest failing k, or with
    ``last`` the rightmost, so that it has the largest.  Returns None when
    every k passes, else a witness (k, s) with s the first 0-based position
    of largest deviation at that k.
    """
    d = dev[:h]
    d2 = np.concatenate([d, d])
    stack = [(k0, kk)]
    while stack:
        k1, k2 = stack.pop()
        # keep the piece of [k1, k2] inside one period on the scan's side
        if last:
            cut = max(k1, k2 // h * h)
            if cut > k1:
                stack.append((k1, cut - 1))
                k1 = cut
        else:
            cut = min(k2, k1 // h * h + h - 1)
            if cut < k2:
                stack.append((cut + 1, k2))
                k2 = cut
        if k1 % h == 0:
            # shift 0 never deviates
            if k1 == k2:
                continue
            k1 += 1
        r1 = k1 % h
        width = k2 - k1 + 1
        # windows x[j : j+width], j = 0..h-1, of x = d2[r1 : r1+h+width-1]
        # (r1 + width <= h); each op's extremes are reduced against d
        # before the other's are made, so only one is held at a time
        x = d2[r1:r1 + h + width - 1]
        amp = max((_window_extremes(x, width, np.maximum) - d).max(),
                  (d - _window_extremes(x, width, np.minimum)).max())
        if not violates(k1, amp):
            continue
        if k1 == k2:
            diff = np.abs(d2[r1:r1 + h] - d)
            return k1, int(np.argmax(diff))
        mid = (k1 + k2) // 2
        halves = [(mid + 1, k2), (k1, mid)]
        stack.extend(halves[::-1] if last else halves)
    return None


def _tiling_failure(w: Block, eps: Scalar, last: bool):
    """Scan w's deviation profile, computed once, for the k that break
    eps-normalization of w.

    Returns (hit, t): t = eps*Sigma(w)/M(w) is w's threshold on k, exact;
    hit is None when w is eps-normalized, else ``_shift_scan``'s witness.
    Without ``last`` the scan covers the h values of k from the threshold
    on, one per residue class, so hit has the smallest failing k; with
    ``last`` it covers every k up to the point past which none fails, so
    hit has the largest failing k.  A tiling w^m has w's period and
    profile, and only its threshold m*t grows with m, so that largest k
    decides every tiling.
    """
    # all quantities are taken on one period h; Sigma(w) = (len(w)/h) * tot
    h = w.period
    reps = len(w) // h
    e = Fraction(eps)
    if e <= 0:
        raise BlockError("eps must be positive")
    a, b = e.numerator, e.denominator
    pre = w.period_prefix()
    tot, max_u = int(pre[-1]), int(w.units[:h].max())
    # Sigma and M in units: the scale cancels
    t = Fraction(a * reps * tot, b * max_u)
    k0 = max(1, math.ceil(t))
    dev = _deviation_units(pre)
    dstar = int(np.abs(dev[:h]).max())
    # no k with a*k*tot >= 2*b*dstar can fail: its allowance exceeds twice
    # the amplitude of the profile
    kstop = -((-2 * b * dstar) // (a * tot))
    if k0 >= kstop:
        return None, t
    # the deviation at k depends only on k mod h and the allowance grows
    # with k, so a failing k fails at k - h too: one residue period from
    # k0 holds a failure when any k does
    kk = kstop if last else min(k0 + h - 1, kstop)
    return _shift_scan(dev, h, k0, kk,
                       lambda k, amp: b * int(amp) > a * k * tot, last), t


def is_normalized(w: Block, eps: Scalar, witness: bool = False):
    """Decide whether S_k(w) = kE(w)(1 ± eps) for every k >= eps*Sigma(w)/M(w).

    The quantifier over all k is decided exactly: the deviation of S_k from
    kE(w) depends only on k mod p (via the deviation profile D of one
    period p = w.period), while the allowance eps*kE(w) grows with k, so it
    is enough to check the smallest admissible k in each residue class, and
    no class needs checking once the allowance exceeds twice the amplitude
    of D.

    Returns bool, or (bool, witness) with witness = (k, nu) on failure when
    ``witness`` is true; k is the smallest failing k.
    """
    hit, _ = _tiling_failure(w, eps, last=False)
    if hit is None:
        return (True, None) if witness else True
    return (False, (hit[0], hit[1] + 1)) if witness else False


def normalizing_copies(w: Block, eps: Scalar) -> int:
    """Least m with is_normalized(self_concat(w, m), eps), building no tiling.

    w^m has w's deviation profile and the threshold m*t of
    ``_tiling_failure``, so it fails exactly when the largest failing k of
    w, K, is at least ceil(m*t): one scan of w's profile finds K, and the
    least m is 1 when no k fails, else the least m with m*t > K.
    """
    hit, t = _tiling_failure(w, eps, last=True)
    return 1 if hit is None else hit[0] * t.denominator // t.numerator + 1
