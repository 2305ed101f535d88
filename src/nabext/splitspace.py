"""Block components of cochains on a direct sum, and the sub-dgLa of
A-valued cochains.

For a map ``f`` on a split space, the component at input pattern
``"BA...A"`` and output block ``"A"`` is ``f`` pre- and post-composed with
the block projections; :func:`project_block_map` reads it as a map on the
block factors and :func:`embed_block_map` puts such a map back, zero
off-pattern.  This module is the one home of that block layout.

The A-valued maps (all output B components zero) form the dgLa L: a
subspace closed under the Hochschild differential of the blockwise base
product and under the Gerstenhaber bracket.  That closure is a tested
property; membership (:func:`require_in_L`) is asserted where the program
reads an element of L.
"""

from __future__ import annotations

from typing import List, Tuple

from .algebra import SplitSpace
from .cochains import MultilinearMap

Pattern = str


class MembershipError(ValueError):
    """A cochain expected to be A-valued has a nonzero B output component."""


def _block_layout(
    split: SplitSpace, in_pattern: Pattern, out_block: str, arity: int
) -> Tuple[Tuple[int, ...], List[int], range]:
    """Where a (pattern, block) pair sits in a map on ``split``: the block
    dimension of each input slot, the flat input index on the split space of
    each basis tuple of those blocks (in index order), and the output
    block's index range.  Raises ``ValueError`` for a pattern of the wrong
    length or a letter or block other than A and B."""
    if len(in_pattern) != arity:
        raise ValueError(
            f"pattern {in_pattern!r} has length {len(in_pattern)}, map has arity {arity}"
        )
    slots = tuple(split.block_indices(ch) for ch in in_pattern)
    flats = [0]
    for r in slots:
        flats = [flat * split.dim + i for flat in flats for i in r]
    return tuple(len(r) for r in slots), flats, split.block_indices(out_block)


def in_L(f: MultilinearMap, split: SplitSpace) -> bool:
    """True when every output B component of ``f`` vanishes."""
    if not f.is_uniform(split.dim) or f.target_dim != split.dim:
        raise ValueError("map does not live on the split space")
    in_size = f.input_size
    for k in split.b_indices:
        block = f.coeffs[k * in_size : (k + 1) * in_size]
        if any(c != 0 for c in block):
            return False
    return True


def require_in_L(f: MultilinearMap, split: SplitSpace, what: str = "cochain"):
    if not in_L(f, split):
        raise MembershipError(f"{what} is not A-valued on the split space")


def embed_block_map(
    small: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """Inflate a map on block factors (e.g. B (x) A -> A) to the split space,
    zero off-pattern."""
    dims, flats, out = _block_layout(split, in_pattern, out_block, small.arity)
    if small.source_dims != dims:
        raise ValueError(
            f"block map of shape {small.source_dims} does not match pattern {in_pattern!r}"
        )
    if small.target_dim != len(out):
        raise ValueError("block map target does not match the output block")
    in_size, small_in = split.dim ** small.arity, len(flats)
    buf = [small.field.zero] * (split.dim * in_size)
    for pos, c in enumerate(small.coeffs):
        if c:
            k, flat = divmod(pos, small_in)
            buf[out[k] * in_size + flats[flat]] = c
    return MultilinearMap(small.field, (split.dim,) * small.arity, split.dim, tuple(buf))


def project_block_map(
    f: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """Read a component of ``f`` as a map on the block factors themselves
    (inverse of :func:`embed_block_map` on its image): the coefficients of
    ``f`` at the block offsets, in place."""
    dims, flats, out = _block_layout(split, in_pattern, out_block, f.arity)
    if not f.is_uniform(split.dim) or f.target_dim != split.dim:
        raise ValueError("map does not live on the split space")
    in_size, coeffs = f.input_size, f.coeffs
    return MultilinearMap(
        f.field, dims, len(out), tuple(coeffs[k * in_size + flat] for k in out for flat in flats)
    )
