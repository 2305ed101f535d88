"""Pattern components of cochains on a direct sum, and the sub-dgLa of
A-valued cochains.

For a map ``f`` on a split space, the component at input pattern
``"BA...A"`` and output block ``"A"`` is ``f`` pre- and post-composed with
the block projections, re-embedded so that it vanishes off-pattern.  The
A-valued maps (all output B components zero) form a subspace closed under
the Hochschild differential of the blockwise base product and under the
Gerstenhaber bracket; membership is asserted, not assumed.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Tuple

from .algebra import Algebra, SplitSpace
from .cochains import MultilinearMap, gerstenhaber_bracket, hochschild_delta

Pattern = str


class MembershipError(ValueError):
    """A cochain expected to be A-valued has a nonzero B output component."""


def patterns(arity: int) -> Iterable[Pattern]:
    """All 2^arity input patterns, in lexicographic A-before-B order."""
    for word in itertools.product("AB", repeat=arity):
        yield "".join(word)


def _block_layout(
    split: SplitSpace, in_pattern: Pattern, out_block: str, arity: int
) -> Tuple[Tuple[range, ...], range]:
    """The index ranges of a (pattern, block) pair on ``split``: one per
    input slot and one for the output block, each starting at its block's
    offset with its block's dimension as length.  Raises ``ValueError`` for
    a pattern of the wrong length or a letter or block other than A and B."""
    if len(in_pattern) != arity:
        raise ValueError(
            f"pattern {in_pattern!r} has length {len(in_pattern)}, map has arity {arity}"
        )
    slots = tuple(split.block_indices(ch) for ch in in_pattern)
    return slots, split.block_indices(out_block)


def extract_component(
    f: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """The (pattern, block) component of ``f``, embedded back on the split
    space so components can be summed and compared as tensors: the
    :func:`project_block_map` of ``f`` put back by :func:`embed_block_map`."""
    small = project_block_map(f, split, in_pattern, out_block)
    return embed_block_map(small, split, in_pattern, out_block)


def all_components(
    f: MultilinearMap, split: SplitSpace
) -> Dict[Tuple[Pattern, str], MultilinearMap]:
    """All ``2^(arity+1)`` embedded components, keyed by (pattern, block)."""
    return {
        (pat, block): extract_component(f, split, pat, block)
        for pat in patterns(f.arity)
        for block in "AB"
    }


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


def bidegrees(f: MultilinearMap, split: SplitSpace) -> Dict[Pattern, Tuple[int, int]]:
    """Per-pattern (number of A slots, number of B slots) for the patterns
    where ``f`` has a nonzero component."""
    out = {}
    for pat in patterns(f.arity):
        comp = extract_component(f, split, pat, "A")
        if not comp.is_zero():
            out[pat] = (pat.count("A"), pat.count("B"))
    return out


def l_delta(f: MultilinearMap, base: Algebra, split: SplitSpace) -> MultilinearMap:
    """Hochschild differential taken against the blockwise base product.

    With cross products zero, the base action of the B block on A-valued
    cochains vanishes, so the result stays A-valued; that closure is
    asserted rather than assumed.
    """
    require_in_L(f, split, "l_delta input")
    result = hochschild_delta(f, base)
    require_in_L(result, split, "l_delta output (closure violated)")
    return result


def l_bracket(
    f: MultilinearMap, g: MultilinearMap, split: SplitSpace
) -> MultilinearMap:
    """Gerstenhaber bracket of two A-valued cochains; stays A-valued."""
    require_in_L(f, split, "l_bracket left input")
    require_in_L(g, split, "l_bracket right input")
    result = gerstenhaber_bracket(f, g)
    require_in_L(result, split, "l_bracket output (closure violated)")
    return result


def embed_block_map(
    small: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """Inflate a map on block factors (e.g. B (x) A -> A) to the split space,
    zero off-pattern."""
    slots, out = _block_layout(split, in_pattern, out_block, small.arity)
    if small.source_dims != tuple(len(r) for r in slots):
        raise ValueError(
            f"block map of shape {small.source_dims} does not match pattern {in_pattern!r}"
        )
    if small.target_dim != len(out):
        raise ValueError("block map target does not match the output block")
    entries = [
        (out[k], *(r[i] for r, i in zip(slots, idxs)), coeff)
        for k, *idxs, coeff in small.entries()
    ]
    return MultilinearMap.from_entries(
        small.field, (split.dim,) * small.arity, split.dim, entries
    )


def project_block_map(
    f: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """Read a component of ``f`` as a map on the block factors themselves
    (inverse of :func:`embed_block_map` on its image)."""
    slots, out = _block_layout(split, in_pattern, out_block, f.arity)
    if not f.is_uniform(split.dim) or f.target_dim != split.dim:
        raise ValueError("map does not live on the split space")

    def value(idxs: Tuple[int, ...]):
        return f.column(tuple(r[i] for r, i in zip(slots, idxs)))[out.start : out.stop]

    return MultilinearMap.from_function(
        f.field, tuple(len(r) for r in slots), len(out), value
    )
