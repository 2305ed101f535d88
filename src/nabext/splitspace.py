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


def _check_pattern(pattern: Pattern, arity: int):
    if len(pattern) != arity:
        raise ValueError(
            f"pattern {pattern!r} has length {len(pattern)}, map has arity {arity}"
        )
    if any(ch not in "AB" for ch in pattern):
        raise ValueError(f"pattern {pattern!r} must use letters A and B only")


def extract_component(
    f: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """The (pattern, block) component of ``f``, embedded back on the split
    space so components can be summed and compared as tensors."""
    _check_pattern(in_pattern, f.arity)
    if out_block not in ("A", "B"):
        raise ValueError(f"unknown output block {out_block!r}")
    if not f.is_uniform(split.dim):
        raise ValueError("map does not live on the split space")
    slot_ranges = [split.block_indices(ch) for ch in in_pattern]
    out_range = split.block_indices(out_block)
    entries = []
    for idxs in itertools.product(*slot_ranges):
        col = f.column(idxs)
        for k in out_range:
            if col[k] != 0:
                entries.append((k, *idxs, col[k]))
    return MultilinearMap.from_entries(
        f.field, f.source_dims, f.target_dim, entries
    )


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
    _check_pattern(in_pattern, small.arity)
    offsets = [0 if ch == "A" else split.a_dim for ch in in_pattern]
    expected = tuple(
        split.a_dim if ch == "A" else split.b_dim for ch in in_pattern
    )
    if small.source_dims != expected:
        raise ValueError(
            f"block map of shape {small.source_dims} does not match pattern {in_pattern!r}"
        )
    out_off = 0 if out_block == "A" else split.a_dim
    out_dim = split.a_dim if out_block == "A" else split.b_dim
    if small.target_dim != out_dim:
        raise ValueError("block map target does not match the output block")
    entries = [
        (entry[0] + out_off,)
        + tuple(i + off for i, off in zip(entry[1:-1], offsets))
        + (entry[-1],)
        for entry in small.entries()
    ]
    return MultilinearMap.from_entries(
        small.field, (split.dim,) * small.arity, split.dim, entries
    )


def project_block_map(
    f: MultilinearMap, split: SplitSpace, in_pattern: Pattern, out_block: str
) -> MultilinearMap:
    """Read a component of ``f`` as a map on the block factors themselves
    (inverse of :func:`embed_block_map` on its image)."""
    _check_pattern(in_pattern, f.arity)
    if not f.is_uniform(split.dim):
        raise ValueError("map does not live on the split space")
    dims = tuple(split.a_dim if ch == "A" else split.b_dim for ch in in_pattern)
    offsets = [0 if ch == "A" else split.a_dim for ch in in_pattern]
    out_off = 0 if out_block == "A" else split.a_dim
    out_dim = split.a_dim if out_block == "A" else split.b_dim

    def value(idxs: Tuple[int, ...]):
        col = f.column(tuple(i + off for i, off in zip(idxs, offsets)))
        return col[out_off : out_off + out_dim]

    return MultilinearMap.from_function(f.field, dims, out_dim, value)
