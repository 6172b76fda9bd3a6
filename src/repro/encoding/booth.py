"""Canonical signed-digit (CSD) encoding, scalar and vectorized.

The scalar :func:`csd_encode` is the specification; the vectorized paths
index precomputed lookup tables over all 256 possible 8-bit significands
(bfloat16's hidden bit plus 7 stored bits), which is how the shared term
encoders of an FPRaker tile column are modelled at speed.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.terms import MAX_TERMS, TERM_SLOTS, Term
from repro.fp.bfloat16 import bf16_fields


def csd_encode(value: int) -> list[Term]:
    """Encode a non-negative integer into canonical signed-digit terms.

    The canonical (non-adjacent) form has no two consecutive nonzero
    digits and the minimal number of nonzero digits among all signed
    binary representations.

    Args:
        value: non-negative integer (for bfloat16 significands,
            ``[0, 255]``).

    Returns:
        Terms in MSB-first order (descending power).
    """
    if value < 0:
        raise ValueError(f"csd_encode expects a non-negative value, got {value}")
    terms: list[Term] = []
    x = value
    power = 0
    while x != 0:
        if x & 1:
            # Choose the digit in {-1, +1} that zeroes two trailing bits.
            if (x & 3) == 3:
                terms.append(Term(power=power, sign=-1))
                x += 1
            else:
                terms.append(Term(power=power, sign=+1))
                x -= 1
        x >>= 1
        power += 1
    terms.reverse()
    return terms


def csd_decode(terms: list[Term]) -> int:
    """Inverse of :func:`csd_encode`.

    Args:
        terms: any list of terms.

    Returns:
        The integer the terms sum to.
    """
    return sum(t.sign * (1 << t.power) for t in terms)


def terms_of_value(x: float) -> list[Term]:
    """CSD terms of a bfloat16-representable scalar's significand.

    Args:
        x: a value representable in bfloat16.

    Returns:
        Terms of the 8-bit significand, MSB-first; empty for zero.
    """
    _, _, man, is_zero = bf16_fields(x)
    if bool(is_zero):
        return []
    return csd_encode(int(man))


def _build_luts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build (count, power, sign) lookup tables over all 8-bit values."""
    count = np.zeros(256, dtype=np.int64)
    power = np.full((256, MAX_TERMS), -1, dtype=np.int64)
    sign = np.zeros((256, MAX_TERMS), dtype=np.int64)
    for v in range(256):
        terms = csd_encode(v)
        if len(terms) > MAX_TERMS:
            raise AssertionError(
                f"CSD of {v} has {len(terms)} terms; MAX_TERMS={MAX_TERMS} is wrong"
            )
        count[v] = len(terms)
        for i, t in enumerate(terms):
            power[v, i] = t.power
            sign[v, i] = t.sign
    return count, power, sign


_LUT_COUNT, _LUT_POWER, _LUT_SIGN = _build_luts()


def _man_index(values: np.ndarray) -> np.ndarray:
    """LUT index of each value's significand: ``[128, 255]``, 0 for zero.

    Reads the stored 7 significand bits straight out of the float32 bit
    pattern (bfloat16 is its upper half) and restores the hidden bit --
    exactly the significand :func:`repro.fp.softfloat.decompose`
    reconstructs for bfloat16-exact, denormal-free inputs, at a fraction
    of the frexp-based cost.  Zero values (all-zero exponent field) map
    to index 0, whose LUT rows are empty/padding.
    """
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    man = ((bits >> np.uint32(16)) & np.uint32(0x7F)) + np.uint32(128)
    nonzero = (bits >> np.uint32(23)) & np.uint32(0xFF) != 0
    return np.where(nonzero, man, np.uint32(0)).astype(np.int64)


# Alignment positions q = 7 - power per LUT slot, precomputed in int16
# for the tile schedule's hot path and stored term-major (``[slot,
# man]``) so a lookup lands in the schedule's term-major layout.
# Padding slots carry q = 8, one past any real position.
_LUT_Q16 = np.ascontiguousarray((7 - _LUT_POWER).astype(np.int16).T)


def bf16_strip_fields(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Serial-side operand fields for the tile schedule, one bit pass.

    Shares a single float32 bit-pattern extraction between the exponent
    adders' view of the operand and its CSD term expansion (the LUT
    index feeds :data:`_LUT_COUNT` and :data:`_LUT_Q16`).

    Args:
        values: bfloat16-representable array, any shape ``S`` (the tile
            schedule passes a lane-major view).

    Returns:
        ``(exp16, is_zero, man_idx)`` of shape ``S``: int16 exponents as
        the adders read them (zeros -> -127), the zero mask, and the
        intp LUT index of each significand (0 for zero values).
    """
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    field = (bits >> np.uint32(23)) & np.uint32(0xFF)
    is_zero = field == 0
    exp16 = field.astype(np.int16) - np.int16(127)
    man = ((bits >> np.uint32(16)) & np.uint32(0x7F)) + np.uint32(128)
    # Multiplying by the nonzero flag beats a select on random masks.
    man_idx = (man * ~is_zero).astype(np.intp)
    return exp16, is_zero, man_idx


def bf16_exponents16(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int16 operand exponents (zeros -> -127) plus the zero mask."""
    bits = np.ascontiguousarray(values, dtype=np.float32).view(np.uint32)
    field = (bits >> np.uint32(23)) & np.uint32(0xFF)
    return field.astype(np.int16) - np.int16(127), field == 0


def term_count(values: np.ndarray) -> np.ndarray:
    """Number of CSD terms per element of a bfloat16-representable array.

    Zero values have zero terms.

    Args:
        values: array representable in bfloat16.

    Returns:
        int64 array of the same shape.
    """
    return _LUT_COUNT[_man_index(values)]


def term_count_powers(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Lean :func:`term_positions`: counts and digit positions only.

    For timing-model callers that mask padded slots themselves (via the
    count), the sign expansion and the zero-value blanking pass of
    :func:`term_positions` are pure overhead -- this variant skips both.
    Slots at or beyond ``count`` carry the LUT's ``-1`` padding (zero
    values have ``count`` 0, so every slot of theirs is padding).

    Args:
        values: array representable in bfloat16, any shape ``S``.

    Returns:
        ``(count, power)``: int64 of shapes ``S`` and
        ``S + (MAX_TERMS,)``.
    """
    man_idx = _man_index(values)
    return _LUT_COUNT[man_idx], _LUT_POWER[man_idx]


def term_positions(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized CSD expansion of an array of bfloat16 values.

    Args:
        values: array representable in bfloat16, any shape ``S``.

    Returns:
        Tuple ``(count, power, sign)``:

        * ``count``: int64 of shape ``S`` -- terms per value (0 for zero);
        * ``power``: int64 of shape ``S + (MAX_TERMS,)`` -- digit
          positions, MSB-first, -1 padding past ``count``;
        * ``sign``: int64 of shape ``S + (MAX_TERMS,)`` -- +1/-1, with 0
          padding past ``count``.
    """
    _, _, man, is_zero = bf16_fields(values)
    man_idx = np.where(is_zero, 0, man)
    count = np.where(is_zero, 0, _LUT_COUNT[man_idx])
    power = _LUT_POWER[man_idx].copy()
    sign = _LUT_SIGN[man_idx].copy()
    # Blank out terms of zero values.
    zero_expand = np.broadcast_to(is_zero[..., None], power.shape)
    power[zero_expand] = -1
    sign[zero_expand] = 0
    return count, power, sign


def _build_partial_lut() -> np.ndarray:
    """Partial CSD sums: ``lut[v, pmin]`` = sum of terms with power >= pmin.

    ``pmin`` ranges 0..10; at 0 the full value is reconstructed, beyond
    the top digit position nothing survives.  The out-of-bounds skipping
    of the FPRaker PE drops exactly the terms below a per-product power
    cutoff, so this table vectorizes its numerical effect.
    """
    lut = np.zeros((256, 11), dtype=np.int64)
    for v in range(256):
        for t in csd_encode(v):
            lut[v, : t.power + 1] += t.sign * (1 << t.power)
    return lut


_LUT_PARTIAL = _build_partial_lut()


def partial_csd_sum(man: np.ndarray, pmin: np.ndarray) -> np.ndarray:
    """Sum of the CSD terms of ``man`` whose power is at least ``pmin``.

    Args:
        man: 8-bit significand integers (0..255), any shape.
        pmin: power cutoffs, same shape; values are clipped to [0, 10].

    Returns:
        int64 array of partial sums (terms below the cutoff dropped).
    """
    man = np.asarray(man, dtype=np.int64)
    cut = np.clip(np.asarray(pmin, dtype=np.int64), 0, 10)
    return _LUT_PARTIAL[man, cut]


def term_sparsity(values: np.ndarray) -> float:
    """Fraction of bit-parallel work that term encoding exposes as skippable.

    Defined relative to the :data:`TERM_SLOTS` = 8 bit positions a
    bit-parallel significand datapath always processes:
    ``1 - total_terms / (8 * n_values)``.

    Args:
        values: array representable in bfloat16.

    Returns:
        Term sparsity in ``[0, 1]``.
    """
    flat = np.asarray(values).ravel()
    if flat.size == 0:
        return 0.0
    total_terms = int(term_count(flat).sum())
    return 1.0 - total_terms / (TERM_SLOTS * flat.size)


def value_sparsity(values: np.ndarray) -> float:
    """Fraction of exactly-zero elements.

    Args:
        values: any numeric array.

    Returns:
        Zero fraction in ``[0, 1]``.
    """
    flat = np.asarray(values).ravel()
    if flat.size == 0:
        return 0.0
    return float(np.mean(flat == 0.0))
