"""Arithmetic-mode matmul engine: fp32, bf16 baseline, FPRaker emulation.

The ``bf16`` and ``fpraker`` modes implement, vectorized over whole
matrices, exactly the arithmetic of the golden accumulator and of the
FPRaker PE functional model:

1. operands quantize to bfloat16 (RNE, no denormals);
2. the reduction proceeds in groups of 8 exact products;
3. per group, the round's maximum exponent ``emax`` is the largest
   product exponent ``Ae+Be`` or the accumulator's exponent;
4. every participant aligns (RNE) onto the grid ``2^(emax - 12)``, the
   aligned values add, and the accumulator renormalizes to its 12
   fractional bits with RNE;
5. every 64 MACs the accumulator flushes into an fp32 outer sum
   (chunk-based accumulation, Sakr et al.).

``fpraker`` differs from ``bf16`` in one place only, mirroring the
hardware: each product's serial-side significand is the sum of its CSD
terms, and terms whose aligned position falls below the accumulator's
reach are *dropped* (out-of-bounds skipping) before the lane's value is
rounded onto the grid.  Both modes gather each lane's significand from
one pre-scaled table per mode, indexed by the serial side's sign and
significand and by its alignment distance ``emax - ABe``: in
``fpraker`` mode an entry is the partial CSD sum that survives the
cut, in ``bf16`` mode the full significand, each already shifted onto
the snapping grid.  The emulation is exact with respect to the PE
functional model -- the test suite checks both modes against the
scalar references element by element.

All float64 intermediates are exact: bfloat16 products need 16
significand bits and the aligned sums under 20, far inside float64's 52.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.encoding.booth import partial_csd_sum
from repro.fp.bfloat16 import bf16_fields, bf16_quantize
from repro.fp.softfloat import round_significand

_MODES = ("fp64", "fp32", "bf16", "fpraker")
_ZERO_OPERAND_EXP = -127
_PRODUCT_FRAC_BITS = 14
# Accumulator exponent sentinel for zero: far below any product.
_EACC_ZERO = -(1 << 24)


@dataclass(frozen=True)
class EngineConfig:
    """Matmul arithmetic configuration.

    Attributes:
        mode: ``"fp64"`` (exact reference), ``"fp32"``, ``"bf16"`` or
            ``"fpraker"``.
        acc_frac_bits: accumulator fractional bits (paper: 12); also the
            out-of-bounds threshold in ``fpraker`` mode.
        chunk_size: MACs per chunk before flushing to fp32 (paper: 64).
        group: MACs per accumulation round (paper: 8, one PE group).
    """

    mode: str = "fp32"
    acc_frac_bits: int = 12
    chunk_size: int = 64
    group: int = 8

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {_MODES}")
        if self.group < 1:
            raise ValueError(f"group must be >= 1, got {self.group}")
        if self.chunk_size < self.group:
            raise ValueError(
                f"chunk_size must be >= group ({self.group}), "
                f"got {self.chunk_size}"
            )
        if self.chunk_size % self.group:
            raise ValueError("chunk_size must be a multiple of group")
        if self.acc_frac_bits < 0:
            raise ValueError(
                f"acc_frac_bits must be >= 0, got {self.acc_frac_bits}"
            )
        # A round's group-sum is an integer below group * 2^(frac + 2);
        # past 2^53 even the float64 path would round it.
        if self.group << (self.acc_frac_bits + 2) > 1 << 53:
            raise ValueError(
                f"group * 2**(acc_frac_bits + 2) must not exceed 2**53, "
                f"got group={self.group}, acc_frac_bits={self.acc_frac_bits}"
            )


class MatmulEngine:
    """Performs every MAC of the training framework under one mode.

    Args:
        config: arithmetic configuration (default: native fp32).
    """

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = config if config is not None else EngineConfig()

    @property
    def mode(self) -> str:
        """Active arithmetic mode."""
        return self.config.mode

    def quantize_tensor(self, values: np.ndarray) -> np.ndarray:
        """Quantize a tensor as it would be written to memory.

        bf16/fpraker modes store activations, weights and gradients in
        bfloat16; fp32 mode stores float32.

        Args:
            values: tensor of any shape.

        Returns:
            Quantized float64 array.
        """
        if self.config.mode == "fp64":
            return np.asarray(values, dtype=np.float64)
        if self.config.mode == "fp32":
            return np.asarray(values, dtype=np.float32).astype(np.float64)
        return bf16_quantize(values)

    def matmul(
        self, a: np.ndarray, b: np.ndarray, pre_quantized: bool = False
    ) -> np.ndarray:
        """Matrix product ``a @ b`` under the configured arithmetic.

        Args:
            a: left matrix ``[M, K]``.
            b: right matrix ``[K, N]``.
            pre_quantized: caller guarantees both operands are already
                exactly representable in the mode's storage format
                (e.g. they came through :meth:`quantize_tensor`), so
                the emulation skips its re-quantization -- quantization
                is idempotent, making this a pure fast path.

        Returns:
            float64 array ``[M, N]`` of mode-accurate results.
        """
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValueError(f"bad matmul shapes: {a.shape} @ {b.shape}")
        if self.config.mode == "fp64":
            return a @ b
        if self.config.mode == "fp32":
            return (a.astype(np.float32) @ b.astype(np.float32)).astype(np.float64)
        return self._matmul_emulated(
            a,
            b,
            fpraker=self.config.mode == "fpraker",
            pre_quantized=pre_quantized,
        )

    def _matmul_emulated(
        self,
        a: np.ndarray,
        b: np.ndarray,
        fpraker: bool,
        pre_quantized: bool = False,
    ) -> np.ndarray:
        """Chunk-vectorized emulation of the extended accumulation.

        The accumulator is serial along the reduction *within* one
        64-MAC chunk, but every chunk starts from a flushed (zero)
        register -- chunks are independent until their fp32 outer sums
        fold together in order.  So the group loop runs over the 8
        groups of a chunk only, with every full chunk advancing in
        lockstep along a chunk axis ([M, chunks, group, N] operands),
        and the sub-chunk tail runs as a single trailing chunk.  For the
        weight-gradient matmuls (reduction = batch x spatial, hundreds
        of groups) this turns hundreds of tiny-array iterations into
        eight wide ones.  Bit-identical to the serial reference
        (:meth:`_matmul_emulated_reference`, cross-checked in the test
        suite): every per-group operation is elementwise or a
        same-order reduction over the group axis, and the fp32 folds
        happen in the original chunk order.
        """
        cfg = self.config
        aq = a if pre_quantized else bf16_quantize(a)
        bq = b if pre_quantized else bf16_quantize(b)
        m_rows, k_dim = aq.shape
        n_cols = bq.shape[1]
        # Bit fields, computed once: significands with hidden bit,
        # hardware-visible exponents (-127 for zeros), sign masks.
        a_sign, a_exp, a_man, a_zero = bf16_fields(aq)
        b_sign, b_exp, b_man, b_zero = bf16_fields(bq)
        a_exp = np.where(a_zero, _ZERO_OPERAND_EXP, a_exp)
        b_exp = np.where(b_zero, _ZERO_OPERAND_EXP, b_exp)
        a_fields = (a_sign, a_exp, a_man, aq)
        b_fields = (b_sign, b_exp, b_man, bq)
        full = (k_dim // cfg.chunk_size) * cfg.chunk_size
        outer = np.zeros((m_rows, n_cols), dtype=np.float64)
        acc_tail = np.zeros((m_rows, n_cols), dtype=np.float64)
        if full:
            acc = self._accumulate_chunks(
                a_fields, b_fields, 0, full, full // cfg.chunk_size, fpraker
            )
            # Fold the chunk sums into the fp32 outer register in
            # reduction order, exactly like the serial flush points.
            for index in range(acc.shape[1]):
                outer = (
                    (outer + acc[:, index]).astype(np.float32).astype(np.float64)
                )
        if k_dim > full:
            acc_tail = self._accumulate_chunks(
                a_fields, b_fields, full, k_dim, 1, fpraker
            )[:, 0]
        return (outer + acc_tail).astype(np.float32).astype(np.float64)

    def _accumulate_chunks(
        self,
        a_fields: tuple,
        b_fields: tuple,
        k0: int,
        k1: int,
        chunks: int,
        fpraker: bool,
    ) -> np.ndarray:
        """Accumulate ``chunks`` equal reduction slices concurrently.

        Args:
            a_fields: ``(sign, exp, man, quantized)`` of the left matrix.
            b_fields: same for the right matrix.
            k0: first reduction index.
            k1: one past the last reduction index.
            chunks: equal chunks splitting ``[k0, k1)``.
            fpraker: drop out-of-bounds CSD terms of the serial side.

        Returns:
            float64 ``[M, chunks, N]`` chunk-final accumulator values.
        """
        cfg = self.config
        a_sign, a_exp, a_man, aq = a_fields
        b_sign, b_exp, b_man, bq = b_fields
        m_rows = aq.shape[0]
        n_cols = bq.shape[1]
        span = (k1 - k0) // chunks

        # The work is laid out [M, chunks, group, N], or [N, chunks,
        # group, M] when M > N: the longer matrix side on the last
        # axis gives every pass long contiguous inner loops.  Both
        # layouts run the same elementwise passes and group-axis
        # reductions, so they give identical bytes.
        flip = m_rows > n_cols

        def a_slice(field):
            part = field[:, k0:k1].reshape(m_rows, chunks, span, 1)
            return np.ascontiguousarray(
                part.transpose(3, 1, 2, 0) if flip else part
            )

        def b_slice(field):
            part = field[k0:k1].reshape(1, chunks, span, n_cols)
            return np.ascontiguousarray(
                part.transpose(3, 1, 2, 0) if flip else part
            )

        # Narrow working set, exact by construction: every heavy
        # [M, chunks, group, N] pass runs in int16 / float32 --
        #
        # * product exponents |ABe| <= 256 and accumulator exponents
        #   |e| < 1100 fit int16 (sentinel far below), and so does the
        #   table index: row * width + column < 512 * (frac + 4), with
        #   frac <= 51 by EngineConfig's group-sum bound;
        # * a table entry (at most 9 significant bits) times the
        #   parallel side's +-man_b * 2^-14 carries at most 17
        #   significand bits, exact in float32, and the table's
        #   columns keep every factor inside float32's normal range;
        # * a grid-snapped term is an integer with |t| < 2^(frac + 2),
        #   so a round's group-sum stays strictly below
        #   group * 2^(frac + 2) and is exact in float32 while that
        #   bound fits its 2^24 integer ceiling.  The gate below checks
        #   exactly that -- the paper's group of 8 runs float32 through
        #   frac_bits 19; wider accumulators or larger rounds
        #   (Pragmatic-style configs, coarse grouping sweeps) run the
        #   identical pipeline in float64.
        #
        # The serial reference keeps the float64 formulation; the
        # property suite pins this path against it bit for bit.
        frac = cfg.acc_frac_bits
        man_dtype = (
            np.float32
            if cfg.group * (1 << (frac + 2)) <= (1 << 24)
            else np.float64
        )
        # The serial side's sign and significand select its table row;
        # the row offset is precomputed so that one int16 add per round
        # completes the index.
        a_row_r = a_slice(
            ((a_man + (a_sign << 8)) * (frac + 4)).astype(np.int16)
        )
        b_signed_r = b_slice(
            np.ldexp(
                np.where(b_sign == 1, -b_man, b_man).astype(man_dtype),
                -_PRODUCT_FRAC_BITS,
            )
        )
        acc = _accumulate_chunks(
            a_slice(a_exp.astype(np.int16)),
            b_slice(b_exp.astype(np.int16)),
            a_row_r,
            b_signed_r,
            _scaled_table(fpraker, frac, man_dtype),
            frac,
            cfg.group,
            man_dtype,
        )
        return acc.transpose(2, 1, 0) if flip else acc

    def _matmul_emulated_reference(
        self, a: np.ndarray, b: np.ndarray, fpraker: bool
    ) -> np.ndarray:
        """Serial group-loop reference of :meth:`_matmul_emulated`.

        Kept (like the serial tile engine) as the bit-exactness anchor
        the chunk-vectorized path is property-tested against.
        """
        cfg = self.config
        aq = bf16_quantize(a)
        bq = bf16_quantize(b)
        m_rows, k_dim = aq.shape
        n_cols = bq.shape[1]
        a_sign, a_exp, a_man, a_zero = bf16_fields(aq)
        b_sign, b_exp, b_man, b_zero = bf16_fields(bq)
        a_exp = np.where(a_zero, _ZERO_OPERAND_EXP, a_exp)
        b_exp = np.where(b_zero, _ZERO_OPERAND_EXP, b_exp)
        outer = np.zeros((m_rows, n_cols), dtype=np.float64)
        acc = np.zeros((m_rows, n_cols), dtype=np.float64)
        macs_in_chunk = 0
        for k0 in range(0, k_dim, cfg.group):
            k1 = min(k0 + cfg.group, k_dim)
            abe = a_exp[:, k0:k1, None] + b_exp[None, k0:k1, :]
            acc_exp = _leading_exponent(acc)
            emax = np.maximum(abe.max(axis=1), acc_exp)
            grid = np.ldexp(1.0, (emax - cfg.acc_frac_bits).astype(np.int64))
            if fpraker:
                products = self._kept_products(
                    a_sign[:, k0:k1],
                    a_man[:, k0:k1],
                    b_sign[k0:k1],
                    b_man[k0:k1],
                    abe,
                    emax,
                )
            else:
                products = aq[:, k0:k1, None] * bq[None, k0:k1, :]
            aligned = np.rint(products / grid[:, None, :]) * grid[:, None, :]
            acc_aligned = np.rint(acc / grid) * grid
            acc = round_significand(
                aligned.sum(axis=1) + acc_aligned, cfg.acc_frac_bits
            )
            macs_in_chunk += k1 - k0
            if macs_in_chunk >= cfg.chunk_size:
                outer = (outer + acc).astype(np.float32).astype(np.float64)
                acc = np.zeros_like(acc)
                macs_in_chunk = 0
        return (outer + acc).astype(np.float32).astype(np.float64)

    def _kept_products(
        self,
        a_sign: np.ndarray,
        a_man: np.ndarray,
        b_sign: np.ndarray,
        b_man: np.ndarray,
        abe: np.ndarray,
        emax: np.ndarray,
    ) -> np.ndarray:
        """Products with out-of-bounds CSD terms of the A side dropped.

        A term at digit position ``p`` of the serial significand has
        alignment offset ``k = (emax - ABe) + (7 - p)``; the PE skips it
        when ``k`` exceeds the accumulator's fractional width, i.e. when
        ``p < (emax - ABe) - (acc_frac_bits - 7)`` -- for the paper's
        12-bit accumulator, ``p < s - 5`` with ``s = emax - ABe``.
        """
        s = emax[:, None, :] - abe
        pmin = s - (self.config.acc_frac_bits - _BF16_FRAC)
        kept_man = partial_csd_sum(
            np.broadcast_to(a_man[:, :, None], s.shape), pmin
        )
        sign = np.where(a_sign[:, :, None] ^ b_sign[None, :, :], -1.0, 1.0)
        magnitude = kept_man.astype(np.float64) * b_man[None, :, :].astype(
            np.float64
        )
        return sign * np.ldexp(magnitude, abe - _PRODUCT_FRAC_BITS)


_BF16_FRAC = 7


def _leading_exponent(values: np.ndarray) -> np.ndarray:
    """Leading binary exponent per element (zero -> far-below sentinel)."""
    magnitude = np.abs(values)
    _, exp = np.frexp(magnitude)
    return np.where(magnitude > 0.0, exp.astype(np.int64) - 1, _EACC_ZERO)


# Lanes per block of the chunk engine's working arrays: small enough
# that every temporary of a round stays cache-resident and is recycled
# by the allocator instead of being paged in afresh.
_BLOCK_LANES = 1 << 17


def _round_normal(values: np.ndarray, frac_bits: int) -> np.ndarray:
    """:func:`round_significand` for finite normal-or-zero float64 values.

    Rounds to nearest even on the bit pattern: add half an ulp of the
    kept precision (less one unless the kept lsb is odd), then
    truncate.  A carry out of the significand field increments the
    exponent, which is exactly the round-up into the next binade.  The
    chunk engine's accumulators are never subnormal (see
    :func:`_leading_exponent16`), where this would differ from the
    general routine; the final ``+ 0.0`` maps -0 to +0 as it does.
    ``frac_bits`` must be below 52.
    """
    drop = 52 - frac_bits
    bits = values.view(np.uint64)
    rounded = bits + np.uint64((1 << (drop - 1)) - 1)
    # The kept lsb; at frac_bits 0 that is the hidden bit, always 1.
    if frac_bits:
        rounded += (bits >> np.uint64(drop)) & np.uint64(1)
    else:
        rounded += np.uint64(1)
    rounded &= np.uint64(((1 << 64) - 1) ^ ((1 << drop) - 1))
    result = rounded.view(np.float64)
    result += 0.0
    return result


def _leading_exponent16(values: np.ndarray) -> np.ndarray:
    """int16 :func:`_leading_exponent` via the float64 bit pattern.

    Accumulator values are grid-snapped integers times 2^gexp with
    ``gexp > -600``, so nonzero entries are always normal and the
    exponent field is exact; int16 holds the whole reachable range.  A
    zero reads as -1023, which, like the reference's sentinel, loses
    every max() against product exponents (all >= -254).
    """
    field = (values.view(np.uint64) >> np.uint64(52)) & np.uint64(0x7FF)
    return field.astype(np.int16) - np.int16(1023)


@functools.lru_cache(maxsize=None)
def _scaled_table(fpraker: bool, frac: int, dtype: type) -> np.ndarray:
    """Serial-side significands pre-scaled onto the snapping grid.

    Row ``man + (sign << 8)`` and column ``j`` (the alignment distance
    ``emax - ABe``, clamped to ``cap = frac + 3``) hold the signed
    significand the lane contributes, times ``2^(frac - j)``: in
    ``fpraker`` mode the partial CSD sum that survives the cut
    ``j - (frac - 7)``, in ``bf16`` mode the whole significand.  The
    clamped column is zero, which is exact for every ``j >= cap``: the
    ``fpraker`` cut is at least 9 there, past the top CSD digit, and
    a ``bf16`` lane's value is below 0.5, which ``rint`` sends to 0.

    Returns:
        The flattened ``[512, frac + 4]`` table in ``dtype``, read-only
        because every caller with the same key shares it.
    """
    cap = frac + 3
    column = np.arange(cap + 1)
    man = np.broadcast_to(np.arange(256)[:, None], (256, cap + 1))
    if fpraker:
        man = partial_csd_sum(man, column[None, :] - (frac - _BF16_FRAC))
    signed = np.concatenate([man, -man]).astype(np.float64)
    table = np.ldexp(signed, frac - column)
    table[:, cap] = 0.0
    flat = table.astype(dtype).ravel()
    flat.flags.writeable = False
    return flat


def _accumulate_chunks(
    a_exp: np.ndarray,
    b_exp: np.ndarray,
    a_row: np.ndarray,
    b_signed: np.ndarray,
    table: np.ndarray,
    frac: int,
    group: int,
    man_dtype: type,
) -> np.ndarray:
    """Run the group loop of the chunked matmul emulation.

    The serial-side operands are ``[M, chunks, span, 1]`` and the
    parallel-side ones ``[1, chunks, span, N]``, or both transposed
    along their outer axes (``[1, chunks, span, M]`` and
    ``[N, chunks, span, 1]``); every pass broadcasts them the same way.

    Args:
        a_exp: int16 serial-side exponents.
        b_exp: int16 parallel-side exponents.
        a_row: int16 offsets of the serial side's rows in ``table``.
        b_signed: signed parallel significands scaled by ``2^-14``,
            in ``man_dtype``.
        table: the mode's flattened :func:`_scaled_table`.
        frac: accumulator fractional bits.
        group: MACs per accumulation round.
        man_dtype: ``np.float32`` or ``np.float64`` -- the
            significand work dtype (exact either way by the caller's
            range guarantee, so both give identical bytes).

    Returns:
        float64 chunk-final accumulator values, ``[M, chunks, N]`` or
        transposed like the operands.
    """
    # Rows of the outer axis are independent: run them in blocks of
    # about _BLOCK_LANES lanes per round.
    rows = max(a_exp.shape[0], b_exp.shape[0])
    lanes = a_exp.shape[1] * group * max(a_exp.shape[3], b_exp.shape[3])
    step = max(1, _BLOCK_LANES // lanes)
    blocks = []
    for r0 in range(0, rows, step):
        part = [
            op[r0 : r0 + step] if op.shape[0] > 1 else op
            for op in (a_exp, b_exp, a_row, b_signed)
        ]
        blocks.append(_accumulate_block(*part, table, frac, group, man_dtype))
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def _accumulate_block(
    a_exp: np.ndarray,
    b_exp: np.ndarray,
    a_row: np.ndarray,
    b_signed: np.ndarray,
    table: np.ndarray,
    frac: int,
    group: int,
    man_dtype: type,
) -> np.ndarray:
    """One row block of :func:`_accumulate_chunks` (same arguments)."""
    _, chunks, span, _ = a_exp.shape
    shape = (
        max(a_exp.shape[0], b_exp.shape[0]),
        chunks,
        max(a_exp.shape[3], b_exp.shape[3]),
    )
    # A full row of the cap: numpy's int16 minimum runs its vector
    # loop only when both inner operands are contiguous.
    cap = np.full(shape[2], frac + 3, dtype=np.int16)
    acc = np.zeros(shape, dtype=np.float64)
    for lo in range(0, span, group):
        hi = min(lo + group, span)
        # Product exponents of the round, turned in place into the
        # table index min(emax - ABe, cap) + row offset.
        index = a_exp[:, :, lo:hi] + b_exp[:, :, lo:hi]
        emax = np.maximum(index.max(axis=2), _leading_exponent16(acc))
        np.subtract(emax[:, :, None], index, out=index)
        np.minimum(index, cap, out=index)
        index += a_row[:, :, lo:hi]
        # Entries already sit on the grid 2^(emax - frac), so a lane's
        # snapped value is rint(entry * b_signed).
        snapped = table.take(index)
        snapped *= b_signed[:, :, lo:hi]
        np.rint(snapped, out=snapped)
        # Scale by exact powers of two built from their bit patterns:
        # grid exponents stay far inside float64's normal range.
        gexp = emax.astype(np.int64) - frac
        unscale = ((1023 - gexp) << 52).view(np.float64)
        total = snapped.sum(axis=2, dtype=man_dtype).astype(np.float64)
        total += np.rint(acc * unscale)
        total *= ((gexp + 1023) << 52).view(np.float64)
        acc = _round_normal(total, frac)
    return acc
