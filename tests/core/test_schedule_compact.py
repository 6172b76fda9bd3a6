"""Compacting schedule loop vs the plain reference loop.

The compact loop gained a closed-form fast path (groups whose live
offsets span at most one shift window) and an int16 mode; both must
stay bit-identical to `schedule_from_weights` for arbitrary slot
contents -- including non-ascending offsets, which the column-merged
tile schedule genuinely produces when the binding row changes between
slots.  The compact builder takes the tile schedule's term-major,
lane-major layout (``k[term, lane, group]``, ``kept[lane, group]``);
each case builds the reference's ``[group, lane, term]`` arrays and
hands the builder their transposes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PEConfig
from repro.core.schedule import (
    _K_SENTINEL,
    _K_SENTINEL16,
    schedule_from_weights,
    schedule_from_weights_compact,
)

_FIELDS = ("cycles", "useful", "shift_stall", "no_term")


def _compact(k, kept, zero, config):
    """`schedule_from_weights_compact` on reference-layout arrays."""
    return schedule_from_weights_compact(
        k.transpose(2, 1, 0), kept.T, zero.T, zero.T, config
    )


def _random_case(seed, groups, lanes, n_terms, kmax):
    rng = np.random.default_rng(seed)
    count = rng.integers(0, n_terms + 1, (groups, lanes))
    # Deliberately unsorted within the live prefix.
    k = rng.integers(0, kmax, (groups, lanes, n_terms))
    slot = np.arange(n_terms)
    k = np.where(slot < count[:, :, None], k, _K_SENTINEL)
    zero = np.zeros((groups, lanes), dtype=np.int64)
    return k, count, zero


class TestCompactEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        groups=st.integers(1, 12),
        lanes=st.integers(1, 8),
        n_terms=st.integers(1, 5),
        kmax=st.sampled_from([2, 6, 14, 40]),
        window=st.integers(1, 8),
    )
    def test_property(self, seed, groups, lanes, n_terms, kmax, window):
        k, kept, zero = _random_case(seed, groups, lanes, n_terms, kmax)
        config = PEConfig(shift_window=window)
        ref = schedule_from_weights(k.copy(), kept.copy(), zero, zero, config)
        got = _compact(k.copy(), kept.copy(), zero, config)
        for field in _FIELDS:
            assert (getattr(got, field) == getattr(ref, field)).all(), field

    def test_int16_inputs(self):
        """The batched tile engine hands the loop int16 offsets."""
        k, kept, zero = _random_case(3, 40, 8, 5, 14)
        k16 = np.where(k >= _K_SENTINEL, np.int64(_K_SENTINEL16), k).astype(
            np.int16
        )
        config = PEConfig(shift_window=3)
        ref = schedule_from_weights(k, kept, zero, zero, config)
        got = _compact(k16, kept, zero, config)
        for field in _FIELDS:
            assert (getattr(got, field) == getattr(ref, field)).all(), field

    def test_all_fast_path(self):
        """Every group inside one window: pure closed form."""
        k, kept, zero = _random_case(5, 30, 4, 3, 2)
        config = PEConfig(shift_window=8)
        ref = schedule_from_weights(k.copy(), kept.copy(), zero, zero, config)
        got = _compact(k.copy(), kept.copy(), zero, config)
        for field in _FIELDS:
            assert (getattr(got, field) == getattr(ref, field)).all(), field
        assert (got.cycles == kept.max(axis=1).clip(min=1)).all()

    def test_all_empty_groups(self):
        k = np.full((6, 4, 3), _K_SENTINEL)
        kept = np.zeros((6, 4), dtype=np.int64)
        zero = np.zeros((6, 4), dtype=np.int64)
        got = _compact(k, kept, zero, PEConfig())
        assert (got.cycles == 1).all()
        assert (got.no_term == 1).all()
        assert (got.useful == 0).all()
