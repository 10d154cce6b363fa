"""Property tests of the slot algebra, drawn by hypothesis."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from akscal import operator_lab as ol  # noqa: E402

STRUCTURES = {"kt": ol.J_KT, "flat": ol.J_FLAT}

slot_vectors = st.lists(
    st.floats(min_value=-1e100, max_value=1e100, allow_nan=False), min_size=6,
    max_size=6).map(np.array)

slot_settings = settings(max_examples=100, deadline=None, derandomize=True,
                         database=None)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@slot_settings
@given(v=slot_vectors)
def test_slot_values_invert_slot_embed(name, v):
    basis = ol.anti_slots(STRUCTURES[name])
    assert np.array_equal(ol.slot_values(ol.slot_embed(v, basis), basis), v)


@pytest.mark.parametrize("name", sorted(STRUCTURES))
@slot_settings
@given(v=slot_vectors)
def test_slot_embed_is_symmetric_and_anti_invariant(name, v):
    j = STRUCTURES[name]
    h = ol.slot_embed(v, ol.anti_slots(j))
    assert np.array_equal(h, h.T)
    # J is a signed permutation, so J^T h J only moves and negates entries
    assert np.array_equal(j.T @ h @ j, -h)
