"""Hybrid page-allocation policy."""

import pytest

from repro.core import FeatureVector, PagePolicy, page_modes_for
from repro.ssd import PageAllocMode


class TestPolicyMapping:
    def test_hybrid_assigns_by_characteristic(self):
        """Section IV-E: static for read-dominated, dynamic for write."""
        modes = page_modes_for(PagePolicy.HYBRID, (0, 1, 0, 1))
        assert modes == {
            0: PageAllocMode.DYNAMIC,
            1: PageAllocMode.STATIC,
            2: PageAllocMode.DYNAMIC,
            3: PageAllocMode.STATIC,
        }

    def test_all_static(self):
        modes = page_modes_for(PagePolicy.ALL_STATIC, (0, 1))
        assert set(modes.values()) == {PageAllocMode.STATIC}

    def test_all_dynamic(self):
        modes = page_modes_for(PagePolicy.ALL_DYNAMIC, (0, 1))
        assert set(modes.values()) == {PageAllocMode.DYNAMIC}

    def test_accepts_feature_vector(self):
        fv = FeatureVector(0, (0, 1), (0.5, 0.5))
        modes = page_modes_for(PagePolicy.HYBRID, fv)
        assert modes[0] is PageAllocMode.DYNAMIC
        assert modes[1] is PageAllocMode.STATIC

    def test_rejects_bad_characteristics(self):
        with pytest.raises(ValueError):
            page_modes_for(PagePolicy.HYBRID, (0, 2))
