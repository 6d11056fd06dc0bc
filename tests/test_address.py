"""Unit and property tests for the address-layout geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import AddressLayout, DEFAULT_LAYOUT

addresses = st.integers(min_value=0, max_value=DEFAULT_LAYOUT.max_address)


class TestDerivedWidths:
    def test_default_matches_table2(self):
        layout = DEFAULT_LAYOUT
        assert layout.page_id_bits == 20
        assert layout.page_offset_bits == 12
        assert layout.line_offset_bits == 6
        assert layout.lines_per_page == 64
        assert layout.subblocks_per_line == 4
        assert layout.l1_total_sets == 128
        assert layout.l1_sets_per_bank == 32
        assert layout.bank_bits == 2
        assert layout.set_bits == 5

    def test_tag_bits_cover_address(self):
        layout = DEFAULT_LAYOUT
        assert (
            layout.tag_bits
            + layout.set_bits
            + layout.bank_bits
            + layout.line_offset_bits
            == layout.address_bits
        )

    def test_arbitration_comparator_width(self):
        # Sec. IV: comparator_bits = address - pageID - line offset = 6 bits.
        assert DEFAULT_LAYOUT.arbitration_comparator_bits == 6

    def test_l1_total_lines(self):
        assert DEFAULT_LAYOUT.l1_total_lines == 512


class TestValidation:
    def test_rejects_non_power_of_two_page(self):
        with pytest.raises(ValueError):
            AddressLayout(page_bytes=3000)

    def test_rejects_line_larger_than_page(self):
        with pytest.raises(ValueError):
            AddressLayout(page_bytes=64, line_bytes=128)

    def test_rejects_subblock_larger_than_line(self):
        with pytest.raises(ValueError):
            AddressLayout(subblock_bytes=128, line_bytes=64)

    def test_rejects_address_out_of_range(self):
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.page_id(1 << 32)
        with pytest.raises(ValueError):
            DEFAULT_LAYOUT.page_id(-1)

    def test_rejects_uneven_bank_split(self):
        with pytest.raises(ValueError):
            AddressLayout(l1_capacity_bytes=24 * 1024 + 13)


class TestFieldExtraction:
    def test_page_and_offset_roundtrip(self):
        layout = DEFAULT_LAYOUT
        address = layout.compose(0x12345, 0xABC)
        assert layout.page_id(address) == 0x12345
        assert layout.page_offset(address) == 0xABC

    def test_line_fields(self):
        layout = DEFAULT_LAYOUT
        address = layout.compose_line(10, 17, 12)
        assert layout.line_in_page(address) == 17
        assert layout.line_offset(address) == 12
        assert layout.page_id(address) == 10

    def test_bank_interleaving_consecutive_lines(self):
        layout = DEFAULT_LAYOUT
        banks = [layout.bank_index(layout.compose_line(5, line)) for line in range(8)]
        assert banks == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_compose_line_rejects_bad_fields(self):
        layout = DEFAULT_LAYOUT
        with pytest.raises(ValueError):
            layout.compose_line(0, 64)
        with pytest.raises(ValueError):
            layout.compose_line(0, 0, 64)
        with pytest.raises(ValueError):
            layout.compose(1 << 20, 0)


class TestProperties:
    @given(addresses)
    @settings(max_examples=200)
    def test_field_recomposition(self, address):
        """Splitting an address into fields and recomposing is lossless."""
        layout = DEFAULT_LAYOUT
        rebuilt = layout.compose(layout.page_id(address), layout.page_offset(address))
        assert rebuilt == address

    @given(addresses)
    @settings(max_examples=200)
    def test_line_address_is_aligned_prefix(self, address):
        layout = DEFAULT_LAYOUT
        line = layout.line_address(address)
        assert line % layout.line_bytes == 0
        assert line <= address < line + layout.line_bytes

    @given(addresses)
    @settings(max_examples=200)
    def test_bank_set_tag_identify_line(self, address):
        """(bank, set, tag) uniquely identifies the line number."""
        layout = DEFAULT_LAYOUT
        line_number = (
            (layout.tag(address) << (layout.bank_bits + layout.set_bits))
            | (layout.set_index(address) << layout.bank_bits)
            | layout.bank_index(address)
        )
        assert line_number == layout.line_number(address)

    @given(addresses)
    @settings(max_examples=100)
    def test_line_in_page_bounds(self, address):
        layout = DEFAULT_LAYOUT
        assert 0 <= layout.line_in_page(address) < layout.lines_per_page
