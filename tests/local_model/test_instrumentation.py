"""Tests for payload accounting."""

from repro.local_model.instrumentation import payload_size


class TestPayloadSize:
    def test_scalar(self):
        assert payload_size(42) == 1
        assert payload_size("hello") == 1

    def test_flat_list(self):
        assert payload_size([1, 2, 3]) == 3

    def test_nested(self):
        assert payload_size([{1, 2}, (3, 4, 5)]) == 5

    def test_dict_counts_keys_and_values(self):
        assert payload_size({1: 2, 3: 4}) == 4

    def test_empty_container_counts_one(self):
        assert payload_size([]) == 1
        assert payload_size({}) == 1

