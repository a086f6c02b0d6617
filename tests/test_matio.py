"""Canonical matrix format, Matrix Market import and report emission."""

import io
import json

import numpy as np
import pytest

from specpreserve import FormatError
from specpreserve import matio


class TestCanonicalFormat:
    def test_complex_round_trip(self, tmp_path, rng):
        A = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        path = tmp_path / "a.json"
        matio.save_matrix(path, A)
        B = matio.load_matrix(path)
        np.testing.assert_array_equal(A, B)

    def test_real_round_trip_plain_numbers(self, tmp_path, rng):
        A = rng.standard_normal((2, 2))
        path = tmp_path / "a.json"
        matio.save_matrix(path, A)
        payload = json.loads(path.read_text())
        assert payload["field"] == "real"
        assert all(isinstance(v, float) for v in payload["data"])
        B = matio.load_matrix(path)
        assert not np.iscomplexobj(B)
        np.testing.assert_array_equal(A, B)

    def test_real_field_with_pairs_accepted(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"rows": 1, "cols": 2, "field": "real", '
                        '"data": [[1.5, 0.0], 2.5]}')
        B = matio.load_matrix(path)
        np.testing.assert_array_equal(B, [[1.5, 2.5]])

    def test_complex_entries_in_real_field_rejected(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"rows": 1, "cols": 1, "field": "real", '
                        '"data": [[0.0, 1.0]]}')
        with pytest.raises(FormatError):
            matio.load_matrix(path)

    def test_entry_count_validated(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"rows": 2, "cols": 2, "field": "real", "data": [1.0]}')
        with pytest.raises(FormatError):
            matio.load_matrix(path)

    @pytest.mark.parametrize("rows,cols", [(1.9, 1), (1, 1.5), (True, 1),
                                           (1, False), ("1", 1),
                                           (float("nan"), 1), (float("inf"), 1)])
    def test_extent_must_be_an_integer(self, rows, cols):
        # int() would truncate 1.9 to 1 and read true as 1
        payload = {"rows": rows, "cols": cols, "field": "real", "data": [2.0]}
        with pytest.raises(FormatError, match="must be integers"):
            matio.matrix_from_payload(payload)

    @pytest.mark.parametrize("payload,message", [
        ({"rows": 0, "cols": 1, "field": "real", "data": []},
         "must be positive"),
        ({"rows": -1, "cols": 1, "field": "real", "data": [1.0]},
         "must be positive"),
        ({"rows": 1, "cols": 1, "field": "quaternion", "data": [1.0]},
         "unknown field 'quaternion'"),
        ({"rows": 1, "cols": 1, "field": "real", "data": {}},
         "data must be an array"),
        ({"rows": 1, "cols": 1, "data": [1.0]},
         "malformed matrix payload: 'field'"),
        ({"rows": 2, "cols": 2, "field": "real", "data": [1.0, 2.0, 3.0]},
         "expected 4 entries, got 3"),
        ({"rows": 1, "cols": 1, "field": "real", "data": [[0, 1]]},
         "real matrix has nonzero imaginary entries"),
    ])
    def test_malformed_payload_refused_by_message(self, payload, message):
        with pytest.raises(FormatError, match=message):
            matio.matrix_from_payload(payload)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 2, 2), (0,)])
    def test_array_that_is_no_matrix_is_not_written(self, tmp_path, shape):
        with pytest.raises(FormatError):
            matio.save_matrix(tmp_path / "a.json", np.zeros(shape))

    def test_integral_float_extent_accepted(self):
        payload = {"rows": 1.0, "cols": 2, "field": "real", "data": [1.0, 2.0]}
        np.testing.assert_array_equal(matio.matrix_from_payload(payload),
                                      [[1.0, 2.0]])

    @pytest.mark.parametrize("value", [True, False, [True, 0.0], [1.0, False],
                                       ["1", 0.0], [1.0, None]])
    def test_scalar_must_be_numbers(self, value):
        # a JSON boolean is no number, though Python counts it as an int
        with pytest.raises(FormatError):
            matio.complex_from_pair(value)

    def test_scalar_from_number_or_pair(self):
        assert matio.complex_from_pair(2) == 2
        assert matio.complex_from_pair([1.5, -2]) == 1.5 - 2j

    def test_missing_file(self):
        with pytest.raises(FormatError):
            matio.load_matrix("/nonexistent/m.json")

    def test_garbage_json(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text("{not json")
        with pytest.raises(FormatError):
            matio.load_matrix(path)


class TestMatrixMarket:
    def test_real_array_import(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real general\n2 2\n1.0\n3.0\n2.0\n4.0\n")
        B = matio.load_matrix(path)
        np.testing.assert_allclose(B, [[1.0, 2.0], [3.0, 4.0]])

    def test_coordinate_import(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 5.0\n2 2 -1.0\n")
        B = matio.load_matrix(path)
        np.testing.assert_allclose(B, [[5.0, 0.0], [0.0, -1.0]])

    def test_complex_market_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate complex general\n"
            "1 1 1\n1 1 1.0 2.0\n")
        with pytest.raises(FormatError):
            matio.load_matrix(path)


class TestJsonEmission:
    def test_seventeen_significant_digits(self):
        buf = io.StringIO()
        matio.dump_json({"x": 1.0 / 3.0}, buf)
        assert "0.33333333333333331" in buf.getvalue()

    def test_round_trip_exact(self):
        values = [1.0 / 3.0, 2.0 ** -52, 1e300, -0.1]
        buf = io.StringIO()
        matio.dump_json(values, buf)
        back = json.loads(buf.getvalue())
        assert back == values

    def test_nested_structures_and_complex(self):
        buf = io.StringIO()
        matio.dump_json({"z": 1 + 2j, "arr": np.arange(3), "ok": True,
                         "none": None}, buf)
        back = json.loads(buf.getvalue())
        assert back == {"z": [1.0, 2.0], "arr": [0, 1, 2], "ok": True,
                        "none": None}

    def test_deterministic_output(self, rng):
        A = rng.standard_normal((4, 4))
        b1, b2 = io.StringIO(), io.StringIO()
        matio.dump_json(matio.matrix_to_payload(A), b1)
        matio.dump_json(matio.matrix_to_payload(A), b2)
        assert b1.getvalue() == b2.getvalue()
