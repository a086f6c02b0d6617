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
