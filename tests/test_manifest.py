import json

import pytest

from numitn import manifest
from numitn.manifest import (
    ManifestError,
    ManifestRecord,
    read_manifest,
    write_manifest,
)


def record(**overrides):
    base = dict(
        id="en-year-00001",
        locale="en",
        type="year",
        verbalized="The war ended in nineteen forty-five.",
        formatted="The war ended in 1945.",
        expressions=(("1945", "year"),),
    )
    base.update(overrides)
    return ManifestRecord(**base)


class TestConstruction:
    def test_valid(self):
        rec = record()
        assert rec.surfaces() == ("1945",)
        assert rec.audio is None

    def test_digits_in_verbalized_rejected(self):
        with pytest.raises(ManifestError, match="digits"):
            record(verbalized="The war ended in 1945.")

    def test_empty_expressions_rejected(self):
        with pytest.raises(ManifestError, match="no expressions"):
            record(expressions=())

    def test_unknown_type_rejected(self):
        with pytest.raises(ManifestError, match="unknown type"):
            record(type="date")

    def test_unknown_expression_type_rejected(self):
        with pytest.raises(ManifestError, match="unknown expression type"):
            record(expressions=(("1945", "date"),))

    def test_missing_surface_rejected(self):
        with pytest.raises(ManifestError, match="missing from"):
            record(expressions=(("1946", "year"),))

    def test_embedded_surface_rejected(self):
        # "1945" inside "19450" is not the literal on its own.
        with pytest.raises(ManifestError):
            record(formatted="Value 19450 stands.", expressions=(("1945", "year"),))

    def test_surface_inside_longer_number_rejected(self):
        # "1,000" inside "$1,000,000" is part of the longer amount.
        with pytest.raises(ManifestError, match="missing from"):
            record(type="currency", formatted="It cost $1,000,000.",
                   expressions=(("1,000", "quantity"),))

    def test_multiple_expressions(self):
        rec = record(
            formatted="Pay $50 at 19:45.",
            verbalized="Pay fifty dollars at quarter to eight.",
            expressions=(("$50", "currency"), ("19:45", "timestamp")),
        )
        assert rec.surfaces() == ("$50", "19:45")


class TestSerialization:
    def test_field_order(self):
        keys = list(json.loads(record().to_json()))
        assert keys == ["id", "locale", "type", "verbalized", "formatted",
                        "expressions", "audio", "voice"]

    def test_expressions_as_pairs(self):
        obj = json.loads(record().to_json())
        assert obj["expressions"] == [["1945", "year"]]

    def test_non_ascii_stays_readable(self):
        rec = record(locale="de", verbalized="eintausend Euro und fünfzig Cent",
                     formatted="1.000,50€", expressions=(("1.000,50€", "currency"),),
                     type="currency")
        assert "fünfzig" in rec.to_json()

    def test_round_trip(self):
        rec = record(audio="clips/en-year-00001.wav", voice="alpha")
        assert ManifestRecord.from_obj(json.loads(rec.to_json())) == rec

    def test_known_field_names_are_the_record_fields(self):
        assert manifest._FIELD_NAMES == set(ManifestRecord._fields)

    def test_unknown_field_rejected(self):
        with pytest.raises(ManifestError, match="unknown fields"):
            ManifestRecord.from_obj({**json.loads(record().to_json()), "extra": 1})

    def test_missing_field_rejected(self):
        obj = json.loads(record().to_json())
        del obj["verbalized"]
        with pytest.raises(ManifestError, match="missing fields"):
            ManifestRecord.from_obj(obj)

    def test_malformed_pairs_rejected(self):
        obj = json.loads(record().to_json())
        obj["expressions"] = ["1945"]
        with pytest.raises(ManifestError, match="pairs"):
            ManifestRecord.from_obj(obj)

    @pytest.mark.parametrize("pair", [5, None])
    def test_non_list_pair_rejected(self, pair):
        obj = {**json.loads(record().to_json()), "expressions": [pair]}
        with pytest.raises(ManifestError, match="pairs"):
            ManifestRecord.from_obj(obj)

    @pytest.mark.parametrize("field,value", [("verbalized", 5), ("formatted", None),
                                             ("locale", ["en"]), ("type", {})])
    def test_non_string_field_rejected(self, field, value):
        obj = {**json.loads(record().to_json()), field: value}
        with pytest.raises(ManifestError, match=rf"fields must be strings: \['{field}'\]"):
            ManifestRecord.from_obj(obj)

    @pytest.mark.parametrize("field,value", [("audio", 5), ("voice", ["x"]),
                                             ("audio", {}), ("voice", False)])
    def test_optional_field_must_be_string_or_null(self, field, value):
        obj = {**json.loads(record().to_json()), field: value}
        with pytest.raises(ManifestError,
                           match=rf"fields must be strings or null: \['{field}'\]"):
            ManifestRecord.from_obj(obj)

    def test_optional_fields_may_be_null_or_absent(self):
        obj = json.loads(record(voice="alpha").to_json())
        assert obj["audio"] is None
        assert ManifestRecord.from_obj(obj).voice == "alpha"
        del obj["audio"], obj["voice"]
        assert ManifestRecord.from_obj(obj) == record()

    @pytest.mark.parametrize("pair", [[5, "year"], ["1945", None], [1945, 1945],
                                      ["1945", ["year"]]])
    def test_pair_elements_must_be_strings(self, pair):
        # Not coerced with str(): [5, "year"] is no record, not a "5" surface.
        obj = {**json.loads(record().to_json()), "expressions": [["1945", "year"], pair]}
        with pytest.raises(ManifestError, match=r"\[surface, type\] pairs of strings"):
            ManifestRecord.from_obj(obj)


class TestFiles:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        records = [record(), record(id="en-year-00002")]
        assert write_manifest(records, path) == 2
        assert read_manifest(path) == records

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(record().to_json() + "\n\n\n", encoding="utf-8")
        assert len(read_manifest(path)) == 1

    def test_json_error_carries_line_number(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(record().to_json() + "\nnot json\n", encoding="utf-8")
        with pytest.raises(ManifestError, match=r":2: invalid JSON"):
            read_manifest(path)

    def test_validation_error_carries_line_number(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        bad = json.loads(record().to_json())
        bad["verbalized"] = "has 1945 digits"
        path.write_text(record().to_json() + "\n" + json.dumps(bad) + "\n",
                        encoding="utf-8")
        with pytest.raises(ManifestError, match=r":2: record"):
            read_manifest(path)

    def test_a_line_that_is_not_utf8_is_an_error_of_that_line(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        line = record().to_json().encode("utf-8")
        path.write_bytes(b"\n".join([line, line.replace(b"war", b"w\xe4r"), line]) + b"\n")
        entries = list(manifest.iter_manifest_lines(path))
        assert [line_no for line_no, _ in entries] == [1, 2, 3]
        assert entries[0][1] == entries[2][1] == record()
        assert isinstance(entries[1][1], ManifestError)
        assert str(entries[1][1]).startswith("not UTF-8: 'utf-8' codec can't decode byte 0xe4")
        with pytest.raises(ManifestError, match=r":2: not UTF-8"):
            read_manifest(path)
