import errno
import json
import os
import subprocess
import sys
import threading

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

    @pytest.mark.parametrize("field,value", [("id", 5), ("locale", None), ("type", ["x"]),
                                             ("verbalized", b"five"), ("formatted", 5)])
    def test_non_string_field_rejected(self, field, value):
        with pytest.raises(ManifestError) as caught:
            record(**{field: value})
        name = value if field == "id" else "en-year-00001"
        assert str(caught.value) == f"record {name!r}: fields must be strings: ['{field}']"

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

    @pytest.mark.parametrize("faults,message", [
        ({"extra": 1, "verbalized": None}, "unknown fields: ['extra']"),
        ({"verbalized": None, "locale": 5}, "missing fields: ['verbalized']"),
        ({"locale": 5, "audio": 5}, "fields must be strings: ['locale']"),
        ({"audio": 5, "expressions": ["1945"]}, "fields must be strings or null: ['audio']"),
    ], ids=["extra+missing", "missing+mistyped", "mistyped+optional", "optional+expressions"])
    def test_the_first_fault_is_reported(self, faults, message):
        # A None value here deletes the field.
        obj = {**json.loads(record().to_json()), **faults}
        obj = {name: value for name, value in obj.items() if value is not None}
        with pytest.raises(ManifestError) as caught:
            ManifestRecord.from_obj(obj)
        assert str(caught.value) == message

    def test_a_list_is_no_object(self):
        with pytest.raises(ManifestError) as caught:
            ManifestRecord.from_obj([json.loads(record().to_json())])
        assert str(caught.value) == "expected an object, got list"

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


class TestWriteManifest:
    """``write_manifest`` rewrites its file in place and cuts it to length."""

    RECORDS = [record(), record(id="en-year-00002")]
    BYTES = "".join(r.to_json() + "\n" for r in RECORDS).encode("utf-8")

    @pytest.mark.parametrize("old", [b"x" * 4096, b"{}\n", None], ids=["longer", "shorter", "new"])
    def test_leaves_exactly_the_new_bytes(self, tmp_path, old):
        path = tmp_path / "m.jsonl"
        if old is not None:
            path.write_bytes(old)
        assert write_manifest(self.RECORDS, path) == 2
        assert path.read_bytes() == self.BYTES

    def test_no_records_empty_the_file(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(self.BYTES)
        assert write_manifest([], path) == 0
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("through", ["symlink", "hard link"])
    def test_every_name_of_the_file_shows_the_new_records(self, tmp_path, through):
        target, other = tmp_path / "target.jsonl", tmp_path / "other.jsonl"
        target.write_bytes(b"x" * 4096)
        inode = os.stat(target).st_ino
        if through == "symlink":
            other.symlink_to(target)
        else:
            os.link(target, other)
        write_manifest(self.RECORDS, other)
        assert target.read_bytes() == other.read_bytes() == self.BYTES
        assert os.stat(target).st_ino == os.stat(other).st_ino == inode
        assert other.is_symlink() == (through == "symlink")

    def test_mode_is_what_open_w_gives(self, tmp_path):
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        write_manifest(self.RECORDS, tmp_path / "new.jsonl")
        assert os.stat(tmp_path / "new.jsonl").st_mode == os.stat(reference).st_mode
        kept = tmp_path / "kept.jsonl"
        kept.write_bytes(b"x" * 4096)
        kept.chmod(0o600)
        write_manifest(self.RECORDS, kept)
        assert kept.stat().st_mode & 0o777 == 0o600

    def test_dev_null(self):
        assert write_manifest(self.RECORDS, os.devnull) == 2

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert write_manifest(self.RECORDS, fifo) == 2
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [self.BYTES]

    def test_the_old_file_stays_whole_until_the_first_record(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"x" * 4096)
        sizes = []

        def records():
            sizes.append(os.path.getsize(path))
            yield from self.RECORDS

        write_manifest(records(), path)
        assert sizes == [4096]
        assert path.read_bytes() == self.BYTES

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_an_error_mid_write_leaves_the_records_before_it(self, tmp_path, k):
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"x" * 4096)

        def records():
            yield from self.RECORDS[:k]
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            write_manifest(records(), path)
        assert path.read_bytes() == "".join(
            r.to_json() + "\n" for r in self.RECORDS[:k]).encode("utf-8")
        assert read_manifest(path) == self.RECORDS[:k]

    @pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
    def test_a_failed_disk_write_leaves_nothing_of_the_old_file(self, tmp_path):
        # A child limited to 4,000 bytes a file writes 100 records over a longer
        # file: the disk write fails with EFBIG, and the file ends where the
        # writes reached, as a file truncated on open would.
        path = tmp_path / "m.jsonl"
        path.write_bytes(b"x" * 20_000)
        lines = [record(id=f"en-year-{i:05d}").to_json() for i in range(100)]
        src = os.path.dirname(os.path.dirname(manifest.__file__))
        code = (
            f"import json, resource, signal, sys\nsys.path.insert(0, {src!r})\n"
            "from numitn.manifest import ManifestRecord, write_manifest\n"
            f"records = (ManifestRecord.from_obj(json.loads(line)) for line in {lines!r})\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4000, resource.RLIM_INFINITY))\n"
            f"try:\n    write_manifest(records, {str(path)!r})\n"
            "except OSError as err:\n    print(err.errno)\n")
        done = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                              text=True, check=True, timeout=60)
        assert done.stdout.split() == [str(errno.EFBIG)]
        assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")[:4000]
