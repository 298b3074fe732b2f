"""The output writers: dump_json and write_csv.

Both stream into a temporary sibling of their target and move it onto
the target only when it is whole, so a file is complete or absent, and
no copy of its text is held in memory.
"""

import json
import math
import tracemalloc
from enum import Enum

import numpy as np
import pytest

from rdmft.errors import RdmftError
from rdmft.serialize import FORMAT_VERSION, _plain, dump_json, write_csv


class Colour(Enum):
    RED = "red"


MIXED = {
    "enum": Colour.RED,
    "flag": np.bool_(True),
    "count": np.int64(7),
    "value": np.float64(0.1),
    "array": np.arange(4.0).reshape(2, 2),
    "missing": None,
    "nested": [{"b": 1, "a": [1.5, {"deep": np.int64(-3)}]}, []],
}


def test_dump_json_bytes_are_the_indented_sorted_text(tmp_path):
    path = dump_json(tmp_path / "out.json", MIXED)
    assert path == tmp_path / "out.json"
    expected = json.dumps(MIXED, sort_keys=True, indent=2, default=_plain) + "\n"
    assert path.read_bytes() == expected.encode()


def test_dump_json_replaces_an_existing_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("old contents, longer than the new ones\n")
    dump_json(path, {"a": 1})
    assert path.read_text() == '{\n  "a": 1\n}\n'
    assert list(tmp_path.iterdir()) == [path]


def test_outputs_take_the_permissions_of_a_plain_write(tmp_path):
    plain = tmp_path / "plain.json"
    plain.write_text("{}\n")
    written = dump_json(tmp_path / "written.json", {})
    assert written.stat().st_mode == plain.stat().st_mode


def test_write_csv_table_and_sidecar(tmp_path):
    rows = [(0, 0.1, "a b", None), (np.int64(1), np.float64(1 / 3), "c", 2.5)]
    path = write_csv(tmp_path / "table.csv", ["id", "x", "label", "maybe"], rows, {"command": "test"})
    assert path == tmp_path / "table.csv"
    assert path.read_bytes() == b"id,x,label,maybe\r\n0,0.1,a b,\r\n1,0.3333333333333333,c,2.5\r\n"
    sidecar_path = tmp_path / "table.meta.json"
    sidecar = json.loads(sidecar_path.read_text())
    assert sorted(sidecar) == ["columns", "command", "format_version", "generated_at"]
    assert sidecar["columns"] == ["id", "x", "label", "maybe"]
    assert sidecar["format_version"] == FORMAT_VERSION
    assert sidecar["command"] == "test"
    assert sidecar_path.read_text() == json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv", "table.meta.json"]


def test_dump_json_holds_no_copy_of_the_text(tmp_path):
    payload = [{f"key_{k}": k + j / 7 for k in range(8)} for j in range(6000)]
    tracemalloc.start()
    try:
        path = dump_json(tmp_path / "big.json", payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak < 0.1 * size, f"peak {peak} B while writing {size} B"


# past the first 64 KB of output, so that some of it has reached the disk
LEADING = [k / 3 for k in range(20000)]


@pytest.mark.parametrize(
    "bad,error",
    [(math.nan, RdmftError), (math.inf, RdmftError), (-math.inf, RdmftError), (object(), TypeError)],
    ids=["nan", "inf", "-inf", "unencodable"],
)
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_dump_leaves_the_target_as_it_was(tmp_path, bad, error, existing):
    path = tmp_path / "out.json"
    if existing:
        path.write_bytes(b'{"kept": true}\n')
    assert len(json.dumps(LEADING, indent=2)) > 64 * 1024
    with pytest.raises(error) as exc:
        dump_json(path, {"a": LEADING, "b": bad})
    if error is RdmftError:
        assert str(path) in str(exc.value)
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_bytes() == b'{"kept": true}\n'


def test_a_failed_table_leaves_no_file(tmp_path):
    def rows():
        for k in range(20000):
            yield (k, k / 3)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(tmp_path / "table.csv", ["k", "x"], rows())
    assert list(tmp_path.iterdir()) == []


def test_a_non_finite_sidecar_value_leaves_no_sidecar(tmp_path):
    with pytest.raises(RdmftError, match="table.meta.json"):
        write_csv(tmp_path / "table.csv", ["x"], [(1.0,)], {"worst": math.nan})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.csv"]
