from __future__ import annotations

import pytest

from edgeplace.util import dump_json, load_json


def test_dump_json_refusal_leaves_files_as_they_were(tmp_path):
    new = tmp_path / "new.json"
    with pytest.raises(ValueError, match="JSON compliant"):
        dump_json(str(new), {"value": float("nan")})
    assert not new.exists()
    old = tmp_path / "old.json"
    dump_json(str(old), {"value": 1.5})
    before = old.read_bytes()
    with pytest.raises(ValueError, match="JSON compliant"):
        dump_json(str(old), {"value": float("inf")})
    assert old.read_bytes() == before
    assert load_json(str(old), ValueError, "file") == {"value": 1.5}
