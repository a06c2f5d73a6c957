"""Tests for the YAML-subset spec parser."""

import pytest

from repro.core.spec import SpecParseError, parse_spec


def test_empty_document():
    assert parse_spec("") == {}
    assert parse_spec("\n  \n# only a comment\n") == {}


def test_flat_mapping_scalars():
    doc = """
name: labstor
workers: 8
threshold: 0.25
debug: true
trace: false
note: null
"""
    assert parse_spec(doc) == {
        "name": "labstor",
        "workers": 8,
        "threshold": 0.25,
        "debug": True,
        "trace": False,
        "note": None,
    }


def test_nested_mapping():
    doc = """
rules:
  exec_mode: async
  priority: 3
"""
    assert parse_spec(doc) == {"rules": {"exec_mode": "async", "priority": 3}}


def test_list_of_scalars():
    doc = """
outputs:
  - lru0
  - sched0
"""
    assert parse_spec(doc) == {"outputs": ["lru0", "sched0"]}


def test_list_of_mappings():
    doc = """
labmods:
  - mod: LabFs
    uuid: fs0
    outputs: [lru0]
  - mod: LruCacheMod
    uuid: lru0
"""
    assert parse_spec(doc) == {
        "labmods": [
            {"mod": "LabFs", "uuid": "fs0", "outputs": ["lru0"]},
            {"mod": "LruCacheMod", "uuid": "lru0"},
        ]
    }


def test_colon_in_scalar_value():
    """Mount points like fs::/b must not be parsed as nested mappings."""
    doc = "mount: fs::/b\n"
    assert parse_spec(doc) == {"mount": "fs::/b"}


def test_list_item_with_colon_scalar():
    doc = """
mounts:
  - fs::/a
  - kvs::/b
"""
    assert parse_spec(doc) == {"mounts": ["fs::/a", "kvs::/b"]}


def test_comments_stripped():
    doc = """
# header comment
workers: 4  # trailing comment
"""
    assert parse_spec(doc) == {"workers": 4}


def test_quoted_strings_preserved():
    doc = 'path: "/with: colon"\n'
    assert parse_spec(doc) == {"path": "/with: colon"}


def test_inline_list():
    assert parse_spec("xs: [1, 2, 3]\n") == {"xs": [1, 2, 3]}
    assert parse_spec("xs: []\n") == {"xs": []}


def test_tabs_rejected():
    with pytest.raises(SpecParseError, match="tabs"):
        parse_spec("a:\n\tb: 1\n")


def test_garbage_line_rejected():
    with pytest.raises(SpecParseError):
        parse_spec("just some words without structure\nmore: 1\n")


def test_full_labstack_spec_document():
    doc = """
mount: fs::/b
rules:
  exec_mode: async
  priority: 1
  admins:
    - alice
labmods:
  - mod: PermissionsMod
    uuid: perm0
    outputs: [fs0]
  - mod: LabFs
    uuid: fs0
    attrs:
      capacity_bytes: 1073741824
      nworkers: 8
    outputs: [drv0]
  - mod: KernelDriverMod
    uuid: drv0
    attrs:
      device: nvme
"""
    d = parse_spec(doc)
    assert d["mount"] == "fs::/b"
    assert d["rules"]["admins"] == ["alice"]
    assert d["labmods"][1]["attrs"]["capacity_bytes"] == 1073741824
    assert d["labmods"][2]["attrs"]["device"] == "nvme"
