"""The reach map's pin: every module under ``src/repro`` is reached by an
entry of the two tables (``repro.scenarios.SCENARIOS`` and
``repro.experiments.EXPERIMENTS``), or it is on the allow-list below
with the one reason no entry can reach it.  A module that falls out of
every entry's reach fails here: a catalogue entry adopts it, or it goes.
"""

import pytest

from repro.inventory import reach_map

PURE = "pure re-export __init__: defines no function to reach"

#: module (relative to src/repro) -> why no table entry reaches it
ALLOWED = {
    "__main__.py": "CLI: `python -m repro report <kind>` dispatch",
    "cli.py": "CLI: the report CLIs' shared output flags",
    "inventory.py": "CLI: `report inventory` runs the entries, is none",
    "ctl/report.py": "CLI: `report ctl`",
    "faults/report.py": "CLI: `report faults`",
    "snap/report.py": "CLI: `report snap`",
    "traffic/report.py": "CLI: `report traffic`",
    "experiments/__main__.py": "CLI: `python -m repro.experiments`",
    "experiments/report.py": "CLI: table rendering and JSON/CSV writers",
    "sim/profile.py": "benchmarks/perf/run.py imports calibrate",
    "__init__.py": PURE,
    "cluster/__init__.py": PURE,
    "core/__init__.py": PURE,
    "ctl/__init__.py": PURE,
    "devices/__init__.py": PURE,
    "experiments/__init__.py": PURE,
    "faults/__init__.py": PURE,
    "ipc/__init__.py": PURE,
    "kernel/__init__.py": PURE,
    "mods/__init__.py": PURE,
    "mods/labfs/__init__.py": PURE,
    "obs/__init__.py": PURE,
    "pfs/__init__.py": PURE,
    "scenarios/__init__.py": PURE,
    "sim/__init__.py": PURE,
    "snap/__init__.py": PURE,
    "traffic/__init__.py": PURE,
    "workloads/__init__.py": PURE,
}


@pytest.fixture(scope="module")
def reach(profiled):
    return reach_map(profiled)


def test_every_module_is_reached_by_a_table_entry(reach):
    unreached = [m for m, r in reach.items()
                 if not r["reached_by"] and m not in ALLOWED]
    assert unreached == [], (
        "no catalogue or experiment entry reaches these modules: adopt "
        f"them with an entry or delete them: {unreached}")


def test_allow_list_is_exact(reach):
    """Each allowed module exists and is really unreached (one an entry
    starts reaching leaves the list), and a pure re-export is one."""
    assert sorted(set(ALLOWED) - set(reach)) == []
    assert [m for m in ALLOWED if reach[m]["reached_by"]] == []
    assert [m for m, why in ALLOWED.items()
            if why == PURE and reach[m]["functions"]] == []
