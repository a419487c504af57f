"""Every pinned command-line run, checked byte for byte.

``goldens.json`` holds one entry per run: its ``argv``, the ``exit`` status
it must end with, the SHA-256 of its whole primary ``record`` and, where one
is pinned, of its ``csv``.  Hashing the whole record pins the spec's bytes
(each command's defaults and presentation) with the result.  An entry may
set ``env`` and may say ``why`` it is pinned.  Two entries that share a
digest pin an invariance: the worker count, the BLAS thread count or an
inherited ``CAYLEYCOLOUR_*`` variable never changes the bytes.

Entries run in-process through ``cli.main``.  One that sets ``env`` runs in
a fresh ``python -m cayleycolour.cli``, because ``OPENBLAS_NUM_THREADS`` is
read once, when numpy loads.

To re-pin on purpose, edit the entry: a failure prints the pinned and the
actual digest.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cayleycolour
from cayleycolour import cli

MANIFEST = Path(__file__).with_name("goldens.json")
REQUIRED = ("argv", "exit", "record")
KEYS = {*REQUIRED, "csv", "env", "why"}
PINNED = ("exit", "record", "csv")


def entry_name(entry: dict) -> str:
    env = [f"{k}={v}" for k, v in sorted(entry.get("env", {}).items())]
    return " ".join(env + entry["argv"])


def validated(entries: list[dict]) -> list[dict]:
    """The entries, or a ValueError for the first with a missing or unknown
    key, so that a typo such as "cvs" cannot silently drop a pin."""
    for entry in entries:
        missing = [k for k in REQUIRED if k not in entry]
        unknown = sorted(set(entry) - KEYS)
        if missing or unknown:
            raise ValueError(f"goldens entry {entry.get('argv')}: missing keys {missing}, unknown keys {unknown}")
    return entries


ENTRIES = validated(json.loads(MANIFEST.read_text()))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def produce(entry: dict, tmp_path: Path) -> dict:
    """Run the entry with --out, and --csv where it pins one; return its exit
    status and the digests of what it wrote."""
    out, csv_path = tmp_path / "record.json", tmp_path / "table.csv"
    argv = [*entry["argv"], "--out", str(out)] + (["--csv", str(csv_path)] if "csv" in entry else [])
    if "env" in entry:
        src = str(Path(cayleycolour.__file__).resolve().parents[1])
        env = {**os.environ, **entry["env"]}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = subprocess.run([sys.executable, "-m", "cayleycolour.cli", *argv], cwd=tmp_path, env=env).returncode
    else:
        code = cli.main(argv)
    produced = {"exit": code, "record": sha256(out)}
    if "csv" in entry:
        produced["csv"] = sha256(csv_path)
    return produced


def mismatches(entry: dict, produced: dict) -> list[str]:
    return [
        f"{entry_name(entry)}: {key} pinned {entry[key]}, got {produced[key]}"
        for key in PINNED
        if key in entry and produced[key] != entry[key]
    ]


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_name)
def test_golden(entry, tmp_path):
    found = mismatches(entry, produce(entry, tmp_path))
    assert not found, "\n".join(found)


def test_a_changed_pin_is_reported_by_name(tmp_path):
    (entry,) = [e for e in ENTRIES if entry_name(e) == "prefix --radius 5"]
    produced = produce(entry, tmp_path)
    assert mismatches(entry, produced) == []
    last = entry["record"][-1]
    flipped = entry["record"][:-1] + ("1" if last == "0" else "0")
    for broken, key in [({**entry, "record": flipped}, "record"), ({**entry, "exit": 1}, "exit")]:
        (found,) = mismatches(broken, produced)
        assert found.startswith(f"prefix --radius 5: {key} pinned {broken[key]}, got {produced[key]}")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda e: {("cvs" if k == "csv" else k): v for k, v in e.items()}, "missing keys [], unknown keys ['cvs']"),
        (lambda e: {k: v for k, v in e.items() if k != "record"}, "missing keys ['record'], unknown keys []"),
    ],
    ids=["unknown-key", "no-digest"],
)
def test_broken_manifest_rejected(edit, message):
    entry = {"argv": ["solve", "--radius", "6"], "exit": 0, "record": "0" * 64, "csv": "0" * 64}
    assert validated([entry]) == [entry]
    with pytest.raises(ValueError, match=re.escape(f"goldens entry ['solve', '--radius', '6']: {message}")):
        validated([edit(entry)])
