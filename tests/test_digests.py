"""Every output of the digest matrix is byte-identical to the committed manifest.

tests/goldens/update_digests.py defines the matrix and rewrites the manifest;
only a change that moves an output on purpose runs it.
"""

import importlib.util
import json
from pathlib import Path

_spec = importlib.util.spec_from_file_location("update_digests", Path(__file__).parent / "goldens" / "update_digests.py")
update_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_digests)


def changed_entries(recorded: dict[str, str], current: dict[str, str]) -> list[str]:
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def test_every_output_matches_the_manifest(tmp_path):
    manifest = json.loads(update_digests.MANIFEST.read_text())
    current = update_digests.run_matrix(tmp_path)
    changed = changed_entries(manifest["digests"], current)
    lines = [
        f"{name}: recorded {manifest['digests'].get(name, 'absent')}, now {current.get(name, 'absent')}"
        for name in changed
    ]
    assert not changed, (
        f"{len(changed)} of {len(manifest['digests'])} outputs moved "
        f"(recorded on {manifest['platform']}, now on {update_digests.current_platform()}):\n" + "\n".join(lines)
    )


def test_changed_entries_names_moved_added_and_dropped_outputs():
    assert changed_entries({"a": "1", "b": "2", "c": "3"}, {"a": "1", "b": "9", "d": "4"}) == ["b", "c", "d"]
    assert changed_entries({"a": "1"}, {"a": "1"}) == []
