"""``scripts/ab_inprocess.py`` loads two trees into one process and compares them round by round."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_tree_on_both_sides_writes_the_same_bytes():
    # Its own interpreter: the script swaps the decodekit modules in sys.modules.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), "--parent", str(ROOT), "--change", str(ROOT),
         "--workload", "mechanism", "--seed", "1", "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pairs won by the change: " in proc.stdout
    assert "corpus and audit bytes identical on both sides: yes" in proc.stdout
