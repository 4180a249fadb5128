"""``scripts/ab_inprocess.py`` loads two trees into one process and compares them round by round.

A round times ``cmd_generate`` and ``cmd_metrics --config``; each gets its own ratios.
"""

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
    lines = proc.stdout.splitlines()
    # One block of figures per timed command, each with its own ratio.
    for command in ("cmd_generate:", "cmd_metrics --config:"):
        block = lines[lines.index(command) + 1 : lines.index(command) + 5]
        assert [line.split(":")[0].strip() for line in block] == [
            "parent", "change", "ratio change/parent", "pairs won by the change"
        ]
        assert block[3].endswith("/2")
    assert "corpus and audit bytes identical on both sides: yes" in lines
    assert "report bytes identical on both sides: yes" in lines
