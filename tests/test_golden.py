"""Replay the recorded `cuntz eval`, `cuntz classify` and `cuntz axioms`
commands of data/golden_cli.json and require the same stdout, stderr and
exit code.

The corpus covers the acceptance table's regression identities,
right-nested parentheses, absorbed tensor chains up to 80 factors, direct
sums up to 60 summands, and `axioms extnat` at bounds 0 to 64 under each
`--aux` and `--sup`; data/make_golden.py writes it.
"""

import contextlib
import io
import json
from pathlib import Path

from cuntz.cli import main

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"


def test_recorded_commands_replay_byte_for_byte():
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) > 300
    mismatched = []
    for record in records:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(record["argv"])
        got = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if any(got[k] != record[k] for k in got):
            mismatched.append(record["argv"])
    assert not mismatched, f"{len(mismatched)} commands differ, first: {mismatched[0]}"
