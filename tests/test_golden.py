"""Replay the recorded `cuntz eval`, `cuntz classify`, `cuntz axioms`,
`cuntz compare` and diag-mode `cuntz oz eps|check|compare` commands of
data/golden_cli.json and require the same stdout, stderr and exit code.

The corpus covers the acceptance table's regression identities,
right-nested parentheses, absorbed tensor chains up to 80 factors, direct
sums up to 60 summands, sums whose parts repeat under every kind of split,
the scanner's and the argument readers' error paths,
`axioms extnat` at bounds 0 to 64 under each
`--aux` and `--sup`, multiplicity-function comparisons on discrete spaces
and the interval, and order-zero cuts, checks and obstructions;
data/make_golden.py writes it.  A record that reads documents carries them
under "files"; they are written to a temporary directory, which is the
working directory while the command runs.
"""

import contextlib
import io
import json
from pathlib import Path

from cuntz.cli import main

GOLDEN = Path(__file__).with_name("data") / "golden_cli.json"


def test_recorded_commands_replay_byte_for_byte(tmp_path, monkeypatch):
    records = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(records) > 510
    assert sum("files" in record for record in records) > 100
    monkeypatch.chdir(tmp_path)
    mismatched = []
    for record in records:
        for name, text in record.get("files", {}).items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(record["argv"])
        got = {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if any(got[k] != record[k] for k in got):
            mismatched.append(record["argv"])
    assert not mismatched, f"{len(mismatched)} commands differ, first: {mismatched[0]}"
