"""The runner of `tools/ladder.py` on synthetic rows: caps, reaping, checks and exit codes."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("ladder", Path(__file__).resolve().parents[1] / "tools" / "ladder.py")
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def run(rows, capsys):
    code = ladder.main(rows)
    report = json.loads(capsys.readouterr().out)
    assert report["python"] and report["cpus"] >= 1 and report["ladder_peak_rss_mb"] > 0
    return code, report["rows"]


def test_a_child_past_its_cap_is_killed_reaped_and_named(tmp_path, capsys):
    pid_file = tmp_path / "pid"
    sleeper = ("-c", "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(30)", str(pid_file))
    code, [row] = run([ladder.Row("sleeps past its cap", 0.5, sleeper)], capsys)
    assert code == 1
    assert row["name"] == "sleeps past its cap" and row["verdict"] == "timeout"
    assert 0.5 <= row["wall_s"] < 5
    with pytest.raises(ChildProcessError):
        os.waitpid(int(pid_file.read_text()), os.WNOHANG)


def test_a_failing_check_fails_the_row_with_its_last_stderr_line(capsys):
    row = ladder.Row("check fails", 5, ("-c", "print(41)"), ("import sys; assert sys.stdin.read() == sys.argv[1], 'read the wrong answer'", "42\n"))
    code, [record] = run([row], capsys)
    assert code == 1
    assert record["verdict"] == "failed" and record["stderr"] == "AssertionError: read the wrong answer"


def test_an_unexpected_exit_code_fails_the_row(capsys):
    rows = [ladder.Row("exits 3", 5, ("-c", "import sys; sys.exit('three')")), ladder.Row("exits 0, expected 2", 5, ("-c", "pass"), code=2)]
    code, records = run(rows, capsys)
    assert code == 1
    assert [(r["verdict"], r["stderr"]) for r in records] == [("failed", "three"), ("failed", "")]


def test_a_quiet_row_fails_on_any_stderr(capsys):
    row = ladder.Row("writes to stderr", 5, ("-c", "import sys; sys.stderr.write('noise\\n')"), quiet=True)
    code, [record] = run([row], capsys)
    assert code == 1 and record["verdict"] == "failed" and record["stderr"] == "noise"


def test_a_passing_row_records_its_wall_time_and_peak_rss(capsys):
    row = ladder.Row("prints its argument", 5, ("-c", "import sys; print(sys.argv[1])", "42"), ("import sys; assert sys.stdin.read() == sys.argv[1]", "42\n"))
    code, [record] = run([row], capsys)
    assert code == 0
    assert record == {"name": "prints its argument", "cap_s": 5, "wall_s": record["wall_s"], "peak_rss_mb": record["peak_rss_mb"], "verdict": "ok"}
    assert record["wall_s"] > 0 and record["peak_rss_mb"] > 0


def test_the_table_has_one_row_per_ci_call():
    assert len(ladder.ROWS) == 41 and len({r.name for r in ladder.ROWS}) == 41
