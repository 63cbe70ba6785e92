"""Layout rules for the package source."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "equimine"


def test_only_io_applies_the_json_number_rule():
    # io.write_json_report rounds every float of a report; no stage repeats it
    offenders = [p.name for p in SRC.rglob("*.py")
                 if p.name != "io.py" and "fmt6(" in p.read_text(encoding="utf-8")]
    assert offenders == []


def test_sensnet_stays_within_its_line_budget():
    assert len((SRC / "sensnet.py").read_text(encoding="utf-8").splitlines()) <= 320
