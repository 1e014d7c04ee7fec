import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from happygrid import CertificationError, DigitSystem, TooLargeError, certify

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = os.path.dirname(os.path.dirname(certify.__file__))


def survey_rows(*argv):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "atlas_survey.py"), *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    rows = {tuple(map(int, line.split()[:2])): line
            for line in result.stdout.splitlines()[2:]}
    return result, rows


def test_atlas_survey_certifies_up_to_the_library_limit():
    # (3,18) has B = 3**14 - 1 and is enumerated and checked; (3,19) has
    # B + 1 = 3**15 values, above MAX_VALUES, and carries the library's refusal
    result, rows = survey_rows("--max-base", "3", "--max-exp", "20")
    assert result.returncode == 0, result.stderr
    assert len(rows) == 40
    assert rows[(3, 18)].endswith(" ms]") and "[certified, " in rows[(3, 18)]
    assert "fp=[0, 1, 786438, " in rows[(3, 18)]
    with pytest.raises(TooLargeError) as refusal:
        certify.check_bound_size(DigitSystem(3, 19))
    assert rows[(3, 19)].endswith(f"refused: {refusal.value}")
    assert not any("certified" in rows[(3, e)] for e in (19, 20))


def test_atlas_survey_exits_1_when_a_check_fails(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("atlas_survey", SCRIPTS / "atlas_survey.py")
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)

    def failing(atlas):
        raise CertificationError(f"broken check of {atlas.system}")

    monkeypatch.setattr(survey, "validate_atlas", failing)
    assert survey.survey(2, 1) == 1
    assert capsys.readouterr().out.splitlines()[-1].endswith(
        "NOT CERTIFIED: broken check of DigitSystem(base=2, exponent=1)")
