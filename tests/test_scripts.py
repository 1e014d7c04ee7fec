import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from happygrid import CertificationError, DigitSystem, TooLargeError, bounds

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = os.path.dirname(os.path.dirname(bounds.__file__))


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
        bounds.check_bound_size(DigitSystem(3, 19))
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


STUB_RUN = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
print("workload", args["--workload"])
print(json.dumps({"info": {"python": "3.0.0", "nproc": 7, "cpu": "stub", "seed": 0}}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "argv": sys.argv[1:],
                  "metrics": {"peak_rss_mb": {"value": 15.5, "unit": "MB"}}}))
'''


def stub_checkout(root):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB_RUN, encoding="utf-8")
    (root / "BENCHMARK.json").write_text(
        '{"run_seconds": 25, "workloads": [{"name": "certify"}, {"name": "grid"}]}',
        encoding="utf-8")
    return root


def test_bench_records_each_run_of_a_checkout(tmp_path):
    checkout = stub_checkout(tmp_path / "checkout")
    out = tmp_path / "BENCH_1.json"
    result = subprocess.run([sys.executable, str(SCRIPTS / "bench.py"), str(checkout), str(out),
                             "--seeds", "1", "2"], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    bench = json.loads(out.read_text(encoding="utf-8"))
    # the stub lies in no git checkout
    assert {key: bench[key] for key in ("commit", "python", "nproc", "cpu", "seconds")} == {
        "commit": None, "python": "3.0.0", "nproc": 7, "cpu": "stub", "seconds": 25}
    assert [(run["workload"], run["seed"]) for run in bench["runs"]] == [
        ("certify", 1), ("grid", 1), ("certify", 2), ("grid", 2)]
    first = bench["runs"][0]["result"]
    assert first["metrics"] == {"peak_rss_mb": {"value": 15.5, "unit": "MB"}}
    assert first["argv"] == ["--workload", "certify", "--seed", "1", "--seconds", "25",
                             "--trace", "0"]


def test_bench_names_the_commit_and_a_failing_run(tmp_path):
    checkout = stub_checkout(tmp_path / "checkout")
    git = ["git", "-C", str(checkout), "-c", "user.name=bench", "-c", "user.email=bench@example",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "stub"], check=True)
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True,
                          check=True).stdout.strip()
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.record(checkout, ["query"], [5], 0.5)["commit"] == head
    (checkout / "BENCHMARK.json").write_text("{}")
    assert bench.record(checkout, ["query"], [5], 0.5)["commit"] == head + "-dirty"
    (checkout / "perfbench" / "run.py").write_text("import sys; sys.exit(3)\n")
    with pytest.raises(RuntimeError, match="exited with 3"):
        bench.record(checkout, ["query"], [5], 0.5)
