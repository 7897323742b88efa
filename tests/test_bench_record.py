import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", os.path.join(ROOT, "bench", "record.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_record_keeps_the_last_two_lines_and_adds_three_figures(record):
    env = {"workload": "oracle_n8", "wall_s": {"median": 0.2}, "fail_frac": 0.0}
    result = {"correct": True, "attempted": 9, "failed": 0,
              "metrics": {"wall_s": {"value": 0.2, "unit": "s"}}}
    # a warning printed before the two lines does not reach the record
    stdout = "a warning\n%s\n%s\n" % (json.dumps(env), json.dumps(result))
    doc = record.assemble(stdout, "abc123", "1", 4321)
    assert doc == {
        "git_sha": "abc123",
        "PYTHONDONTWRITEBYTECODE": "1",
        "child_minor_faults": 4321,
        "record": env,
        "result": result,
    }
    assert record.assemble(stdout, None, None, 0)["PYTHONDONTWRITEBYTECODE"] is None
    # a run that printed no result line has no record
    with pytest.raises(ValueError):
        record.assemble(json.dumps(env) + "\n", "abc123", None, 0)
