import json

import compare

SPEC = {"end_to_end": [
    {"name": "host_ops_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
]}


def record(ops, ops_spread, setup, failed=0):
    return {"workloads": {"w": {
        "attempted": 100, "failed": failed,
        "metrics": {
            "host_ops_per_s": {"value": ops, "unit": "1/s",
                               "spread": ops_spread},
            "setup_s": {"value": setup, "unit": "s", "spread": 0.0}}}}}


def verdicts(a, b):
    return {row[1]: row[4] for row in compare.compare(a, b, SPEC)}


def test_verdicts_follow_bound_and_direction():
    base = record(100.0, 0.02, 1.0)
    assert verdicts(base, record(120.0, 0.02, 1.0))["host_ops_per_s"] \
        == "better"
    assert verdicts(base, record(85.0, 0.02, 1.0))["host_ops_per_s"] \
        == "worse"
    assert verdicts(base, record(95.0, 0.02, 0.8)) == {
        "failed_frac": "same", "host_ops_per_s": "same",
        "setup_s": "better"}
    assert verdicts(base, record(120.0, 0.3, 1.0))["host_ops_per_s"] \
        == "unresolved"
    assert verdicts(base, record(100.0, 0.02, 1.0, failed=1))[
        "failed_frac"] == "worse"


def test_exit_code_flags_a_regression(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(record(100.0, 0.0, 1.0)))
    b.write_text(json.dumps(record(100.0, 0.0, 1.5)))
    assert compare.main([str(a), str(a)]) == 0
    assert "(identical)" in capsys.readouterr().out
    assert compare.main([str(a), str(b)]) == 1
