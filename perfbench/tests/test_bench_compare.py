import json

from perfbench import compare

SPEC = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                       {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}


def point(backend, wall, ops, spread=0.0):
    def entry(median):
        return {"median": median, "q1": median * (1 - spread / 2), "q3": median * (1 + spread / 2)}
    return {"provenance": {"backend": backend, "python": "3.11.7", "nproc": 2},
            "workloads": {"verify": {"end_to_end": {"wall_s": entry(wall),
                                                    "ops_per_s": entry(ops)}}}}


def verdicts(old, new):
    return {r["metric"]: r["verdict"] for r in compare.compare(old, new, SPEC)}


def test_verdicts_follow_direction_and_bound():
    old = point("python", 10.0, 100.0)
    assert verdicts(old, point("python", 10.5, 95.0)) == {"wall_s": "ok", "ops_per_s": "ok"}
    assert verdicts(old, point("python", 11.5, 120.0)) == {"wall_s": "regression",
                                                           "ops_per_s": "ok"}
    assert verdicts(old, point("python", 9.0, 80.0)) == {"wall_s": "ok",
                                                         "ops_per_s": "regression"}
    assert verdicts(point("python", 10.0, 100.0, spread=0.3),
                    point("python", 10.5, 100.0))["wall_s"] == "unresolved"


def test_refuses_results_from_different_backends(tmp_path, capsys):
    paths = []
    for name, backend in (("a.json", "python"), ("b.json", "compiled")):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(point(backend, 10.0, 100.0)))
    assert compare.main([str(p) for p in paths]) == 2
    assert "backend" in capsys.readouterr().err
