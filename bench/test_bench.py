"""Tests of the benchmark itself.  Run from the repository root with

    python3 -m pytest bench/test_bench.py -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import diffalg  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _bindings():
    """Every attribute of the diffalg modules and classes, plus the suite table."""
    out = {}
    for module in spans._diffalg_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(module.__name__, key, attr)] = member
    out.update({("SUITES", key): value for key, value in diffalg.cli.SUITES.items()})
    return out


def _small_outputs():
    """Cheap calls into every traced layer; returns their canonical texts."""
    ctx = diffalg.VarContext(2)
    closed = diffalg.e_lambda(ctx, (1, 0), "closed")
    generators = diffalg.e_lambda(ctx, (1, 0), "generators")
    sweep = diffalg.verify_containment(2, 1, 1, 1)
    spec = diffalg.IdealSpec(diffalg.RootData.type_a(2), 1)
    basis = diffalg.graded_dimension(spec, 1, diffalg.Window(0, 1, 1)).basis
    report = diffalg.run_suite(diffalg.CheckConfig("springer-module"))
    return [
        diffalg.op_to_text(closed - generators),
        json.dumps(sweep, sort_keys=True, default=str),
        [diffalg.poly_to_text(p) for p in basis],
        [diffalg.poly_to_text(spec.roots.project(p, 1)) for p in basis],
        diffalg.cli.serialize(report),
    ]


def test_traced_and_untraced_outputs_are_identical():
    untraced = _small_outputs()
    with spans.Tracer() as tracer:
        traced = _small_outputs()
    assert traced == untraced
    metrics = tracer.metrics()
    for name in ("poly.mul", "poly.exact_divide", "daha.compose", "ideals.rref", "ideals.membership",
                 "zalg.class_commutative", "springer.module_act", "springer.element", "cli.run_suite"):
        assert metrics[name + ".calls"] > 0, name
    assert metrics["cli.step.springer-module.self_s"] > 0


def test_suite_workload_output_is_the_same_when_traced():
    inputs = workloads.setup("suite", 0)
    untraced = workloads.run("suite", inputs, 0)
    with spans.Tracer():
        traced = workloads.run("suite", inputs, 0)
    assert traced == untraced
    attempted, failed, _ = untraced
    assert (attempted, failed) == (workloads.checks("suite", 0), 0)


def test_library_is_restored_after_tracing():
    before = _bindings()
    with spans.Tracer():
        assert _bindings() != before
    assert _bindings() == before
    try:
        with spans.Tracer():
            raise KeyError("inside the traced block")
    except KeyError:
        pass
    assert _bindings() == before


def test_self_times_add_up_to_the_traced_total():
    ctx = diffalg.VarContext(2)
    f = diffalg.LaurentPoly.x(ctx, 0) + diffalg.LaurentPoly.y(ctx, 1)
    with spans.Tracer() as tracer:
        diffalg.RootData.type_a(2).project(f ** 3, 1)
    dump = tracer.dump()
    stats = dump["spans"]
    assert abs(sum(s["self_s"] for s in stats.values()) - dump["top_level_s"]) < 1e-6
    assert all(0 <= s["self_s"] <= s["total_s"] + 1e-9 for s in stats.values())
    edges = {(e["parent"], e["child"]): e["calls"] for e in dump["edges"]}
    assert edges[(None, "poly.pow")] == 1
    assert edges[(None, "weyl.project")] == 1
    assert edges[("weyl.project", "weyl.act_matrix")] == 2
    assert ("weyl.act_matrix", "poly.pow") in edges


def test_metric_names_and_counts_follow_the_contract():
    end_to_end = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    names = end_to_end + per_layer + [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    assert "setup_s" in end_to_end
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)
    assert set(per_layer) == set(spans.Tracer().metrics()) | {"trace_overhead_ratio"}


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
