"""The experiment scripts run to completion from a checkout."""

import importlib
import importlib.util
import os
import subprocess
import sys
from functools import reduce

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("script", ["flagship_demo.py", "embedding_experiment.py", "weak_agreement_experiment.py"])
def test_script_exits_cleanly(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # breaks a traced benchmark run without failing any other test
    spec = importlib.util.spec_from_file_location("tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for name in tracing.TRACED:
        module, attr = name.split(".", 1)
        target = reduce(getattr, attr.split("."), importlib.import_module("nestalg." + module))
        assert callable(target), name


def test_verdict_digest_repeats():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    script = [sys.executable, os.path.join(ROOT, "scripts", "verdict_digest.py"), "--seeds", "1", "--rounds", "0"]
    for workload, limit in (("decide-stock", 12), ("witness-ideal", 4)):
        cmd = script + ["--workload", workload, "--limit", str(limit)]
        runs = [subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120) for _ in range(2)]
        assert all(r.returncode == 0 for r in runs), runs[0].stderr[-2000:]
        assert runs[0].stdout == runs[1].stdout
        assert f"ops={limit} sha256=" in runs[0].stdout
