"""The benchmark's tracer must still find every scan, lattice, precompute
and elaboration entry point it wraps, and rebind every reference to them.
It runs in a child process, so its wrappers never reach other tests."""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import absorb
import absorb.cli
tracer = tracing.Tracer(absorb)
tracer.install()
print(json.dumps({"missing": tracer.missing, "leaks": tracer.leaks}))
"""


def test_tracer_covers_every_entry_point_without_leaks():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench" / "tracing.py")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert json.loads(out.stdout) == {"missing": [], "leaks": []}
