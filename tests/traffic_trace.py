"""List the functions and methods of src/vexlab that the shipped traffic
never enters.

    python tests/traffic_trace.py [CHECKOUT]

(a checkout is a directory holding src/, tests/, configs/, demos/ and
perfbench/; by default the one this file lives in).  In one fresh
interpreter, with the checkout's src/ first on the path and
perfbench/run.py's THREAD_VARS set to 1, it records every call event whose
code lies under src/vexlab while it runs

- the three perfbench workloads at seed 42;
- every shipped configs/*.json through cli.main, into a temporary directory;
- every script under demos/, from a temporary directory;
- tests/test_acceptance.py under pytest.

It then prints each function or method defined under src/vexlab, nested
ones included, whose code was never entered, as file:line and qualified
name, and their count.  It exits 1 when any part of the traffic fails.
Such a function is one that only tests (or nothing) reach: a candidate for
deletion, or a path the traffic should cover.
pytest does not collect this file: its name does not start with test_.
"""

import ast
import contextlib
import io
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 42


def defined_functions(src):
    """{(path, first line): qualified name} of every def under src, the
    first line being the first decorator's, as in the code object."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), "", str(path.resolve()))
    return found


def run_traffic(checkout, work):
    """Run every part of the traffic; return the names of those that failed."""
    import pytest
    import workloads
    from vexlab.cli import main

    failed = []
    for name, run in workloads.WORKLOADS.items():
        ops = workloads.Ops()
        run(ops, SEED, str(work))
        if ops.failed:
            failed.append(f"workload {name}")
    for path in sorted((checkout / "configs").glob("*.json")):
        scenario = path.stem.rsplit("_", 1)[0].replace("_", "-")
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([scenario, "--config", str(path),
                         "--out", str(work / path.stem)])
        if code != 0:
            failed.append(f"config {path.name}")
    cwd = os.getcwd()
    for path in sorted((checkout / "demos").glob("*.py")):
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(path), run_name="__main__")
        finally:
            os.chdir(cwd)
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir",
                            str(checkout), str(checkout / "tests/test_acceptance.py")])
    if code != 0:
        failed.append("tests/test_acceptance.py")
    return failed


def child(checkout):
    src = checkout / "src" / "vexlab"
    for sub in ("tests", "perfbench", "src"):  # src ends up first
        sys.path.insert(0, str(checkout / sub))
    prefix = str(src.resolve()) + os.sep
    entered = set()

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            entered.add((code.co_filename, code.co_firstlineno))
        # no local trace function: only call events reach this hook

    sys.settrace(trace)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            failed = run_traffic(checkout, Path(tmp))
    finally:
        sys.settrace(None)
    names = defined_functions(src)
    never = sorted(set(names) - entered)
    for path, line in never:
        print(f"{os.path.relpath(path, checkout)}:{line}: {names[(path, line)]}")
    print(f"{len(never)} functions never entered")
    for name in failed:
        print(f"FAILED: {name}")
    return 1 if failed else 0


def main(argv):
    if argv[:1] == ["--child"]:
        return child(Path(argv[1]).resolve())
    checkout = Path(argv[0] if argv else Path(__file__).parents[1]).resolve()
    sys.path.insert(0, str(checkout / "perfbench"))
    from run import THREAD_VARS

    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    return subprocess.run([sys.executable, __file__, "--child", str(checkout)],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
