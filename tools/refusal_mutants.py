"""Delete the package's refusals one at a time and list those no test misses.

Usage: ``python tools/refusal_mutants.py src/lqobt/databt.py [more files]``

Each ``raise`` statement and each ``warnings.warn(...)`` call in the given
files is replaced by ``pass``, one at a time, in a temporary copy of the
repository; the working tree is never written. Tier-1 then runs on the
copy with ``-x``. A mutant whose run passes survives: no test tells that
refusal apart from the others. Each file is first run unmutated, as
``ast.unparse`` writes it, and a failure there stops the script, as it
would kill every mutant. Each mutant is printed as ``file:line killed``
or ``survives``, and the exit status is the number of survivors. A run
costs one tier-1 run per refusal, so neither tier-1 nor CI runs this
script.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _is_refusal(node):
    call = node.value if isinstance(node, ast.Expr) else None
    return isinstance(node, ast.Raise) or (
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "warn" and isinstance(call.func.value, ast.Name)
        and call.func.value.id == "warnings")


class _Delete(ast.NodeTransformer):
    """Replaces the refusal statement on line `line` by ``pass``."""

    def __init__(self, line):
        self.line = line

    def generic_visit(self, node):
        super().generic_visit(node)
        if _is_refusal(node) and node.lineno == self.line:
            return ast.copy_location(ast.Pass(), node)
        return node


def main(paths):
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git"))
        # a mutant may match an earlier one in size and mtime second, so no
        # bytecode is cached
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
               "PYTHONPATH": str(copy / "src")}
        for path in paths:
            rel = Path(path).resolve().relative_to(ROOT)
            source = (ROOT / rel).read_text()
            lines = sorted(n.lineno for n in ast.walk(ast.parse(source)) if _is_refusal(n))
            for line in [None, *lines]:
                (copy / rel).write_text(ast.unparse(_Delete(line).visit(ast.parse(source))))
                passed = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                    cwd=copy, env=env, capture_output=True).returncode == 0
                if line is None:
                    if not passed:
                        sys.exit(f"{rel}: tier-1 fails on the unmutated copy")
                    continue
                if passed:
                    survivors.append(f"{rel}:{line}")
                print(f"{rel}:{line}", "survives" if passed else "killed", flush=True)
            (copy / rel).write_text(source)
    print(f"{len(survivors)} surviving: {' '.join(survivors) or '-'}")
    return len(survivors)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
