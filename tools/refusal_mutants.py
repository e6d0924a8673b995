"""Break the package's refusals one at a time and list those no test misses.

Usage: ``python tools/refusal_mutants.py [--negate] src/lqobt/databt.py [more files]``

Each ``raise`` statement and each ``warnings.warn(...)`` call in the given
files is replaced by ``pass``, one at a time, in a temporary copy of the
repository; the working tree is never written. With ``--negate``, the
test of each guard, an ``if`` with a refusal directly in its body, is
negated instead (``if x:`` becomes ``if not x:``), so the guard refuses
what it should pass and passes what it should refuse. Tier-1 then runs on
the copy with ``-x``. A mutant whose run passes survives: no test tells
that refusal apart from the others. Each file is first run unmutated, as
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


def _is_guard(node):
    return isinstance(node, ast.If) and any(map(_is_refusal, node.body))


class _Mutate(ast.NodeTransformer):
    """Replaces the refusal statement on line `line` by ``pass`` or, with
    `negate`, negates the test of the guard on that line."""

    def __init__(self, line, negate):
        self.line, self.negate = line, negate

    def generic_visit(self, node):
        super().generic_visit(node)
        if getattr(node, "lineno", None) != self.line:
            return node
        if self.negate and _is_guard(node):
            node.test = ast.UnaryOp(ast.Not(), node.test)
        elif not self.negate and _is_refusal(node):
            return ast.copy_location(ast.Pass(), node)
        return node


def main(paths, negate=False):
    target = _is_guard if negate else _is_refusal
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
            lines = sorted(n.lineno for n in ast.walk(ast.parse(source)) if target(n))
            for line in [None, *lines]:
                mutant = _Mutate(line, negate).visit(ast.parse(source))
                (copy / rel).write_text(ast.unparse(mutant))
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
    negate = sys.argv[1:2] == ["--negate"]
    sys.exit(main(sys.argv[1 + negate:], negate))
