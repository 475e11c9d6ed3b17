"""Seeded statement-deletion probe of the package, run outside the test suite.

Each mutant of a module either deletes one statement (a body left empty
gets ``pass``; docstrings are not mutated) or sets the condition of one
``if`` or ``while`` to False.  The mutant is written, as ``ast.unparse``
output, into a scratch copy of ``src/`` and ``tests/``, and the test files
selected for its module run there with ``pytest -x``.  A mutant that the
tests still pass is a survivor: either a test is missing, or the code is
equivalent and needs a recorded reason (or deleting).

The tests of a module are the test files that import it, or import a
module that imports it (through ``from .name import``), or the package
itself; every test file counts for ``__init__``.

    python tools/deletion_probe.py --workdir DIR [--modules bath neardegen]
        [--seed 12] [--limit N] [--jobs 2] [--out report.json]

DIR must lie outside the repository; it gets one copy per job.  --limit
runs a seeded sample of N mutants.  Survivors, with their module, line
and source, go to --out as JSON and to stdout.  A full run makes about
1,340 mutants and takes about 36 minutes with --jobs 2 on a 2-core
x86-64 host.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import random
import re
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "coherence_engine"
COPIED = ("src", "tests", "pyproject.toml", "README.md")  # the tests read the last two


def _is_docstring(parent: ast.AST, field: str, index: int, stmt: ast.stmt) -> bool:
    return (field == "body" and index == 0
            and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                    ast.AsyncFunctionDef))
            and isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def mutation_sites(tree: ast.Module) -> list:
    """(line, kind, body list, index or node) of every site, in source order."""
    sites = []
    for node in ast.walk(tree):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            if isinstance(body, list):
                sites += [(stmt.lineno, "delete", body, k) for k, stmt in enumerate(body)
                          if not _is_docstring(node, field, k, stmt)]
        if isinstance(node, (ast.If, ast.While)):
            sites.append((node.lineno, "false", None, node))
    return sorted(sites, key=lambda site: (site[0], site[1]))


def mutate(tree: ast.Module, site) -> str:
    """The module's source with one site mutated; the tree is left as it was."""
    _line, kind, body, target = site
    if kind == "delete":
        saved = body[:]
        del body[target]
        body[:] = body or [ast.Pass()]
        try:
            return ast.unparse(tree)
        finally:
            body[:] = saved
    saved = target.test
    target.test = ast.Constant(False)
    try:
        return ast.unparse(tree)
    finally:
        target.test = saved


def _imports(path: Path) -> set:
    """Package modules that a source file imports by name."""
    text = path.read_text()
    names = set(re.findall(rf"{PACKAGE}\.(\w+)", text))
    for group in re.findall(rf"from {PACKAGE} import ([\w\s,()]+)", text):
        names |= set(re.findall(r"\w+", group))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names |= {node.module} if node.module else {a.name for a in node.names}
    return names


def select_tests(modules: list) -> dict:
    """Test files per module: those reaching it through the import graph."""
    src = ROOT / "src" / PACKAGE
    imported = {m: _imports(src / f"{m}.py") for m in modules}
    tests = sorted(p.name for p in (ROOT / "tests").glob("test_*.py"))
    helpers = _imports(ROOT / "tests" / "reference.py")
    reach = {name: _imports(ROOT / "tests" / name) for name in tests}
    for name in tests:
        if re.search(r"^(from reference import|import reference)",
                     (ROOT / "tests" / name).read_text(), re.M):
            reach[name] |= helpers
    selected = {}
    for module in modules:
        users, grew = {module}, True
        while grew:
            grown = users | {m for m, deps in imported.items() if deps & users}
            grew, users = grown != users, grown
        selected[module] = tests if module == "__init__" else [
            name for name in tests if reach[name] & users]
    return selected


def _pytest(copy: Path, files: list, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
            *(f"tests/{name}" for name in files)]
    try:
        proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed"
    if proc.returncode in (4, 5):  # usage error or nothing collected: the probe is wrong
        raise RuntimeError(f"pytest exit {proc.returncode}: {proc.stdout[-2000:]!r}")
    return "survived" if proc.returncode == 0 else "killed"


def _clean(copy: Path) -> None:
    """Delete what a run left in the copy: it could change how the next one runs."""
    for entry in copy.iterdir():
        if entry.name in COPIED:
            continue
        if entry.is_dir():
            shutil.rmtree(entry)
        else:
            entry.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--modules", nargs="*")
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    src = ROOT / "src" / PACKAGE
    modules = args.modules or sorted(p.stem for p in src.glob("*.py"))

    mutants = []
    for module in modules:
        text = (src / f"{module}.py").read_text()
        tree = ast.parse(text)
        for site in mutation_sites(tree):
            source = mutate(tree, site)
            try:
                compile(source, module, "exec")
            except SyntaxError:
                continue
            line = text.splitlines()[site[0] - 1].strip()
            mutants.append({"module": module, "line": site[0], "kind": site[1],
                            "source": line, "text": source})
    random.Random(args.seed).shuffle(mutants)
    mutants = mutants[:args.limit]
    counts = {m: sum(x["module"] == m for x in mutants) for m in modules}
    print(json.dumps({"mutants": len(mutants), "per_module": counts}), flush=True)

    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        parser.error("--workdir must lie outside the repository")
    selected = select_tests(modules)
    jobs = max(1, args.jobs)
    copies = queue.Queue()
    timeouts = {}
    for job in range(jobs):
        copy = workdir / f"job{job}"
        shutil.rmtree(copy, ignore_errors=True)
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(ROOT / name, copy / name)
        copies.put(copy)
    # The unmutated modules, unparsed the same way, must pass their tests.
    copy = copies.get()
    for module in modules:
        if not counts[module]:
            continue
        path = copy / "src" / PACKAGE / f"{module}.py"
        original = path.read_text()
        path.write_text(ast.unparse(ast.parse(original)))
        start = time.perf_counter()
        result = _pytest(copy, selected[module], 600.0)
        path.write_text(original)
        _clean(copy)
        if result != "survived":
            raise SystemExit(f"unmutated {module} fails its tests")
        timeouts[module] = 3.0 * (time.perf_counter() - start) + 10.0
    copies.put(copy)

    def run(mutant):
        copy = copies.get()
        path = copy / "src" / PACKAGE / f"{mutant['module']}.py"
        original = path.read_text()
        try:
            path.write_text(mutant["text"])
            return _pytest(copy, selected[mutant["module"]], timeouts[mutant["module"]])
        finally:
            path.write_text(original)
            _clean(copy)
            copies.put(copy)

    survivors = []
    with ThreadPoolExecutor(jobs) as pool:
        for k, (mutant, result) in enumerate(zip(mutants, pool.map(run, mutants)), 1):
            if result == "survived":
                survivors.append({key: mutant[key]
                                  for key in ("module", "line", "kind", "source")})
            print(f"{k}/{len(mutants)} {mutant['module']}:{mutant['line']} "
                  f"{mutant['kind']} {result}", file=sys.stderr, flush=True)
    survivors.sort(key=lambda s: (s["module"], s["line"], s["kind"]))
    report = {"seed": args.seed, "mutants": len(mutants), "survived": len(survivors),
              "per_module": counts, "tests": selected, "survivors": survivors}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for s in survivors:
        print(f"{s['module']}:{s['line']} {s['kind']}: {s['source']}")
    print(f"{len(survivors)} of {len(mutants)} mutants survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
