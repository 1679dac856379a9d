"""Guards on the package source itself."""

import ast
import importlib
import importlib.util
from pathlib import Path

import secretary_lab

PACKAGE_DIR = Path(secretary_lab.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so every cross-check in the
    # package must raise explicitly to survive it.
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) > 1
    offenders = [
        f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_every_traced_name_resolves():
    # The benchmark's traced run rebinds functions by qualified name; a
    # renamed or deleted function would break it, so check the names here.
    # Loading the tracer module only reads it: nothing is installed.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [*tracer.SPANS, *tracer.COUNTED, *tracer.TAKES_ALGORITHM]
    assert len(names) > 1
    missing = []
    for qualname in names:
        module_name, _, attr = qualname.partition(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        if "." in attr:
            class_name, attr = attr.split(".")
            owner = vars(owner).get(class_name)
        if owner is None or attr not in vars(owner):
            missing.append(qualname)
    assert missing == []


def test_exact_scoring_imports_no_numpy():
    # Exact scoring, over orders or over sets, lives in policy.py; it and
    # every package module it imports stay free of numpy.
    todo, seen, imported = ["policy"], set(), set()
    while todo:
        name = todo.pop()
        seen.add(name)
        tree = ast.parse((PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level:
                if node.module not in seen:
                    todo.append(node.module)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module.partition(".")[0])
    assert seen == {"policy", "errors", "exact", "instances"}
    assert "numpy" not in imported
