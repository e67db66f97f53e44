"""The package is the KG system and nothing else: every module under
``wsid_ray/`` must be reachable by imports from the public entry points.
A module that no root reaches is dead code (or a catalogue growing
back) and fails this test."""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "wsid_ray"
ROOTS = [
    "wsid_ray.pipelines.flagship",
    "wsid_ray.pipelines.checkpointed",
    "wsid_ray.pipelines.queries",
    "wsid_ray.run",
    "wsid_ray.api",
    "wsid_ray.oracle",
    "wsid_ray.fixtures",
    "wsid_ray.artifacts",
    "wsid_ray.sources.repartition",
]


def _modules() -> dict[str, Path]:
    mods = {}
    for path in PKG.rglob("*.py"):
        parts = path.relative_to(PKG.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        mods[".".join(parts)] = path
    return mods


def _imports(name: str, path: Path, mods: dict[str, Path]) -> set[str]:
    """Package modules named by any import statement in ``path``
    (top-level or function-local), with relative imports resolved."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    named = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            named.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            named.add(base)
            named.update(f"{base}.{a.name}" for a in node.names)
    found = set()
    for full in named:
        parts = full.split(".")
        found.update(".".join(parts[:i]) for i in range(1, len(parts) + 1)
                     if ".".join(parts[:i]) in mods)
    return found


def test_every_module_is_reached_from_a_public_root():
    mods = _modules()
    assert all(r in mods for r in ROOTS), sorted(set(ROOTS) - set(mods))
    seen, todo = set(), list(ROOTS)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(_imports(name, mods[name], mods))
    assert sorted(set(mods) - seen) == []


def test_kg_package_never_imports_the_catalogue():
    """The operator catalogue (``wsid_catalog``) builds on the KG
    package, never the other way round."""
    bad = []
    for path in PKG.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            bad += [f"{path.name}: {n}" for n in names
                    if n.split(".")[0] in ("wsid_catalog", "__ray_entry__")]
    assert bad == []


def test_only_the_oracle_is_the_oracle():
    """The engine shares only config and ``cw.py`` with the sequential
    oracle (``oracle.py`` docstring): no other module imports it, so an
    engine/oracle comparison never compares the oracle with itself."""
    mods = _modules()
    bad = sorted(name for name, path in mods.items()
                 if name != "wsid_ray.oracle"
                 and "wsid_ray.oracle" in _imports(name, path, mods))
    assert bad == []
