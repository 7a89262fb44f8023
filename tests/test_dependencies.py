"""numpy stays the only runtime dependency: the package imports nothing
else outside the standard library, and the project metadata declares
nothing else."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_package_imports_only_the_standard_library_and_numpy():
    outside = set()
    for path in sorted((ROOT / "src" / "simexplain").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}}
    assert not outside


def test_project_declares_only_numpy():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project, re.MULTILINE | re.DOTALL)
    assert block is not None
    requirements = re.findall(r'"([^"]*)"', block.group(1))
    assert [re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0] for r in requirements] == ["numpy"]
