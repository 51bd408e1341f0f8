"""``jsonl`` is the one file layer: no other module opens a file, makes a
directory or encodes JSON with sorted keys, but for the scratch and
temporary files of ``harness``, ``echosim`` and ``spread``, which are not
outputs."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the file layer, and the modules whose files are scratch or temporary
EXEMPT = {"jsonl.py", "harness.py", "echosim.py", "spread.py"}
# the calls that open a file or make a directory: a bare name, or os.<name>
FILE_CALLS = {"open", "os.open", "os.makedirs"}


def _name(func: ast.expr) -> str | None:
    """``func`` as ``name`` or ``module.name``, if it is one of those."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def file_decisions(path: Path) -> set[str]:
    """Each call in ``path`` that opens a file, makes a directory or asks
    for sorted keys, as ``<file>:<line>: <call>``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name in FILE_CALLS:
            found.add(f"{path.name}:{node.lineno}: {name}")
        if any(keyword.arg == "sort_keys" for keyword in node.keywords):
            found.add(f"{path.name}:{node.lineno}: {name or 'a call'}(sort_keys=...)")
    return found


def test_only_jsonl_opens_makes_and_encodes_files():
    sources = sorted((ROOT / "src" / "cruxkit").glob("*.py"))
    assert EXEMPT <= {path.name for path in sources}
    assert set().union(*(file_decisions(path) for path in sources
                         if path.name not in EXEMPT)) == set()


def test_jsonl_is_seen_to_make_each_decision():
    """The walk finds what it looks for: ``jsonl`` opens, makes and sorts."""
    jsonl = ROOT / "src" / "cruxkit" / "jsonl.py"
    found = {line.split(": ", 1)[1] for line in file_decisions(jsonl)}
    assert found == {"open", "os.makedirs", "json.JSONEncoder(sort_keys=...)"}
