"""Mutation probe: does some test fail when one operator or number is wrong?

    python tests/mutate.py MODULE [NAME ...] -- TEST_FILE ...

Each mutant changes one node inside the NAMEd functions and classes (all
of MODULE when none is named), and only that node's source: an operator
swapped as ``SWAP`` says, a ``not`` dropped, or 1 added to a number. It is
killed when the TEST_FILEs, a fast subset, fail or time out; each survivor
is run again under the full suite, and what survives that is listed last.
The runs use a copy of the repository under ``TMPDIR``. The subsets:

    S="tests/test_grpo.py tests/test_rewards.py tests/test_harness.py tests/test_acceptance.py"
    python tests/mutate.py src/cruxkit/rewards.py -- $S
    python tests/mutate.py src/cruxkit/grpo.py _exp _mean group_advantages _rollout_terms \\
        log_ratio_bound check_log_ratios clipped_objective -- $S
    python tests/mutate.py src/cruxkit/harness.py match_outputs pass_at_k aggregate_report \\
        render_table pass_at_k_table -- $S
    python tests/mutate.py src/cruxkit/cruxdoc.py -- tests/test_cruxdoc.py tests/test_corpus.py $S

Pytest does not collect this script, and the suite does not run it.
"""

import ast
import copy
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn,
        ast.NotIn: ast.In, ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div,
        ast.Div: ast.Mult, ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.And: ast.Or,
        ast.Or: ast.And}


def nodes(node: ast.AST, names: set[str], inside: bool):
    """Every node in a NAMEd definition; none in an f-string (no sure position before 3.12)."""
    if isinstance(node, ast.JoinedStr):
        return
    inside = inside or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in names
    if inside:
        yield node
    for child in ast.iter_child_nodes(node):
        yield from nodes(child, names, inside)


def mutations(node: ast.AST):
    """(description, replacement node) for each mutation of ``node`` itself."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAP:
                new = copy.copy(node)
                new.ops = [*node.ops[:i], SWAP[type(op)](), *node.ops[i + 1:]]
                yield f"{type(op).__name__} -> {SWAP[type(op)].__name__}", new
    elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in SWAP:
        new = copy.copy(node)
        new.op = SWAP[type(node.op)]()
        yield f"{type(node.op).__name__} -> {type(new.op).__name__}", new
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield "not dropped", node.operand
    elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
        yield f"{node.value!r} -> {node.value + 1!r}", ast.Constant(node.value + 1)


def mutants(source: str, names: set[str]):
    """(line, description, mutated source) for every mutant of ``source``."""
    data = source.encode()  # AST columns count UTF-8 bytes
    starts = [0]
    for line in data.split(b"\n"):
        starts.append(starts[-1] + len(line) + 1)
    for node in nodes(ast.parse(source), names, not names):
        for what, new in mutations(node):
            text = ast.unparse(new)
            if isinstance(node, ast.expr):  # parenthesized, keeping the line count
                text = f"({text}{chr(10) * (node.end_lineno - node.lineno)})"
            a = starts[node.lineno - 1] + node.col_offset
            b = starts[node.end_lineno - 1] + node.end_col_offset
            mutated = (data[:a] + text.encode() + data[b:]).decode()
            ast.parse(mutated)  # a splice that breaks the syntax is a fault of this probe
            yield node.lineno, what, mutated


def passes(workdir: str, args: list[str], timeout: float) -> bool:
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}  # so no mutant runs an earlier one's .pyc
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args],
            cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str]) -> int:
    if "--" not in argv:
        sys.exit(__doc__)
    split = argv.index("--")
    module, names, tests = argv[0], set(argv[1:split]), argv[split + 1:]
    with tempfile.TemporaryDirectory(prefix="cruxmut-") as tmp:
        workdir = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, workdir, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench"))
        target = os.path.join(workdir, module)
        with open(target, encoding="utf-8") as f:
            source = f.read()
        if not passes(workdir, tests, 600):
            sys.exit("the subset fails on the unmutated module")
        survivors, total = [], 0
        for total, (line, what, mutated) in enumerate(mutants(source, names), 1):
            with open(target, "w", encoding="utf-8") as f:
                f.write(mutated)
            if passes(workdir, tests, 300):  # a mutant may loop forever
                print(f"{module}:{line}: {what}: survives the subset", flush=True)
                if passes(workdir, ["--continue-on-collection-errors"], 1200):
                    survivors.append(f"{module}:{line}: {what}")
    print(f"{total} mutants, {len(survivors)} survive the full suite", *survivors, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
