"""Text-echo pseudo-simulator for hermetic harness runs.

This is NOT a Verilog simulator. It exists so the compile/run/score plumbing
can be exercised end to end on machines with no HDL toolchain installed.
Compile writes its image as plain text, the design, a newline and the
testbench, so neither step imports anything beyond ``sys`` and ``time``;
run replays the directive lines found in that text, design lines first.

Directives (one per line, anywhere in a file):
    // EMIT: <text>     print <text> on stdout (design lines first, then tb)
    // SLEEP: <seconds> sleep before emitting anything (timeout testing)
    // EXITCODE: <n>    exit with status n after emitting (crash testing)

Compilation fails (exit 1) when either file contains the bare token
SYNTAX_ERROR outside a // comment, standing in for a parse error.

Usage (run by path, as ``ToolchainConfig.echo()`` does; standard library only):
    python -I -S /abs/path/to/cruxkit/echosim.py compile <out> <design> <tb>
    python -I -S /abs/path/to/cruxkit/echosim.py run <out>
"""

from __future__ import annotations

import sys
import time

POISON = "SYNTAX_ERROR"


def _has_poison(text: str) -> bool:
    for line in text.split("\n"):
        code = line.split("//", 1)[0]
        if POISON in code:
            return True
    return False


def _directives(text: str, key: str) -> list[str]:
    out = []
    for line in text.split("\n"):
        stripped = line.strip()
        marker = f"// {key}:"
        if stripped.startswith(marker):
            out.append(stripped[len(marker):].strip())
    return out


def _compile(out_path: str, design_path: str, tb_path: str) -> int:
    with open(design_path, encoding="utf-8") as f:
        design = f.read()
    with open(tb_path, encoding="utf-8") as f:
        tb = f.read()
    for label, text in (("design", design), ("testbench", tb)):
        if _has_poison(text):
            print(f"echosim: syntax error in {label}", file=sys.stderr)
            return 1
    with open(out_path, "w", encoding="utf-8") as f:
        f.write(design + "\n" + tb)
    return 0


def _run(out_path: str) -> int:
    with open(out_path, encoding="utf-8") as f:
        image = f.read()
    for value in _directives(image, "SLEEP"):
        time.sleep(float(value))
    for value in _directives(image, "EMIT"):
        print(value)
    codes = _directives(image, "EXITCODE")
    return int(codes[0]) if codes else 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 4 and args[0] == "compile":
        return _compile(args[1], args[2], args[3])
    if len(args) == 2 and args[0] == "run":
        return _run(args[1])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
