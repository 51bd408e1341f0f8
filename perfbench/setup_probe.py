"""Set-up cost of one cruxkit command, timed from inside a fresh interpreter.

    python3 perfbench/setup_probe.py CONFIG TOOLCHAIN PROVIDER

Imports ``cruxkit.cli`` and loads the config, toolchain and provider files
the way a stage does before its first real call ("-" skips a file), then
prints the elapsed seconds.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402


def main(argv: list[str]) -> int:
    config, toolchain, provider = argv
    import cruxkit.cli as cli

    cli.load_config(config, None)
    if toolchain != "-":
        cli._toolchain(toolchain)
    if provider != "-":
        cli._provider(provider, None)
    print(repr(time.perf_counter() - _START))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
