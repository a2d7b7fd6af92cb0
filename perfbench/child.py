"""Entry points the benchmark starts, each in a fresh interpreter.

The package has no ``rqmsim.__main__`` and an uninstalled checkout has no
``rqmsim`` console script, so the command line is reached as
``rqmsim.cli.main`` with the checkout's ``src`` first on the path.

    python3 perfbench/child.py run ARGS...           rqmsim.cli.main(ARGS)
    python3 perfbench/child.py trace SPANS ARGS...   the same under tracer.py
    python3 perfbench/child.py setup SOURCE          import, load and compile
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

SWEEP = "disturbance-profile"


def setup(source: str) -> int:
    """The work a run does before its first trial: import rqmsim, then load
    and compile the scenario (a built-in name or a scenario file), or build
    the disturbance sweep's template world."""
    import rqmsim  # noqa: F401  (the whole package, as the CLI imports it)
    from rqmsim.cli import parse_scenario_file
    from rqmsim.dynamics import disturbance_world_template
    from rqmsim.scenarios import BUILTIN_SCENARIOS, compile_scenario

    if source == SWEEP:
        disturbance_world_template()
    elif source in BUILTIN_SCENARIOS:
        compile_scenario(BUILTIN_SCENARIOS[source]())
    else:
        with open(source, encoding="utf-8") as fh:
            compile_scenario(parse_scenario_file(fh.read()))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        from rqmsim.cli import main as cli_main
        return cli_main(rest)
    if mode == "trace":
        from tracer import run_traced
        return run_traced(rest[0], rest[1:])
    if mode == "setup":
        return setup(rest[0])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
