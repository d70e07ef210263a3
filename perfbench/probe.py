"""Set-up probe: import conebraid, load a config and build its RunContext.

    python3 perfbench/probe.py CONFIG.json

Prints the location of the imported package, so the caller can check that
the code under test is the checkout's ``src`` tree.
"""

import sys


def main(config_path: str) -> None:
    import conebraid
    from conebraid.config import load_config
    from conebraid.suites import RunContext

    RunContext(load_config(config_path))
    print(conebraid.__file__)


if __name__ == "__main__":
    main(sys.argv[1])
