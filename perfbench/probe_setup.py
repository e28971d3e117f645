"""Set-up cost in a fresh interpreter: ``import plapsim`` plus ``parse_config``.

Usage: ``python3 perfbench/probe_setup.py CONFIG.json`` with ``src`` on
``PYTHONPATH``.  Prints the two times in seconds, separated by a space.
"""

import sys
from time import perf_counter


def main(config_path: str) -> None:
    t0 = perf_counter()
    import plapsim

    t1 = perf_counter()
    plapsim.parse_config(config_path)
    t2 = perf_counter()
    print(f"{t1 - t0!r} {t2 - t1!r}")


if __name__ == "__main__":
    main(sys.argv[1])
