"""Write the cli-fixtures goldens: the JSON reports that do not depend on the seed.

    python3 perfbench/capture_goldens.py

Run it only on a commit whose reports are known to be right; the benchmark
then requires every later commit to print the same bytes.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CLI_COMMANDS, GOLDENS, SEED, golden_path, import_library, run_cli  # noqa: E402


def main():
    os.environ.pop("HODGECALC_SEED", None)
    hc = import_library(HERE.parent / "src")
    GOLDENS.mkdir(exist_ok=True)
    for argv in CLI_COMMANDS:
        if SEED in argv:
            continue
        code, text = run_cli(hc, argv)
        if code != 0:
            raise SystemExit(f"{argv} exited with {code}; not writing a golden")
        golden_path(argv).write_text(text)
        print(golden_path(argv).name)


if __name__ == "__main__":
    main()
