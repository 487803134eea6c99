#!/usr/bin/env python3
"""Regenerate the three reference sensitivity curves as CSV files.

Writes one file per preset (10 dB input squeezing; lossless / eps^2 = 0.04 /
doubled excess noise), each sweeping the single, differential and optimal
read-outs over a 721-point phase grid, by running

    sqzmzi sweep --preset <name> --points <points> -o <output-dir>/<name>.csv

for every preset.
"""

import argparse
from pathlib import Path

from sqzmzi.cli import PRESETS
from sqzmzi.cli import main as sqzmzi


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", type=Path, default=Path("curves"),
                        help="directory for the CSV files (default: ./curves)")
    parser.add_argument("--points", type=int, default=721, help="phase grid size")
    args = parser.parse_args()

    for name in PRESETS:
        path = args.output_dir / f"{name}.csv"
        # absolute, so that $SQZMZI_OUTPUT_DIR does not move it
        sqzmzi.main(["sweep", "--preset", name, "--points", str(args.points),
                     "-o", str(path.absolute())], prog_name="sqzmzi", standalone_mode=False)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
