#!/usr/bin/env python
"""Write the bundled demo models, modifications, and the default benchmark
family as JSON files, ready for the mkfree CLI.

Usage: python scripts/make_demos.py [out_dir]   (default: ./demo_files)

``patch.json`` holds the uniform-tension patch model only.  A model file
carries no solver settings, so ``mkfree solve patch.json`` runs at the
default alpha = 3, where the recovered stress deviates from the exact
constant stress by 1.8e-2 relative; with ``demos.PATCH_CONFIG`` (alpha =
8, Python API only) it deviates by 4.0e-7.
"""

import json
import sys
from pathlib import Path

from mkfree import demos
from mkfree.model import model_to_dict, modification_to_dict


def main():
    out = Path(sys.argv[1] if len(sys.argv) > 1 else "demo_files")
    out.mkdir(parents=True, exist_ok=True)

    cloud, grid, mat, bc = demos.patch()
    (out / "patch.json").write_text(
        json.dumps(model_to_dict(cloud, grid, mat, bc), indent=1))

    cloud, grid, mat, bc, _tip = demos.cantilever()
    (out / "cantilever.json").write_text(
        json.dumps(model_to_dict(cloud, grid, mat, bc), indent=1))

    for name, builder in (("plate_with_hole", demos.plate_with_hole),
                          ("notch_fill", demos.notch_fill),
                          ("l_frame_3d", demos.l_frame_3d)):
        cloud, grid, mat, bc, mod = builder()
        (out / f"{name}.json").write_text(
            json.dumps(model_to_dict(cloud, grid, mat, bc), indent=1))
        (out / f"{name}.mod.json").write_text(
            json.dumps(modification_to_dict(mod), indent=1))

    (out / "bench_family.json").write_text(
        json.dumps(demos.default_bench_family(), indent=1))
    print(f"demo files written to {out}/")


if __name__ == "__main__":
    main()
