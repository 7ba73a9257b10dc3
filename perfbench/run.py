#!/usr/bin/env python3
"""Build and run the dpsyn benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/bench.exe and bin/dpsyn.exe with dune, then replaces
itself with bench.exe, which prints notes and, as its last line, the
JSON result.  See perfbench/README.md for the workloads and metrics.
"""

import glob
import os
import shutil
import subprocess
import sys


def find_dune():
    """dune from PATH, else from the active or an installed opam switch."""
    candidates = [shutil.which("dune")]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix:
        candidates.append(os.path.join(prefix, "bin", "dune"))
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if c and os.access(c, os.X_OK):
            return c
    return None


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of a dpsyn checkout",
              file=sys.stderr)
        return 2
    dune = find_dune()
    if dune is None:
        print("perfbench: dune not found", file=sys.stderr)
        return 2
    # The compilers sit next to dune.  The dune cache stays off so that
    # the build writes only inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               PATH=os.path.dirname(dune) + os.pathsep + os.environ.get("PATH", ""))
    try:
        build = subprocess.run(
            [dune, "build", "--root", ".", "--profile", "release",
             "./perfbench/bench.exe", "./bin/dpsyn.exe"],
            stdout=sys.stderr, env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        return 2
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
