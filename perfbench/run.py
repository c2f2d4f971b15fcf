"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Prints detail lines, then one JSON result
object as the last line of standard output.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run of
the same workload and seed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.inputs import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal roles: the benchmark spawns itself as a set-up probe and as
    # the serving process.
    parser.add_argument("--role", choices=("main", "setup", "server"), default="main")
    parser.add_argument("--work", type=Path)
    args = parser.parse_args(argv)

    if args.role == "setup":
        from perfbench import batch

        batch.setup_role(args.workload, args.seed)
    elif args.role == "server":
        from perfbench import serve

        serve.server_role(args.seed, args.work, bool(args.trace))
    elif args.workload == "serve_mixed":
        from perfbench import serve

        serve.run(args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import batch

        batch.run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
