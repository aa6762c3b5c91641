"""Set-up probe, started as a fresh process by the benchmark:

    python3 perfbench/setup_probe.py <src dir> <problem> [<problem> ...]

imports rasqp from <src dir>, builds each named problem once with data seed
0, then prints "ready". The parent times process start to that line."""

import sys

sys.path.insert(0, sys.argv[1])

from rasqp.bench import build_problem  # noqa: E402

for name in sys.argv[2:]:
    build_problem(name, 0)
print("ready", flush=True)
