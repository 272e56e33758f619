"""Fixed reference work used to normalise timings for host speed.

The benchmark host is shared; neighbours slow every process on it, and
programs with a working set beyond the CPU caches slow the most. This
script does a fixed amount of pointer chasing and sorting over about 120 MB
of small Python objects, independent of pipevuln, so its run time tracks
the host's speed for work like pipevuln's. It prints nothing.

Usage: ``python3 reference.py [objects]`` (default 300000; the smoke test
passes a small count).
"""

import random
import sys

size = int(sys.argv[1]) if len(sys.argv) > 1 else 300_000
rng = random.Random(1)
items = [{"id": f"n{i}", "w": rng.random(), "next": rng.randrange(size)}
         for i in range(size)]
index = {item["id"]: item for item in items}
node, total = items[0], 0.0
for _ in range(2 * size):
    node = items[node["next"]]
    total += index[node["id"]]["w"]
items.sort(key=lambda item: item["w"])
