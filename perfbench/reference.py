"""A fixed reference task that the benchmark times between its commands.

It does the kind of work lexiscope's commands do (split text lines into
tuples and a dict, scan with a regular expression, round-trip JSON) in a
fresh interpreter, and it never changes with the program under test.

    python3 perfbench/reference.py
"""

import json
import random
import re

rng = random.Random(0)
words = ["".join(rng.choice("abcdefghijklmnop") for _ in range(8)) for _ in range(20_000)]
lines = [f"{word} n 2 1 @ 2 1 {i:08d} {i + 7:08d}" for i, word in enumerate(words)] * 4
table = {}
for line in lines:
    fields = line.split()
    table[fields[0]] = (int(fields[2]), tuple(int(field) for field in fields[-2:]))
tokens = re.findall(r"[a-h]+|[i-p]+", " ".join(words))
document = json.loads(json.dumps([{"word": w, "count": table[w][0]} for w in words], indent=2))
if len(document) != len(words) or not tokens:
    raise SystemExit("reference task computed the wrong result")
