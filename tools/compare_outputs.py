#!/usr/bin/env python3
"""
Compare two record files of ``tools/record_outputs.py``, record by record.
Prints, for each field whose numbers moved, the largest relative gap
between them (floats are recorded by ``repr``, bare or inside a string
such as a ``Bound``), then every field that changed otherwise (an array
digest, a verdict, a label, an error), each with the count of records it
changed in.  A field is a path of keys, list positions written ``[]``.
Records past the end of the shorter file are counted as left over in the
longer one::

    python tools/compare_outputs.py before.jsonl after.jsonl
"""

import json
import math
import re
import sys
from collections import Counter
from itertools import zip_longest

#: A number standing alone in a recorded string (not inside a digest).
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?![\w.])")


def leaves(value, path=""):
    """``{path: leaf as JSON}`` over a record's nested dicts and lists."""
    if isinstance(value, dict):
        items = [(path + "." + key if path else key, item) for key, item in value.items()]
    elif isinstance(value, list):
        items = [("%s[%d]" % (path, i), item) for i, item in enumerate(value)]
    else:
        return {path: json.dumps(value)}
    return {k: v for sub, item in items for k, v in leaves(item, sub).items()}


def gap(old: str, new: str):
    """
    The largest relative gap between the numbers of two leaves, ``None`` if
    they differ otherwise.  A number that became or stopped being infinite
    or NaN has an infinite gap.
    """
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    pairs = [(float(a), float(b)) for a, b in zip(NUMBER.findall(old), NUMBER.findall(new))]
    return max((abs(a - b) / max(abs(a), abs(b)) if math.isfinite(a) and math.isfinite(b)
                else math.inf for a, b in pairs
                if a != b and not (math.isnan(a) and math.isnan(b))), default=0.0)


def main(before: str, after: str) -> int:
    gaps, moved, changed, records = {}, Counter(), Counter(), 0
    extra, longer = 0, None  # the records past the shorter file's end, and the file holding them
    with open(before, encoding="utf-8") as old_file, open(after, encoding="utf-8") as new_file:
        for old_line, new_line in zip_longest(old_file, new_file):
            if old_line is None or new_line is None:
                extra += 1
                longer = before if new_line is None else after
                continue
            records += 1
            old, new = leaves(json.loads(old_line)), leaves(json.loads(new_line))
            moved_here, changed_here = set(), set()
            for path in old.keys() | new.keys():
                field = re.sub(r"\[\d+\]", "[]", path)
                g = gap(old[path], new[path]) if path in old and path in new else None
                if g is None:
                    changed_here.add(field)
                elif g > 0:
                    gaps[field] = max(gaps.get(field, 0.0), g)
                    moved_here.add(field)
            moved.update(moved_here)
            changed.update(changed_here)
    print("%d records compared, %d left over%s" % (records, extra, " in " + longer if extra else ""))
    for field in sorted(gaps):
        print("moved    %-40s largest relative gap %.2e in %d records" % (field, gaps[field], moved[field]))
    for field in sorted(changed):
        print("changed  %-40s in %d records" % (field, changed[field]))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
