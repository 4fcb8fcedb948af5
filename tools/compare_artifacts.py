#!/usr/bin/env python3
"""Compare the CLI artifacts of two source trees, apart from the fields that change from run to run.

Usage::

    python tools/compare_artifacts.py SRC_A SRC_B

Each ``SRC`` is a checkout of this repository; its ``src`` directory goes on
``PYTHONPATH``.  Both trees run the same CLI commands (:data:`COMMANDS`), with
single-threaded BLAS, each into its own directory under a temporary one:

- ``online-eig --n 12 --T 120 --seeds 2`` for every strategy and adversary;
- ``online-eig --n 2100 --T 12 --strategy rank1-lanczos --adversary streaming_pca``,
  above the dense limit;
- ``sdp-feas --seeds 2`` on both builtin instances, with and without ``--lanczos``;
- ``bench-lanczos`` with its defaults.

Before the comparison, the ``out``, ``timestamp`` and ``wall_ns`` fields are
dropped: JSON keys of those names at any depth, the same keys of a CSV's
``# config=`` line, and a CSV's ``wall_ns`` column.  Everything else must be
byte-identical.  Prints each artifact that differs or exists in one tree
only, then a summary line; exits 0 when all agree, 1 on any difference and 2
when a command fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

STRATEGIES = ("exact-mmw", "rank1", "rank1-lanczos")
ADVERSARIES = ("random_rotation", "fixed_matrix", "psd_random", "streaming_pca")
VOLATILE = frozenset({"out", "timestamp", "wall_ns"})

#: ``(directory name, CLI arguments)`` of every run.
COMMANDS = [
    (f"online-{strategy}-{adversary}",
     ["online-eig", "--n", "12", "--T", "120", "--seeds", "2", "--strategy", strategy, "--adversary", adversary])
    for strategy in STRATEGIES
    for adversary in ADVERSARIES
]
COMMANDS.append(
    ("online-above-limit",
     ["online-eig", "--n", "2100", "--T", "12", "--strategy", "rank1-lanczos", "--adversary", "streaming_pca"])
)
COMMANDS += [
    (f"sdp-{instance}{'-lanczos' if lanczos else ''}",
     ["sdp-feas", "--instance", f"builtin:{instance}", "--seeds", "2"] + (["--lanczos"] if lanczos else []))
    for instance in ("sym2x2", "rand20x10")
    for lanczos in (False, True)
]
COMMANDS.append(("bench-lanczos", ["bench-lanczos"]))


def _strip(value):
    """``value`` without the :data:`VOLATILE` keys of any mapping in it."""
    if isinstance(value, dict):
        return {key: _strip(item) for key, item in value.items() if key not in VOLATILE}
    if isinstance(value, list):
        return [_strip(item) for item in value]
    return value


def normalized(path):
    """The text of the artifact at ``path`` without its :data:`VOLATILE` fields."""
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".json"):
        return json.dumps(_strip(json.loads(text)), sort_keys=True, indent=2)
    lines, drop = [], None
    for line in text.split("\n"):
        if line.startswith("# config="):
            line = "# config=" + json.dumps(_strip(json.loads(line[len("# config="):])), sort_keys=True)
        elif line and not line.startswith("#"):
            cells = line.split(",")
            if drop is None:  # the header
                drop = [i for i, name in enumerate(cells) if name in VOLATILE]
            line = ",".join(cell for i, cell in enumerate(cells) if i not in drop)
        lines.append(line)
    return "\n".join(lines)


def artifacts(src, root):
    """Run :data:`COMMANDS` on the tree at ``src`` into directories under ``root``; ``{name/file: text}``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(src), "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("MMWSKETCH_OUTPUT_DIR", None)
    found = {}
    for name, args in COMMANDS:
        out = os.path.join(root, name)
        run = subprocess.run([sys.executable, "-m", "mmwsketch.cli", *args, "--out", out],
                             env=env, cwd=root, capture_output=True, text=True)
        if run.returncode != 0:
            print(f"{src}: {' '.join(args)} exited {run.returncode}:\n{run.stderr}", file=sys.stderr)
            sys.exit(2)
        for file in sorted(os.listdir(out)):
            found[f"{name}/{file}"] = normalized(os.path.join(out, file))
    return found


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, src in enumerate(argv):
            os.mkdir(os.path.join(tmp, str(i)))
            runs.append(artifacts(src, os.path.join(tmp, str(i))))
    a, b = runs
    differ = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"only in {argv[0] if name in a else argv[1]}: {name}")
            differ += 1
        elif a[name] != b[name]:
            print(f"differs: {name}")
            differ += 1
    print(f"{len(a.keys() | b.keys())} artifacts, {differ} differ (out, timestamp and wall_ns dropped)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
