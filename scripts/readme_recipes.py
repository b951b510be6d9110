"""Run every `sweepfd` recipe of the README's command-line block into one directory.

    PYTHONPATH=src python scripts/readme_recipes.py OUTDIR

Each recipe runs in-process through `sweepfd.cli.main`, with its `--out`
file placed in OUTDIR.  The script exits nonzero if any recipe returns a
nonzero code.  Run it on two checkouts and `diff -r` the two directories
to check that a change leaves the CLI output byte-identical.
"""

import argparse
import re
import shlex
import sys
from pathlib import Path

from sweepfd.cli import main as cli_main

README = Path(__file__).resolve().parent.parent / "README.md"


def recipes(text):
    """argv lists of the `sweepfd` commands in the README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "sweepfd":
                commands.append(words[1:])
    return commands


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    failed = 0
    for words in recipes(README.read_text()):
        out = words.index("--out") + 1
        words[out] = str(args.outdir / Path(words[out]).name)
        try:
            code = cli_main(words)
        except SystemExit as exc:
            code = exc.code
        print(f"exit {code}: sweepfd {shlex.join(words)}", flush=True)
        failed += code != 0
    if failed:
        print(f"{failed} recipe(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
