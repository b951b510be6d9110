"""Run every `sweepfd` recipe of the README's command-line block into one directory.

    PYTHONPATH=src python scripts/readme_recipes.py OUTDIR

Each recipe runs in-process through `sweepfd.cli.main`, with its `--out`
file placed in OUTDIR; each python quickstart block of the README is then
executed as a script.  The script exits nonzero if any recipe returns a
nonzero code or any quickstart block raises.  Run it on two checkouts and
`diff -r` the two directories to check that a change leaves the CLI output
byte-identical.
"""

import argparse
import re
import shlex
import sys
import traceback
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


def quickstarts(text):
    """Sources of the README's python blocks."""
    return re.findall(r"```python\n(.*?)```", text, flags=re.S)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    text = README.read_text()
    failed = 0
    for words in recipes(text):
        out = words.index("--out") + 1
        words[out] = str(args.outdir / Path(words[out]).name)
        try:
            code = cli_main(words)
        except SystemExit as exc:
            code = exc.code
        print(f"exit {code}: sweepfd {shlex.join(words)}", flush=True)
        failed += code != 0
    for number, source in enumerate(quickstarts(text), 1):
        name = f"README python block {number}"
        try:
            exec(compile(source, name, "exec"), {"__name__": "__readme__"})
        except Exception:   # report every failing block, then exit nonzero
            traceback.print_exc()
            failed += 1
            print(f"failed: {name}", flush=True)
        else:
            print(f"ok: {name}", flush=True)
    if failed:
        print(f"{failed} recipe(s) or quickstart block(s) failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
