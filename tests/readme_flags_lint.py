#!/usr/bin/env python3
"""Checks README.md's flag tables against the usage `sptc` prints.

A flag table is a Markdown table with a "Read by" column: each row names,
comma-separated, the subcommands that read the `--flags` in its first
cell. Every such flag must appear in the options that `sptc` alone lists
for each subcommand the row names; that usage is printed from sptc's one
option table, so the README cannot drift from what the driver reads.

Usage: readme_flags_lint.py SPTC README   exit 1 on a flag the usage does
                                          not list for a named subcommand
       readme_flags_lint.py --self-test   checks the checker
"""
import re
import subprocess
import sys

SECTION = re.compile(r"^sptc ([a-z]+(?: [a-z]+)?)(?: <.*)?$")
FLAG = re.compile(r"--[a-z][a-z-]*")
CELL_SPLIT = re.compile(r"(?<!\\)\|")


def usage_options(text):
    """{subcommand: set of --flags} from the usage text."""
    options = {}
    current = None  # the flags of the section whose option list this is
    for line in text.splitlines():
        match = SECTION.match(line)
        if match:
            options[match.group(1)] = set()
            current = None
        elif line.startswith("    options:"):
            current = options[list(options)[-1]]
            current.update(FLAG.findall(line))
        elif current is not None and line.startswith("            "):
            current.update(FLAG.findall(line))
        else:
            current = None
    return options


def table_rows(text):
    """Yields (line number, flags, subcommands) of each flag-table row."""
    read_by = None
    for number, line in enumerate(text.splitlines(), 1):
        if not line.startswith("|"):
            read_by = None
            continue
        cells = [c.strip() for c in CELL_SPLIT.split(line.strip())[1:-1]]
        if read_by is None:
            names = [c.lower() for c in cells]
            read_by = names.index("read by") if "read by" in names else -1
            continue
        if read_by < 0 or set(cells[0]) <= set("-: "):
            continue
        subs = [s.strip() for s in cells[read_by].split(",") if s.strip()]
        yield number, FLAG.findall(cells[0]), subs


def problems(usage, readme):
    """The lint's complaints; one naming the README if no row was checked."""
    options = usage_options(usage)
    found = []
    checked = 0
    for number, flags, subs in table_rows(readme):
        for sub in subs:
            if sub not in options:
                found.append(f"line {number}: no subcommand '{sub}'")
                continue
            for flag in flags:
                checked += 1
                if flag not in options[sub]:
                    found.append(f"line {number}: sptc {sub} does not "
                                 f"read {flag}")
    if checked == 0:
        found.append("no flag-table row (a table with a Read by column)")
    return found


def self_test():
    usage = ("usage: sptc <subcommand> [options]\n\nsptc run <x>\n"
             "    help\n    options: --scale --srb\n             --remarks\n"
             "\nsptc submit sweep\n    help\n    options: --socket\n"
             "\noptions:\n  --scale N   workload input scale\n")
    good = ("| Flag | Read by | Effect |\n|---|---|---|\n"
            "| `--scale N` / `--remarks F` | run | a \\| b |\n"
            "| `sptc submit sweep --socket P` | submit sweep | c |\n")
    cases = [
        (good, []),
        (good + "| `--socket P` | run | d |\n",
         ["line 5: sptc run does not read --socket"]),
        (good + "| `--srb N` | perf | e |\n", ["line 5: no subcommand 'perf'"]),
        ("| Flag | Effect |\n|---|---|\n| `--srb N` | f |\n",
         ["no flag-table row (a table with a Read by column)"]),
    ]
    ok = True
    for readme, want in cases:
        got = problems(usage, readme)
        if got != want:
            print(f"self-test: {readme!r}: got {got}, want {want}")
            ok = False
    return 0 if ok else 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__)
        return 2
    usage = subprocess.run([argv[1]], capture_output=True, text=True).stderr
    with open(argv[2], encoding="utf-8") as f:
        found = problems(usage, f.read())
    for p in found:
        print(f"{argv[2]}: {p}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
