#!/usr/bin/env python3
"""Refuses a bare `!` command in the run: blocks of CI workflow files.

A step's shell runs with errexit, and errexit ignores a command whose
status is inverted with `!`: a line such as `! pgrep -f server` never
fails its step, whatever pgrep finds. Write the check as
`if pgrep -f server; then exit 1; fi` instead.

Usage: ci_negation_lint.py WORKFLOW.yml...   exit 1 on any bare `!`
       ci_negation_lint.py --self-test       checks the checker
"""
import re
import sys

RUN = re.compile(r"^(\s*)(?:-\s+)?run:\s*(.*?)\s*$")
BARE_NEGATION = re.compile(r"^!(\s|$)")


def bare_negations(lines):
    """Yields (line number, text) of each run: command that starts with a
    bare `!`. Continuation lines (after a trailing backslash) are not
    command starts."""
    block_indent = None  # indentation of the run: key inside its block
    continued = False
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if block_indent is not None:
            indent = len(line) - len(line.lstrip())
            if not text or indent > block_indent:
                if text and not continued and BARE_NEGATION.match(text):
                    yield number, text
                if text:
                    continued = text.endswith("\\")
                continue
            block_indent = None
        match = RUN.match(line)
        if not match:
            continue
        value = match.group(2)
        if value[:1] in ("|", ">"):
            block_indent = len(match.group(1))
            continued = False
        elif BARE_NEGATION.match(value):
            yield number, value


def self_test():
    sample = """\
      - name: leak check
        run: |
          # ! in a comment is fine
          test ! -e sock
          if pgrep -f "sptc serve"; then exit 1; fi
          ls a \\
            ! b
      - run: echo fine
"""
    assert list(bare_negations(sample.splitlines())) == []
    bad = sample + "        run: |\n          ! pgrep x\n      - run: ! ls\n"
    found = [n for n, _ in bare_negations(bad.splitlines())]
    assert found == [10, 11], found
    print("self-test passed")
    return 0


def main(paths):
    if paths == ["--self-test"]:
        return self_test()
    failed = False
    for path in paths:
        with open(path, encoding="utf-8") as f:
            for number, text in bare_negations(f.read().splitlines()):
                print(f"{path}:{number}: bare '!' never fails the step "
                      f"under errexit: {text}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
