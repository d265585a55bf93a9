#!/usr/bin/env python3
"""Refuses a bare `!` command in the run: blocks of CI workflow files and
in the end-to-end shell scripts (and the library they source).

A step's shell, and each script, runs with errexit, and errexit ignores a
command whose status is inverted with `!`: a line such as
`! pgrep -f server` never fails its step, whatever pgrep finds, and
neither does `{ ! pgrep -f server; }` in a function, `a && ! b` or
`then ! b`. Write the check as `if pgrep -f server; then exit 1; fi`
instead. A `!` in an if/while/until condition is fine.

Usage: ci_negation_lint.py FILE...     exit 1 on any bare `!`; a FILE
                                       ending in .sh is a shell script,
                                       any other a workflow
       ci_negation_lint.py --self-test checks the checker
"""
import re
import sys

RUN = re.compile(r"^(\s*)(?:-\s+)?run:\s*(.*?)\s*$")
QUOTED = re.compile(r"'[^']*'|\"(?:\\.|[^\"\\])*\"")
COMMENT = re.compile(r"(^|\s)#.*$")
CONDITION = re.compile(r"\b(?:if|elif|while|until)\b.*?(\bthen\b|\bdo\b|$)")
# A `!` where a command starts: at the start of the line, or after a
# separator or a keyword that begins a command list.
BARE_NEGATION = re.compile(
    r"(?:^|[;{]|&&|\|\||\b(?:then|do|else)\b)\s*!(?=\s|$)")


def bare_negation(text):
    """True if the shell line `text` runs a command inverted with `!`
    outside a condition."""
    text = COMMENT.sub("", QUOTED.sub("''", text))
    return bool(BARE_NEGATION.search(CONDITION.sub(r"\1", text)))


def bare_negations(lines):
    """Yields (line number, text) of each run: line of a workflow that runs
    a bare `!` command. Continuation lines (after a trailing backslash) are
    not command starts."""
    block_indent = None  # indentation of the run: key inside its block
    continued = False
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if block_indent is not None:
            indent = len(line) - len(line.lstrip())
            if not text or indent > block_indent:
                if text and not continued and bare_negation(text):
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
        elif bare_negation(value):
            yield number, value


def script_negations(lines):
    """Yields (line number, text) of each line of a shell script that runs
    a bare `!` command."""
    continued = False
    for number, line in enumerate(lines, 1):
        text = line.strip()
        if text and not continued and bare_negation(text):
            yield number, text
        continued = text.endswith("\\")


def self_test():
    fine = """\
# ! in a comment is fine
test ! -e sock
[ ! -e sock ] && echo gone  # ; ! here is a comment
if pgrep -f "sptc serve"; then exit 1; fi
if ! pgrep -f x; then echo gone; fi
if a && ! b; then echo; fi
while ! test -e sock; do sleep 1; done
echo "a; ! b" '{ ! c'
test "$x" != "$y"
none_running() { if pgrep -f "$1"; then exit 1; fi; }
ls a \\
  ! b
"""
    bad = """\
! pgrep x
leak() { ! pgrep -f "$1"; }
check() {
  ! pgrep x
}
wait "$pid" && ! pgrep x
cd "$work"; ! ls a
if a; then ! b; fi
"""
    found = [n for n, _ in script_negations((fine + bad).splitlines())]
    assert found == [13, 14, 16, 18, 19, 20], found

    workflow = """\
      - name: leak check
        run: |
          # ! in a comment is fine
          test ! -e sock
          if pgrep -f "sptc serve"; then exit 1; fi
          ls a \\
            ! b
      - run: echo fine
"""
    assert list(bare_negations(workflow.splitlines())) == []
    workflow += ("        run: |\n          ! pgrep x\n"
                 "          wait && ! pgrep x\n      - run: ! ls\n")
    found = [n for n, _ in bare_negations(workflow.splitlines())]
    assert found == [10, 11, 12], found
    print("self-test passed")
    return 0


def main(paths):
    if paths == ["--self-test"]:
        return self_test()
    failed = False
    for path in paths:
        scan = script_negations if path.endswith(".sh") else bare_negations
        with open(path, encoding="utf-8") as f:
            for number, text in scan(f.read().splitlines()):
                print(f"{path}:{number}: bare '!' never fails under "
                      f"errexit: {text}")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
