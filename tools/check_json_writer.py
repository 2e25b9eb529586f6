#!/usr/bin/env python3
"""Fails when non-test Rust code writes JSON by hand instead of through the
workspace's one writer, `apls_telemetry::json`.

Scans every `.rs` file under `crates/*/src` and `src/`, skipping the writer
module itself and every item marked `#[cfg(test)]`. A string literal whose
text holds a JSON key (`"key":`) is reported, except in the fixed lines
listed in ALLOWED_CONSTS and the client's literal request lines
(`{"op":...}`).

    python3 tools/check_json_writer.py          # from the repository root
"""

import pathlib
import re
import sys

WRITER = pathlib.Path("crates/telemetry/src/json.rs")
# Fixed replies written verbatim, without a writer call.
ALLOWED_CONSTS = ("OVERLOADED_LINE", "SHUTTING_DOWN")
JSON_KEY = re.compile(r'"[A-Za-z_][A-Za-z0-9_]*":')


def literals(src):
    """Yields (line, text, in_test) for every string literal in `src`, with
    `\\"` and `\\\\` unescaped; comments and char literals are skipped."""
    i, line, depth = 0, 1, 0
    test_depth = None  # brace depth at which the current test item opened
    pending_test = False  # saw #[cfg(test)], its item has not opened yet
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            i += 1
        elif src.startswith("//", i):
            i = src.find("\n", i)
            i = n if i < 0 else i
        elif src.startswith("/*", i):
            end = src.find("*/", i) + 2
            line += src.count("\n", i, end)
            i = end
        elif src.startswith("#[cfg(test)]", i):
            pending_test = test_depth is None
            i += len("#[cfg(test)]")
        elif (m := re.compile(r'b?r(#*)"').match(src, i)) and (i == 0 or not src[i - 1].isalnum()):
            close = '"' + m.group(1)
            end = src.find(close, m.end())
            yield line, src[m.end():end], test_depth is not None or pending_test
            line += src.count("\n", i, end)
            i = end + len(close)
        elif c == '"' or (c == "b" and src.startswith('b"', i) and not src[i - 1].isalnum()):
            j = src.index('"', i) + 1
            start = j
            while src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            text = src[start:j].replace('\\"', '"').replace("\\\\", "\\")
            yield line, text, test_depth is not None or pending_test
            line += src.count("\n", i, j)
            i = j + 1
        elif c == "'" and re.compile(r"'(\\.[^']*|[^\\'])'").match(src, i):
            i = re.compile(r"'(\\.[^']*|[^\\'])'").match(src, i).end()
        elif c == "{":
            if pending_test:
                test_depth, pending_test = depth, False
            depth += 1
            i += 1
        elif c == "}":
            depth -= 1
            if test_depth == depth:
                test_depth = None
            i += 1
        elif c == ";" and pending_test and test_depth is None:
            pending_test = False  # a braceless test item (`use`, `mod x;`)
            i += 1
        else:
            i += 1


def main():
    files = sorted(pathlib.Path("crates").glob("*/src/**/*.rs")) + sorted(
        pathlib.Path("src").glob("**/*.rs")
    )
    found = []
    for path in files:
        if path == WRITER:
            continue
        src = path.read_text(encoding="utf-8")
        lines = src.split("\n")
        for line, text, in_test in literals(src):
            if in_test or not JSON_KEY.search(text) or text.startswith('{"op":'):
                continue
            context = " ".join(lines[max(0, line - 2) : line])
            if any(f"const {name}" in context for name in ALLOWED_CONSTS):
                continue
            found.append(f"{path}:{line}: {text[:80]!r}")
    for hit in found:
        print(hit)
    if found:
        print(
            f"{len(found)} hand-written JSON key(s) outside {WRITER}; "
            "write them through apls_telemetry::json",
            file=sys.stderr,
        )
        return 1
    print(f"checked {len(files)} files: all JSON goes through {WRITER}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
