#!/usr/bin/env python3
"""Validate a Prometheus text-format exposition scraped from `/metrics`.

Checks the contract the metrics endpoint promises scrapers (DESIGN.md §14):

* every sample line parses as `name[{labels}] value` with a float value;
* every sample's metric family carries a `# TYPE` declaration, and sample
  names match the declared kind (`_bucket`/`_sum`/`_count` only under a
  histogram family);
* histogram buckets appear in strictly increasing `le` order, end with the
  `le="+Inf"` bucket, have non-decreasing cumulative counts, and the `+Inf`
  bucket equals the family's `_count` sample;
* required families for an `apls` scrape are present (`--require` may extend
  the list with family names or histogram sample names like `foo_ms_bucket`;
  pass `--prefix` to validate a differently-prefixed exposition).

Exits non-zero with one message per defect, so CI can gate on "the metrics
endpoint serves a well-formed exposition".

Usage: validate_metrics.py <metrics-file> [--prefix apls_] [--require NAME ...]
"""

import math
import re
import sys

SAMPLE_RE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
LABEL_RE = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')
KNOWN_TYPES = {"counter", "gauge", "histogram"}


def parse_value(text):
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


def family_of(name, types):
    """Maps a sample name to its declared family (stripping histogram suffixes)."""
    if name in types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        base = name.removesuffix(suffix)
        if base != name and types.get(base) == "histogram":
            return base
    return None


def main() -> int:
    args = sys.argv[1:]
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = args[0]
    prefix = "apls_"
    required = []
    if "--prefix" in args:
        prefix = args[args.index("--prefix") + 1]
    if "--require" in args:
        required = args[args.index("--require") + 1 :]

    errors = []
    types = {}
    # histogram family -> list of (le, cumulative count); other family -> sample count
    buckets = {}
    counts = {}
    samples = 0

    lines = open(path, encoding="utf-8").read().splitlines()
    for lineno, line in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    errors.append(f"{where}: malformed TYPE line: {line!r}")
                    continue
                name, kind = parts[2], parts[3]
                if kind not in KNOWN_TYPES:
                    errors.append(f"{where}: unknown metric type {kind!r}")
                if name in types:
                    errors.append(f"{where}: duplicate TYPE declaration for {name}")
                types[name] = kind
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            errors.append(f"{where}: unparseable sample line: {line!r}")
            continue
        samples += 1
        name, labels_text, value_text = match.groups()
        value = parse_value(value_text)
        if value is None:
            errors.append(f"{where}: non-float sample value {value_text!r}")
            continue
        family = family_of(name, types)
        if family is None:
            errors.append(f"{where}: sample {name} has no TYPE declaration")
            continue
        labels = dict(LABEL_RE.findall(labels_text or ""))
        if name == f"{family}_bucket":
            le = labels.get("le")
            if le is None:
                errors.append(f"{where}: histogram bucket without an 'le' label")
                continue
            bound = parse_value(le)
            if bound is None or math.isnan(bound):
                errors.append(f"{where}: bucket has unparseable le={le!r}")
                continue
            buckets.setdefault(family, []).append((where, bound, value))
        elif name == f"{family}_count":
            counts[family] = (where, value)

    for family, rows in sorted(buckets.items()):
        bounds = [bound for _, bound, _ in rows]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            errors.append(f"{family}: bucket le bounds are not strictly increasing: {bounds}")
        if not bounds or not math.isinf(bounds[-1]):
            errors.append(f"{family}: bucket list does not end with le=\"+Inf\"")
        cumulative = [count for _, _, count in rows]
        if any(b < a for a, b in zip(cumulative, cumulative[1:])):
            errors.append(f"{family}: cumulative bucket counts decrease: {cumulative}")
        if family in counts and cumulative and cumulative[-1] != counts[family][1]:
            errors.append(
                f"{family}: +Inf bucket ({cumulative[-1]}) disagrees with "
                f"{family}_count ({counts[family][1]})"
            )
        if family not in counts:
            errors.append(f"{family}: histogram family is missing its _count sample")

    for name in [f"{prefix}requests_total", f"{prefix}build_info", f"{prefix}uptime_seconds"]:
        if name not in types:
            errors.append(f"{path}: required family {name} is absent")
    for name in required:
        if family_of(name, types) is None:
            errors.append(f"{path}: required family {name} is absent")

    if samples == 0:
        errors.append(f"{path}: exposition contains no samples")
    if errors:
        for message in errors:
            print(f"error: {message}", file=sys.stderr)
        return 1
    histograms = sum(1 for kind in types.values() if kind == "histogram")
    print(f"{path}: {samples} samples across {len(types)} families ({histograms} histograms) OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
