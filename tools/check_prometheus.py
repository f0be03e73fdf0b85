#!/usr/bin/env python3
"""Validate a Prometheus text-exposition snapshot from `mfusim serve`.

Standard library only.  Reads the exposition either from a file or by
fetching GET /metrics from a --base-url, then checks:

  * every non-comment line is `name{labels} value` with a legal metric
    name and a parseable float value,
  * every sample is preceded by a `# TYPE` declaration for its family,
  * histogram families have monotonically non-decreasing cumulative
    `_bucket` counts ending in `+Inf`, plus `_sum` and `_count`,
  * the required mfusim_ families for the serve daemon are present.

Exit status: 0 on a clean snapshot, 1 with one line per problem on
stderr otherwise.

Example:

    python3 tools/check_prometheus.py --base-url http://127.0.0.1:8100
    python3 tools/check_prometheus.py metrics.prom
"""

import argparse
import re
import sys
import urllib.request

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>\S+)$")

REQUIRED_FAMILIES = [
    "mfusim_http_requests_total",
    "mfusim_http_connections_accepted_total",
    "mfusim_http_queue_depth",
    "mfusim_http_in_flight",
    "mfusim_result_cache_hits_total",
    "mfusim_result_cache_misses_total",
    "mfusim_result_cache_evictions_total",
    "mfusim_result_cache_resident_bytes",
    "mfusim_sim_squashes_total",
    "mfusim_sim_wrong_path_ops_total",
    "mfusim_sim_stall_mispredict_cycles_total",
]


def family_of(sample_name):
    """Strip histogram sample suffixes to recover the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[:-len(suffix)]
    return sample_name


def le_of(labels):
    """Extract the le="..." bound from a label string, or None."""
    match = re.search(r'le="([^"]*)"', labels or "")
    return match.group(1) if match else None


def validate(text):
    problems = []
    types = {}            # family -> declared TYPE
    samples = []          # (line_no, name, labels, value)
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary",
                    "untyped"):
                problems.append(f"line {line_no}: malformed TYPE: {line}")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue        # HELP or other comment
        match = SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {line_no}: unparseable sample: {line}")
            continue
        name = match.group("name")
        if not METRIC_NAME_RE.match(name):
            problems.append(f"line {line_no}: bad metric name: {name}")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(
                f"line {line_no}: non-numeric value: {line}")
            continue
        samples.append((line_no, name, match.group("labels"), value))

    for line_no, name, _, _ in samples:
        if family_of(name) not in types:
            problems.append(
                f"line {line_no}: sample {name} has no # TYPE "
                "declaration")

    # Histogram invariants, grouped per family + non-le label set.
    hist_series = {}
    for line_no, name, labels, value in samples:
        family = family_of(name)
        if types.get(family) != "histogram":
            continue
        other_labels = re.sub(r'le="[^"]*"', "", labels or "")
        other_labels = re.sub(r",+", ",", other_labels).strip(",")
        key = (family, other_labels)
        entry = hist_series.setdefault(
            key, {"buckets": [], "sum": None, "count": None})
        if name.endswith("_bucket"):
            entry["buckets"].append((line_no, le_of(labels), value))
        elif name.endswith("_sum"):
            entry["sum"] = value
        elif name.endswith("_count"):
            entry["count"] = value

    for (family, _), entry in hist_series.items():
        buckets = entry["buckets"]
        if not buckets:
            problems.append(f"histogram {family}: no _bucket samples")
            continue
        if buckets[-1][1] != "+Inf":
            problems.append(
                f"histogram {family}: last bucket le="
                f"{buckets[-1][1]!r}, expected +Inf")
        previous = -1.0
        for line_no, bound, value in buckets:
            if value < previous:
                problems.append(
                    f"line {line_no}: histogram {family} bucket "
                    f"le={bound} count {value} < previous {previous}")
            previous = value
        if entry["sum"] is None:
            problems.append(f"histogram {family}: missing _sum")
        if entry["count"] is None:
            problems.append(f"histogram {family}: missing _count")
        elif entry["count"] != buckets[-1][2]:
            problems.append(
                f"histogram {family}: _count {entry['count']} != +Inf "
                f"bucket {buckets[-1][2]}")

    present = {family_of(name) for _, name, _, _ in samples}
    for family in REQUIRED_FAMILIES:
        if family not in present:
            problems.append(f"required family missing: {family}")
    return problems, len(samples)


def main():
    parser = argparse.ArgumentParser(
        description="mfusim /metrics exposition validator")
    parser.add_argument("file", nargs="?",
                        help="exposition file (omit with --base-url)")
    parser.add_argument("--base-url", default=None,
                        help="fetch <base-url>/metrics instead")
    parser.add_argument("--timeout", type=float, default=10.0)
    args = parser.parse_args()

    if args.base_url:
        with urllib.request.urlopen(args.base_url + "/metrics",
                                    timeout=args.timeout) as response:
            text = response.read().decode()
    elif args.file:
        with open(args.file) as handle:
            text = handle.read()
    else:
        parser.error("pass a file or --base-url")

    problems, sample_count = validate(text)
    for problem in problems:
        print(f"check_prometheus: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"check_prometheus: OK ({sample_count} samples)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
