"""Statistics and the result file of the perfbench benchmark.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, and run-to-run spread as the distance between
the first and third quartile over the median.
"""

import json
import math
import statistics

# Percentiles a timing may be reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_SAMPLES_BEYOND = 10

RESULT_KEYS = ("workload", "seed", "trace", "correct", "attempted", "failed",
               "metrics", "checks", "provenance", "loss_hash")


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def nearest_rank(n, p):
    """1-based rank of the nearest-rank p-th percentile of n samples, in
    exact arithmetic on tenths of a percent (99.9% of 10000 is 9990)."""
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    per_mille = round(p * 10)
    return max(-(-per_mille * n // 1000), 1)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of all
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    return sorted(values)[nearest_rank(len(values), p) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - nearest_rank(n, p)


def highest_percentile(n):
    """The highest ladder percentile with at least ten of n samples beyond
    it, or None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        raise ValueError("quartiles need at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def write_result(path, result):
    missing = [key for key in RESULT_KEYS if key not in result]
    if missing:
        raise ValueError("result lacks %s" % ", ".join(missing))
    with open(path, "w") as out:
        json.dump(result, out, indent=1, sort_keys=True)
        out.write("\n")


def read_result(path):
    with open(path) as source:
        result = json.load(source)
    missing = [key for key in RESULT_KEYS if key not in result]
    if missing:
        raise ValueError("%s lacks %s" % (path, ", ".join(missing)))
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("%s: metric %s is malformed" % (path, name))
    return result
