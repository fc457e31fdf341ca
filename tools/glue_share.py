"""The benchmark's own time inside each traced instance (the glue).

    python3 tools/glue_share.py .perfbench/spans-infer_n8-1.jsonl

Reads the span file of a traced benchmark run (perfbench/run.py --trace 1).
The glue of an instance is the self time of the bench.* spans inside its
bench.instance span: bench.instance itself and the groups under it, not
bench.replay, which runs after the instance.  The traced accounting check
(perfbench/metrics.py, `accounting`) allows the glue 1% of an instance
when the measured tracing overhead is zero or negative.  The tail is the
time from the end of the last package span to the end of the instance,
where the instance's objects are freed.

Prints one line per instance (its time, glue, glue share and tail), then
the median and mean glue in us and as a share of the instance (the mean
share is total glue over total instance time, as the check sums them),
and the median and mean tail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import Span, self_times  # noqa: E402


def read_spans(path) -> list[Span]:
    with open(path, encoding="utf-8") as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


def glue_rows(spans) -> list[tuple[int, float, float, float]]:
    """(instance, instance seconds, glue seconds, tail seconds) per traced
    instance, in instance order."""
    own = self_times(spans)
    members: dict[int, list[Span]] = {}
    roots = {s.instance: s for s in spans if s.name == "bench.instance"}
    for s in spans:
        root = roots.get(s.instance)
        if root is not None and root.start <= s.start <= root.end:
            members.setdefault(s.instance, []).append(s)
    rows = []
    for instance, root in sorted(roots.items()):
        inside = members[instance]
        glue = sum(own[s.id] for s in inside if s.name.startswith("bench."))
        ends = [s.end for s in inside if not s.name.startswith("bench.")]
        rows.append((instance, root.duration, glue, root.end - max(ends, default=root.start)))
    return rows


def summary(rows) -> dict[str, float]:
    """Median and mean of the glue (us and % of the instance) and of the tail (us)."""
    glue = [g for _, _, g, _ in rows]
    tail = [t for _, _, _, t in rows]
    return {
        "glue_median_us": 1e6 * statistics.median(glue),
        "glue_mean_us": 1e6 * statistics.fmean(glue),
        "share_median_pct": 100 * statistics.median(g / d for _, d, g, _ in rows),
        "share_mean_pct": 100 * sum(glue) / sum(d for _, d, _, _ in rows),
        "tail_median_us": 1e6 * statistics.median(tail),
        "tail_mean_us": 1e6 * statistics.fmean(tail),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("spans", help="span file of a traced run (.jsonl)")
    args = parser.parse_args(argv)
    rows = glue_rows(read_spans(args.spans))
    if not rows:
        print(f"error: no bench.instance spans in {args.spans}", file=sys.stderr)
        return 1
    print("instance instance_us glue_us glue_pct tail_us")
    for instance, duration, glue, tail in rows:
        print(f"{instance} {1e6 * duration:.1f} {1e6 * glue:.1f} "
              f"{100 * glue / duration:.3f} {1e6 * tail:.1f}")
    s = summary(rows)
    print(f"glue over {len(rows)} instances: median {s['glue_median_us']:.1f} us, "
          f"mean {s['glue_mean_us']:.1f} us; share of the instance: median "
          f"{s['share_median_pct']:.3f}%, mean {s['share_mean_pct']:.3f}%")
    print(f"tail after the last package span: median {s['tail_median_us']:.1f} us, "
          f"mean {s['tail_mean_us']:.1f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
