"""The benchmark's definition and the tools around it.

Everything `BENCHMARK.json` says is defined here once: the workloads, the
end-to-end metrics with their bounds, and the per-layer metrics. The rest
of the module validates what the benchmark program reports, keeps result
files (one JSON object per line, one line per run) and compares two of
them.
"""

import json
import re
import statistics
from dataclasses import dataclass
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 20


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float = None  # end-to-end metrics only

    def worse_by(self, base, new):
        """How much worse `new` is than `base`, as a share of `base`."""
        change = (new - base) / base
        return change if self.better == "lower" else -change


WORKLOADS = [
    ("construct_latency",
     "every paper construct once per round on 2 images over a zero-latency "
     "network: all the time is runtime overhead (wake, inbox, dispatch, "
     "completion cells, pump handoff, finish waves)"),
    ("ra_fs",
     "RandomAccess function shipping, bunch 1024, Gemini-like network with "
     "inbox 512: the throughput regime of many AMs per finish, flow control "
     "and acks"),
    ("ra_fs_reliable",
     "the same kernel and inputs with a seeded light-drop fault plan, so "
     "every message is enveloped, acked, deduplicated and sometimes resent"),
    ("paper_models",
     "the single-threaded DES models (Fig. 14 RA, chaos at 4096 images, UTS, "
     "Fig. 12) and the capped caf-check smoke suite: no threads, so runtime "
     "changes must not move them"),
]

END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
]

PER_LAYER = [
    # caf-runtime: image and spawn, copy and cofence, collectives, finish
    Metric("spawn.initiate_ns", "ns", "lower"),
    Metric("event.wait_us", "us", "lower"),
    Metric("copy.initiate_ns", "ns", "lower"),
    Metric("cofence.wait_us", "us", "lower"),
    Metric("collective.barrier_us", "us", "lower"),
    Metric("collective.allreduce_us", "us", "lower"),
    Metric("finish.body_us", "us", "lower"),
    Metric("finish.detect_us", "us", "lower"),
    Metric("finish.waves", "count", "lower"),
    # per-construct medians of the traced construct loop
    Metric("spawn_rtt_us", "us", "lower"),
    Metric("barrier_us", "us", "lower"),
    Metric("finish_empty_us", "us", "lower"),
    Metric("finish_spawn_us", "us", "lower"),
    Metric("copy_cofence_us", "us", "lower"),
    Metric("copy_event_us", "us", "lower"),
    Metric("copy_finish_us", "us", "lower"),
    # caf-net: fabric, inbox, reliable sublayer, comm pump
    Metric("fabric.msgs_per_op", "ratio", "lower"),
    Metric("fabric.bytes_per_op", "B", "lower"),
    Metric("fabric.stalls_per_op", "ratio", "lower"),
    Metric("fabric.send_ns", "ns", "lower"),
    Metric("fabric.recv_ns", "ns", "lower"),
    Metric("fabric.pingpong_us", "us", "lower"),
    Metric("inbox.push_ns", "ns", "lower"),
    Metric("inbox.pop_ns", "ns", "lower"),
    Metric("inbox.wake_us", "us", "lower"),
    Metric("reliable.pingpong_us", "us", "lower"),
    Metric("reliable.acks_per_msg", "ratio", "lower"),
    Metric("reliable.retries_per_msg", "ratio", "lower"),
    Metric("reliable.dups_per_msg", "ratio", "lower"),
    Metric("reliable.goodput_frac", "ratio", "higher"),
    Metric("pump.handoff_us", "us", "lower"),
    # caf-core termination, caf-des engine, caf-sim models, caf-check
    Metric("detector.run_us", "us", "lower"),
    Metric("detector.waves", "count", "lower"),
    Metric("des.ns_per_event", "ns", "lower"),
    Metric("sim.ra_s", "s", "lower"),
    Metric("sim.chaos_s", "s", "lower"),
    Metric("sim.uts_s", "s", "lower"),
    Metric("sim_wall_s", "s", "lower"),
    Metric("check.states", "count", "lower"),
    Metric("check.schedules", "count", "lower"),
    Metric("check.explore_s", "s", "lower"),
    Metric("check_states_per_s", "1/s", "higher"),
    # the tracing itself
    Metric("trace.overhead_frac", "ratio", "lower"),
]

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def describe():
    """The content of `BENCHMARK.json`."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def describe_text():
    return json.dumps(describe(), indent=2, ensure_ascii=False) + "\n"


def spec_problems():
    """Everything in the definition that breaks the benchmark's rules."""
    out = []
    names = [n for n, _ in WORKLOADS]
    if not 2 <= len(names) <= 8:
        out.append(f"{len(names)} workloads, want 2 to 8")
    for n, why in WORKLOADS:
        if not NAME_RE.match(n):
            out.append(f"bad workload name {n!r}")
        if len(why) > 200 or "\n" in why:
            out.append(f"workload {n}: why must be one line of at most 200 characters")
    for group, lo, hi in [(END_TO_END, 1, 16), (PER_LAYER, 1, 128)]:
        if not lo <= len(group) <= hi:
            out.append(f"{len(group)} metrics in a group, want {lo} to {hi}")
    everything = END_TO_END + PER_LAYER
    for m in everything:
        if not NAME_RE.match(m.name):
            out.append(f"bad metric name {m.name!r}")
        if not UNIT_RE.match(m.unit):
            out.append(f"metric {m.name}: bad unit {m.unit!r}")
        if m.better not in ("lower", "higher"):
            out.append(f"metric {m.name}: better is {m.better!r}")
    for m in END_TO_END:
        if not (isinstance(m.bound, float) and 0 < m.bound <= 0.25):
            out.append(f"metric {m.name}: bound {m.bound!r} outside (0, 0.25]")
    for m in PER_LAYER:
        if m.bound is not None:
            out.append(f"per-layer metric {m.name} has a bound")
    all_names = names + [m.name for m in everything]
    dups = sorted({n for n in all_names if all_names.count(n) > 1})
    if dups:
        out.append(f"names used twice: {dups}")
    setup = [m for m in END_TO_END if m.name == "setup_s"]
    if not setup or (setup[0].unit, setup[0].better) != ("s", "lower"):
        out.append("setup_s (unit s, better lower) is required")
    elif setup[0].bound < max(m.bound for m in END_TO_END):
        out.append("setup_s must have the largest bound")
    return out


def expected_metrics(trace):
    return PER_LAYER if trace else END_TO_END


def record_problems(record, trace):
    """What is wrong with one run's record, as the program printed it."""
    out = []
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in record:
            out.append(f"record lacks {key!r}")
    if out:
        return out
    want = {m.name: m for m in expected_metrics(trace)}
    got = record["metrics"]
    missing = sorted(set(want) - set(got))
    extra = sorted(set(got) - set(want))
    if missing:
        out.append(f"missing metrics {missing}")
    if extra:
        out.append(f"unlisted metrics {extra}")
    for name in sorted(set(want) & set(got)):
        value, unit = got[name].get("value"), got[name].get("unit")
        if unit != want[name].unit:
            out.append(f"{name}: unit {unit!r}, want {want[name].unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value != value:
            out.append(f"{name}: value {value!r} is not a number")
    if not (isinstance(record["attempted"], int) and record["attempted"] >= 1):
        out.append(f"attempted is {record['attempted']!r}")
    if not isinstance(record["failed"], int):
        out.append(f"failed is {record['failed']!r}")
    return out


def result_line(record):
    """The last line the benchmark prints: exactly the driver's keys."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        },
    })


def append_result(path, record):
    with open(path, "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")


def load_results(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summarize(values):
    """(median, q1, q3, spread): spread is (q3 - q1) / median, the quartiles
    as `statistics.quantiles(values, n=4)` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def series(records, trace=False):
    """{workload: {metric: [values]}} over the untraced (or traced) runs."""
    out = {}
    for r in records:
        if bool(r.get("trace")) != trace:
            continue
        per = out.setdefault(r["workload"], {})
        for group in ("metrics", "extras"):
            for name, m in r.get(group, {}).items():
                if isinstance(m.get("value"), (int, float)):
                    per.setdefault(name, []).append(m["value"])
    return out


def compare(base, new):
    """Rows comparing two result sets, and whether every gated metric
    agrees. Gated metrics agree when `new`'s median is not worse than
    `base`'s by more than the bound, and (except for setup_s) each side's
    spread stays within the bound."""
    a, b = series(base), series(new)
    gated = {m.name: m for m in END_TO_END}
    rows, ok = [], True
    for workload in sorted(set(a) | set(b)):
        names = sorted(set(a.get(workload, {})) | set(b.get(workload, {})),
                       key=lambda n: (n not in gated, n))
        for name in names:
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            m = gated.get(name)
            if not va or not vb:
                verdict = "missing" if m else "-"
                ok = ok and not m
                rows.append((workload, name, va and summarize(va), vb and summarize(vb), verdict))
                continue
            sa, sb = summarize(va), summarize(vb)
            if m is None:
                verdict = "-"
            else:
                worse = m.worse_by(sa[0], sb[0]) if sa[0] else 0.0
                spread_ok = name == "setup_s" or (sa[3] <= m.bound and sb[3] <= m.bound)
                agree = worse <= m.bound and spread_ok
                verdict = "agree" if agree else "DISAGREE"
                ok = ok and agree
            rows.append((workload, name, sa, sb, verdict))
    return rows, ok


def format_compare(rows):
    def side(s):
        if not s:
            return f"{'-':>38}"
        med, q1, q3, spread = s
        return f"{med:>12.6g} [{q1:>10.6g},{q3:>10.6g}] {spread:>5.1%}"
    head = (f"{'workload':<18} {'metric':<22} {'A median [q1, q3] spread':>40} "
            f"{'B median [q1, q3] spread':>40}  verdict")
    lines = [head, "-" * len(head)]
    for workload, name, sa, sb, verdict in rows:
        lines.append(f"{workload:<18} {name:<22} {side(sa):>40} {side(sb):>40}  {verdict}")
    return "\n".join(lines)


def steadiness(records):
    """Rows of (workload, metric, median, spread, bound, steady) for the
    gated metrics, where steady means the spread is under a third of the
    bound (setup_s is reported but exempt)."""
    rows = []
    for workload, per in sorted(series(records).items()):
        for m in END_TO_END:
            if m.name in per:
                med, _, _, spread = summarize(per[m.name])
                steady = m.name == "setup_s" or spread < m.bound / 3
                rows.append((workload, m.name, med, spread, m.bound, steady))
    return rows


def benchmark_json_path():
    return Path(__file__).resolve().parent.parent / "BENCHMARK.json"
