"""Turns the step program's raw output into metrics and output checks.

`end_to_end` reads an untraced (--trace 0) run, `per_layer` a traced one
(--trace 1) together with its spans. Both return (metrics, checks): metrics
map each name of END_TO_END or PER_LAYER to its value, checks map a check
name to whether it passed. README.md explains what each metric times and what it should move.
"""

import hashlib
import math
import struct

from stats import median, percentile

# name: (unit, better). Must list exactly the metrics of BENCHMARK.json.
END_TO_END = {
    "samples_per_s": ("samples/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "cpu_ms_per_sample": ("ms", "lower"),
}

NAMED_LAYERS = ("conv1", "conv2", "conv3", "ip1")

PER_LAYER = {
    "data.wait_ms_p50": ("ms", "lower"),
    "data.wait_share": ("ratio", "lower"),
    "dl.fwd_ms": ("ms", "lower"),
    "dl.bwd_ms": ("ms", "lower"),
    "dl.update_ms": ("ms", "lower"),
    **{"dl.%s.%s_ms" % (layer, phase): ("ms", "lower")
       for layer in NAMED_LAYERS for phase in ("fwd", "bwd")},
    "dl.flops_per_step": ("flop", "lower"),
    "dl.gflops": ("GFLOP/s", "higher"),
    "core.step_ms_p50": ("ms", "lower"),
    "core.compute_ms_p50": ("ms", "lower"),
    "core.compute_skew_ms": ("ms", "lower"),
    "core.comm_exposed_ms": ("ms", "lower"),
    "core.overlap_frac": ("ratio", "higher"),
    "mpi.bcast_ms": ("ms", "lower"),
    "mpi.reduce_ms": ("ms", "lower"),
    "mpi.collectives_per_step": ("count", "lower"),
    "mpi.bytes_per_step": ("B", "lower"),
    "mpi.msgs_per_step": ("count", "lower"),
    "mpi.zero_copy_ratio": ("ratio", "higher"),
    "mpi.credit_wait_us_per_step": ("us", "lower"),
    "mpi.peak_mailbox_kb": ("KiB", "lower"),
    "util.registry_misses_per_step": ("count", "lower"),
    "util.registry_hit_rate": ("ratio", "higher"),
    "util.peak_live_mb": ("MiB", "lower"),
    "proc.ctx_switches_per_step": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
}

LOSS_HASH_STEPS = 30  # every trained session runs at least this many steps
# Steps of the window the end-to-end times come from: the fewest whose p90
# has ten samples beyond it.
WINDOW_STEPS = 100
# A deep net can sit at the uninformed loss ln(classes) for hundreds of steps
# (a 96-layer MLP, seed 8: quarter medians 2.3015 and 2.3058 after 615
# steps), so a run may also pass by ending within this many nats of
# ln(classes). That it trains at all is checked on its parameters and
# gradient instead.
UNINFORMED_SLACK = 0.02


def losses(session):
    return [struct.unpack(">f", bytes.fromhex(bits))[0] for bits in session["losses"]]


def loss_hash(session):
    """Hash of the first LOSS_HASH_STEPS root losses, bit for bit."""
    prefix = session["losses"][:LOSS_HASH_STEPS]
    if len(prefix) < LOSS_HASH_STEPS:
        return None
    return hashlib.sha256(",".join(prefix).encode()).hexdigest()[:16]


def ends_lower(values, uninformed):
    """The median root loss of the last quarter of the steps is below that of
    the first quarter, or below the uninformed loss. Medians of quarters, not
    single steps: the default solver's cifar10 loss spikes (seed 6 jumps from
    1.0 to 2.9 at step 66)."""
    quarter = len(values) // 4
    if quarter == 0:
        return False
    end = median(values[-quarter:])
    return end < median(values[:quarter]) or end < uninformed


def loss_checks(raw):
    """Finite losses; every trained session ends lower than it starts and
    moves its root's parameters."""
    sessions = raw["sessions"]
    trained = [s for s in sessions if s["role"] != "setup"]
    uninformed = math.log(raw["config"]["classes"]) + UNINFORMED_SLACK
    checks = {"no_step_threw": all(s["error"] is None for s in sessions),
              "loss_finite": all(math.isfinite(x) for s in sessions for x in losses(s))}
    checks["loss_decreases"] = all(ends_lower(losses(s), uninformed) for s in trained)
    checks["loss_hash_prefix"] = all(loss_hash(s) is not None for s in trained)
    # The root applies a non-zero gradient that moves its parameters over the
    # timed window: a zeroed gradient or a skipped update fails here even
    # where the loss sits at the uninformed value.
    checks["params_move"] = all(s["params_digest_opened"] != s["params_digest_closed"]
                                for s in trained)
    checks["gradient_nonzero"] = all(s["grad_norm_closed"] > 0 for s in trained)
    return checks


def flow_msgs_check(raw, session):
    """Messages the window sent per step match the schedules' exact count."""
    steps = len(session["step_ms"])
    flow = session["flow"]
    return steps > 0 and (flow["enqueued"] + flow["claimed"] ==
                          raw["counts"]["msgs_per_step"] * steps)


def fastest_window(session):
    """(total ms, first step) of the session's WINDOW_STEPS consecutive timed
    steps with the least total time, or None when it timed fewer."""
    steps = session["step_ms"]
    if len(steps) < WINDOW_STEPS:
        return None
    total = sum(steps[:WINDOW_STEPS])
    best = (total, 0)
    for end in range(WINDOW_STEPS, len(steps)):
        total += steps[end] - steps[end - WINDOW_STEPS]
        best = min(best, (total, end - WINDOW_STEPS + 1))
    return best


def end_to_end(raws):
    """Time metrics come from the fastest WINDOW_STEPS consecutive timed
    steps of any of the processes of one workload. The host is shared: other
    tenants slow whole stretches of a run, up to 2x for tens of seconds, and
    only ever slow it, so the fastest stretch is the program's own speed.
    Peak RSS is the smallest over the processes: how many freed message
    buffers the malloc arenas of the rank and progression threads retain
    varies from process to process and adds 0-50 MB on top of the same
    floor."""
    sessions = [s for raw in raws for s in raw["sessions"]]
    timed = [s for s in sessions if s["role"] == "timed"]
    checks = {}
    for raw in raws:
        for name, ok in loss_checks(raw).items():
            checks[name] = checks.get(name, True) and ok
    first_losses = {s["losses"][0] for s in sessions if s["losses"]}
    checks["setup_first_loss_bitwise"] = len(first_losses) == 1
    checks["timed_loss_hash_bitwise"] = len({loss_hash(s) for s in timed}) == 1
    checks["msgs_match_schedules"] = all(flow_msgs_check(raw, s) for raw in raws
                                         for s in raw["sessions"] if s["role"] == "timed")
    windows = [(fastest_window(s), s) for s in timed]
    checks["full_window_per_process"] = bool(timed) and all(w for w, _ in windows)
    if not checks["full_window_per_process"]:
        return None, checks
    (total_ms, first), session = min(windows, key=lambda pair: pair[0])
    steps = session["step_ms"][first:first + WINDOW_STEPS]
    cpu_at = session["cpu_s_at"]
    cpu_s = cpu_at[first + WINDOW_STEPS - 1] - (cpu_at[first - 1] if first > 0 else 0.0)
    samples = WINDOW_STEPS * raws[0]["config"]["global_batch"]
    metrics = {
        "samples_per_s": samples * 1000.0 / total_ms,
        "step_ms_p50": median(steps),
        "step_ms_p90": percentile(steps, 90),
        "setup_s": median([s["setup_s"] for s in sessions]),
        "peak_rss_mb": min(raw["peak_rss_kb"] for raw in raws) / 1024.0,
        "cpu_ms_per_sample": cpu_s * 1000.0 / samples,
    }
    return metrics, checks


class Spans:
    """Spans of one rank, indexed by id, with their children."""

    def __init__(self, events):
        self.by_id = {e["args"]["id"]: e for e in events}
        self.children = {}
        for event in events:
            self.children.setdefault(event["args"]["parent"], []).append(event)

    def named(self, name):
        return [e for e in self.by_id.values() if e["name"] == name]

    def kids(self, span, name=None):
        found = self.children.get(span["args"]["id"], [])
        return [e for e in found if name is None or e["name"] == name]


def ms(span):
    return span["dur"] / 1000.0


def by_rank(trace):
    events = {}
    for event in trace["traceEvents"]:
        events.setdefault(event["tid"], []).append(event)
    return {rank: Spans(evs) for rank, evs in events.items()}


def step_spans(spans, name):
    """Replay step spans of one rank in step order (the layer arg is the step)."""
    return sorted(spans.named(name), key=lambda e: e["args"]["layer"])


def slowest_rank_ms(ranks, step_name, pick):
    """Median over replay steps of the slowest rank's duration of `pick`."""
    per_rank = [[sum(ms(p) for p in pick(spans, step)) for step in step_spans(spans, step_name)]
                for spans in ranks.values()]
    steps = min(len(values) for values in per_rank)
    if steps == 0:
        return 0.0
    return median([max(values[s] for values in per_rank) for s in range(steps)])


def per_layer(raw, trace):
    sessions = raw["sessions"]
    untraced = next(s for s in sessions if s["role"] == "untraced")
    traced = next(s for s in sessions if s["role"] == "traced")
    counts = raw["counts"]
    layers = raw["layers"]
    warmup = raw["config"]["warmup_steps"]
    ranks = by_rank(trace)
    root = ranks[0]

    checks = loss_checks(raw)
    common = min(len(untraced["losses"]), len(traced["losses"]))
    checks["traced_loss_bitwise"] = (
        common > 0 and untraced["losses"][:common] == traced["losses"][:common])
    checks["msgs_match_schedules"] = flow_msgs_check(raw, traced)

    # Training window: rank 0's steps after warm-up.
    window = [s for s in root.named("bench.step") if s["args"]["layer"] >= warmup]
    wait = [sum(ms(k) for k in root.kids(s, "data.next")) for s in window]
    compute = [sum(ms(k) for k in root.kids(s) if k["name"] != "data.next") for s in window]
    steps = len(traced["step_ms"])
    checks["traced_window_spans"] = len(window) == steps and steps > 0
    if not checks["traced_window_spans"]:
        return None, checks

    # Compute-only replay on rank 0, plus the slowest rank's step.
    replay = step_spans(root, "replay.compute_step")
    fwd = [[ms(k) for k in root.kids(s, "dl.forward_layer")] for s in replay]
    bwd = [[ms(k) for k in root.kids(s, "dl.backward_layer")] for s in replay]
    update = [sum(ms(k) for k in root.kids(s, "dl.apply_update")) for s in replay]
    index = {layer["name"]: i for i, layer in enumerate(layers)}

    def layer_ms(name, phase):
        if name not in index:
            return 0.0
        return median([sum(ms(k) for k in root.kids(s, phase)
                           if k["args"]["layer"] == index[name]) for s in replay])

    compute_replay_ms = slowest_rank_ms(ranks, "replay.compute_step", lambda sp, st: [st])

    # Comm-only replay of the live solver's plan, slowest rank per phase.
    bcast_ms = slowest_rank_ms(ranks, "replay.comm_step",
                               lambda sp, st: sp.kids(st, "replay.bcast_phase"))
    reduce_ms = slowest_rank_ms(ranks, "replay.comm_step",
                                lambda sp, st: sp.kids(st, "replay.reduce_phase"))

    core_step = median(compute)
    exposed = core_step - compute_replay_ms
    comm_ms = bcast_ms + reduce_ms
    per_step_spread = [max(r) - min(r) for r in zip(*traced["compute_ms"])]
    flow = traced["flow"]
    messages = flow["enqueued"] + flow["claimed"]
    registry = traced["registry"]
    lookups = registry["hits"] + registry["misses"]
    fwd_ms = median([sum(f) for f in fwd])
    bwd_ms = median([sum(b) for b in bwd])

    metrics = {
        "data.wait_ms_p50": median(wait),
        "data.wait_share": sum(wait) / sum(ms(s) for s in window),
        "dl.fwd_ms": fwd_ms,
        "dl.bwd_ms": bwd_ms,
        "dl.update_ms": median(update),
        **{"dl.%s.fwd_ms" % name: layer_ms(name, "dl.forward_layer") for name in NAMED_LAYERS},
        **{"dl.%s.bwd_ms" % name: layer_ms(name, "dl.backward_layer") for name in NAMED_LAYERS},
        "dl.flops_per_step": counts["flops_per_step"],
        "dl.gflops": counts["flops_per_step"] / ((fwd_ms + bwd_ms) * 1e6),
        "core.step_ms_p50": core_step,
        "core.compute_ms_p50": median(traced["compute_ms"][0]),
        "core.compute_skew_ms": median(per_step_spread),
        "core.comm_exposed_ms": exposed,
        "core.overlap_frac": 1.0 - exposed / comm_ms if comm_ms > 0 else 0.0,
        "mpi.bcast_ms": bcast_ms,
        "mpi.reduce_ms": reduce_ms,
        "mpi.collectives_per_step": counts["collectives_per_step"],
        "mpi.bytes_per_step": counts["bytes_per_step"],
        "mpi.msgs_per_step": messages / steps,
        "mpi.zero_copy_ratio": flow["claimed"] / messages if messages else 0.0,
        "mpi.credit_wait_us_per_step": flow["credit_wait_us"] / steps,
        "mpi.peak_mailbox_kb": flow["peak_occupancy_bytes"] / 1024.0,
        "util.registry_misses_per_step": registry["misses"] / steps,
        "util.registry_hit_rate": registry["hits"] / lookups if lookups else 0.0,
        "util.peak_live_mb": registry["peak_live_bytes"] / float(1 << 20),
        "proc.ctx_switches_per_step": traced["ctx_switches"] / steps,
        "trace.overhead_ms": median(traced["step_ms"]) - median(untraced["step_ms"]),
    }
    return metrics, checks
