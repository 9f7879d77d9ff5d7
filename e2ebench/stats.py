"""Arithmetic of the end-to-end benchmark: turns the harness's raw JSON
record into the metrics BENCHMARK.json names, and counts failures.

Kept free of I/O so test_stats.py can check every rule on synthetic
records.
"""

import statistics

# name -> unit, in print order. End-to-end metrics come from the untraced
# repetitions of a run; per-layer metrics from the traced ones.
END_TO_END_UNITS = {
    "samples_per_s": "samples/s",
    "round_s.p50": "s",
    "round_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "best_step_s": "sim_s",
}

PER_LAYER_UNITS = {
    "models.build_s": "s",
    "models.ops": "count",
    "models.edges": "count",
    "partition.metis_s": "s",
    "core.agent_init_s": "s",
    "core.sample_s": "s",
    "core.sample_ms.p50": "ms",
    "core.to_placement_s": "s",
    "core.score_s": "s",
    "core.score_calls": "count",
    "core.eval_batch_s": "s",
    "core.eval_ms_per_sample": "ms",
    "core.eval_queue_wait_s.mean": "s",
    "core.worker_occupancy": "ratio",
    "core.cache_hit_ratio": "ratio",
    "rl.train_s": "s",
    "rl.update_s": "s",
    "rl.backward_s": "s",
    "rl.other_s": "s",
    "rl.rounds": "count",
    "rl.invalid_frac": "ratio",
    "rl.sim_hours": "h",
    "rl.best_sample": "count",
    "round_s.tail_pct": "%",
    "round_s.count": "count",
    "sim.runs": "count",
    "sim.delta.hit_ratio": "ratio",
    "sim.replay_ms.p50": "ms",
    "sim.events_per_run": "count",
    "sim.events_per_s": "1/s",
    "nn.params": "count",
    "nn.arena.fresh_allocs": "count",
    "nn.arena.pool_hit_ratio": "ratio",
    "trace.samples_per_s_ratio": "ratio",
}

# Fewer rounds than this beyond a percentile do not make a tail.
TAIL_MIN_BEYOND = 10


def tail(values):
    """Returns (value, percentile, count) for the highest percentile of
    `values` that has at least TAIL_MIN_BEYOND values beyond it.

    The value is the (TAIL_MIN_BEYOND + 1)-th largest; its percentile is
    the share of values at or below its rank. With too few values for any
    tail the maximum is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= TAIL_MIN_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_MIN_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def mean(values):
    return sum(values) / len(values)


def count_failures(record):
    """Returns (attempted, failed, problems) for a harness record.

    A repetition's samples all count as failed when its output check
    failed or when its best placement differs from the first
    repetition's (all repetitions of a run train from the same seed, so
    they must agree, traced or not). Otherwise only evaluations that
    exhausted their retries count as failed.
    """
    reps = record["reps"]
    attempted = sum(rep["total_samples"] for rep in reps)
    failed = 0
    problems = []
    reference = reps[0]["best_step_s"] if reps else None
    for i, rep in enumerate(reps):
        problem = rep["check"]
        if not problem and rep["best_step_s"] != reference:
            problem = "best_step_s %r differs from repetition 0's %r" % (
                rep["best_step_s"], reference)
        if problem:
            problems.append("repetition %d: %s" % (i, problem))
            failed += rep["total_samples"]
        else:
            failed += rep["exhausted"]
    return attempted, failed, problems


def end_to_end(record):
    untraced = [rep for rep in record["reps"] if not rep["traced"]]
    rounds = [r for rep in untraced for r in rep["round_s"]]
    tail_value, _, _ = tail(rounds)
    return {
        "samples_per_s": ratio(sum(rep["total_samples"] for rep in untraced),
                               sum(rep["train_s"] for rep in untraced)),
        "round_s.p50": statistics.median(rounds),
        "round_s.tail": tail_value,
        "setup_s": mean(record["setup_medians"]),
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "best_step_s": record["reps"][0]["best_step_s"],
    }


def per_layer(record):
    reps = record["reps"]
    traced = [rep for rep in reps if rep["traced"]]
    untraced = [rep for rep in reps if not rep["traced"]]
    layers = [rep["layers"] for rep in traced]
    setups = record["setups"]
    replay = record["replay"]
    first = reps[0]  # cold tensor-arena pool: what one fresh run pays

    def layer_mean(key):
        return mean([layer[key] for layer in layers])

    def rep_mean(key):
        return mean([rep[key] for rep in traced])

    train_s = rep_mean("train_s")
    update_s = layer_mean("update_s")
    attributed = (layer_mean("sample_s") + layer_mean("to_placement_s") +
                  layer_mean("eval_batch_s") + update_s)
    untraced_rounds = [r for rep in untraced for r in rep["round_s"]]
    _, tail_pct, round_count = tail(untraced_rounds)
    replay_s = sum(replay["run_ms"]) / 1e3
    # Set-up's METIS time; a learned grouper's run times METIS separately.
    metis = ([s["metis_s"] for s in setups if s["metis_s"] > 0] or
             record["metis_probe_s"])
    traced_rate = ratio(sum(rep["total_samples"] for rep in traced),
                        sum(rep["train_s"] for rep in traced))
    untraced_rate = ratio(sum(rep["total_samples"] for rep in untraced),
                          sum(rep["train_s"] for rep in untraced))
    delta_runs = sum(rep["sim_delta_hits"] + rep["sim_delta_fallbacks"]
                     for rep in traced)
    return {
        "models.build_s": statistics.median(s["build_s"] for s in setups),
        "models.ops": first["graph_ops"],
        "models.edges": first["graph_edges"],
        "partition.metis_s": statistics.median(metis),
        "core.agent_init_s": statistics.median(
            s["agent_init_s"] for s in setups),
        "core.sample_s": layer_mean("sample_s"),
        "core.sample_ms.p50": statistics.median(
            ms for layer in layers for ms in layer["sample_ms"]),
        "core.to_placement_s": layer_mean("to_placement_s"),
        "core.score_s": layer_mean("score_s"),
        "core.score_calls": layer_mean("score_calls"),
        "core.eval_batch_s": layer_mean("eval_batch_s"),
        "core.eval_ms_per_sample": 1e3 * ratio(
            sum(layer["eval_batch_s"] for layer in layers),
            sum(layer["evaluated"] for layer in layers)),
        "core.eval_queue_wait_s.mean": ratio(
            sum(rep["queue_wait_s"] for rep in traced),
            sum(rep["queue_waits"] for rep in traced)),
        "core.worker_occupancy": ratio(
            sum(rep["ticket_busy_s"] for rep in traced),
            record["threads"] * sum(layer["eval_batch_s"]
                                    for layer in layers)),
        "core.cache_hit_ratio": ratio(
            sum(rep["env_cache_hits"] for rep in traced),
            sum(rep["env_evaluations"] for rep in traced)),
        "rl.train_s": train_s,
        "rl.update_s": update_s,
        "rl.backward_s": update_s - layer_mean("score_s"),
        "rl.other_s": train_s - attributed,
        "rl.rounds": mean([len(rep["round_s"]) for rep in traced]),
        "rl.invalid_frac": ratio(sum(rep["invalid"] for rep in traced),
                                 sum(rep["total_samples"] for rep in traced)),
        "rl.sim_hours": rep_mean("sim_hours"),
        "rl.best_sample": first["best_sample"],
        "round_s.tail_pct": tail_pct,
        "round_s.count": round_count,
        "sim.runs": rep_mean("sim_runs"),
        "sim.delta.hit_ratio": ratio(
            sum(rep["sim_delta_hits"] for rep in traced), delta_runs),
        "sim.replay_ms.p50": statistics.median(replay["run_ms"]),
        "sim.events_per_run": ratio(replay["events"], replay["runs"]),
        "sim.events_per_s": ratio(replay["events"], replay_s),
        "nn.params": first["nn_params"],
        "nn.arena.fresh_allocs": first["arena_fresh_allocs"],
        "nn.arena.pool_hit_ratio": ratio(first["arena_pool_hits"],
                                         first["arena_acquires"]),
        "trace.samples_per_s_ratio": ratio(traced_rate, untraced_rate),
    }


def result(record, trace):
    """The benchmark's result object for one harness record."""
    attempted, failed, _ = count_failures(record)
    values = per_layer(record) if trace else end_to_end(record)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
