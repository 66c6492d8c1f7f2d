"""The reductions that turn raw samples into metrics, and the correctness
gates.

Pure functions only, so that perfbench/test_metrics.py can check them
without building anything. The metric names and units come from
BENCHMARK.json, which run.py loads.
"""

import json
import statistics

SUITE_TABLES = (
    "ablation_churn", "ablation_isolation", "ablation_mpx", "ablation_opt",
    "ablation_shards", "fig4_phoronix", "fig5_defense_matrix", "mem_overhead",
    "ripe_concurrent", "ripe_effectiveness", "table1_spec_overhead",
    "table2_compile_stats", "table4_concurrent", "table4_webserver",
    "table_composites",
)


def units(bench, kind):
    """name -> unit of the metrics BENCHMARK.json lists under `kind`
    ("end_to_end" or "per_layer")."""
    return {m["name"]: m["unit"] for m in bench[kind]}


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as the acceptance check
    takes them (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def fastest_total(repetitions):
    """The time of one unit of work at the host's full speed. Each
    repetition lists the times of the same pieces of the unit, in the same
    order; this is the sum over pieces of each piece's fastest time."""
    return sum(min(times) for times in zip(*repetitions))


def ratio(numerator, base):
    """numerator / base, and 0 when the base is empty."""
    return numerator / base if base else 0.0


def tables_match(actual, expected):
    """True when two `.tables` objects are equal after key sorting, which is
    what a byte comparison of `jq -S` output checks."""
    return json.dumps(actual, sort_keys=True) == json.dumps(expected, sort_keys=True)


def suite_failure(exit_code, stdout, expected_tables):
    """Why one suite run failed its correctness gate, or None if it passed."""
    if exit_code != 0:
        return f"suite exited with {exit_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "suite printed no JSON report"
    if not isinstance(report, dict) or "tables" not in report:
        return "suite report has no tables"
    if not tables_match(report["tables"], expected_tables):
        return "suite tables differ from the expected tables"
    return None


# (column in the mt-servers cells, shard count, ownership model in the
# ablation_churn table). CPI at one shard is both the static and the epoch
# column at S=1, since a single shard cannot migrate.
CHURN_GATE = (
    ("s1", "1", "static"),
    ("s1", "1", "epoch"),
    ("s16_static", "16", "static"),
    ("s16_epoch", "16", "epoch"),
)


def churn_failures(programs, churn_table):
    """Recomputes overhead_pct and contended_pct of each mt-servers program
    from its cells and compares them with the ablation_churn table at %.3f.
    Returns one description per mismatch."""
    rows = {row["workload"]: row for row in churn_table["rows"]}
    failures = []
    for prog in programs:
        name = prog["workload"]
        row = rows.get(name)
        if row is None:
            failures.append(f"{name}: not in ablation_churn")
            continue
        base = prog["vanilla"]["cycles"]
        for column, shards, model in CHURN_GATE:
            cell = prog[column]
            overhead = (cell["cycles"] / base - 1.0) * 100.0
            contended = 0.0 if cell["store_ops"] == 0 else 100.0 * cell["contended"] / cell["store_ops"]
            for what, value in (("overhead", overhead), ("contended", contended)):
                want = row[f"{model}_{what}_pct"][shards]
                if f"{value:.3f}" != f"{want:.3f}":
                    failures.append(f"{name} S={shards} {model} {what}_pct "
                                    f"{value:.3f} != {want:.3f}")
    return failures


def layer_metrics(names, layers, extra):
    """The per-layer metrics `names` from the replay counts and times
    `layers` (perfbench_layers' "layers" object) plus workload-specific
    values in `extra`. Every name is present; a layer the workload does not
    run reports 0."""
    out = dict.fromkeys(names, 0)
    if layers:
        for key in ("ir.clone_ms", "ir.clones", "ir.verify_ms", "analysis.classify_ms",
                    "instrument.ms", "instrument.instructions_added", "opt.ms",
                    "opt.instructions_removed", "opt.checks_eliminated", "vm.decode_ms",
                    "vm.decode_ops", "vm.execute_ms", "vm.runs", "vm.sim_instructions",
                    "vm.mem_accesses", "runtime.store_ops", "runtime.shard_migrations",
                    "runtime.store_bytes", "runtime.seal_ops"):
            out[key] = layers[key]
        out["trace.cells"] = layers["fidelity_cells"]
        out["vm.fused_op_ratio"] = ratio(layers["vm.fused_ops_after"], layers["vm.fused_ops_before"])
        out["vm.execute_ms_per_run"] = ratio(layers["vm.execute_ms"], layers["vm.runs"])
        # instructions per ms / 1e3 = million instructions per second
        out["vm.sim_mips"] = ratio(layers["vm.sim_instructions"], layers["vm.execute_ms"] * 1e3)
        out["vm.cache_miss_ratio"] = ratio(
            layers["vm.cache_misses"], layers["vm.cache_hits"] + layers["vm.cache_misses"])
        out["runtime.store_contended_ratio"] = ratio(
            layers["runtime.store_contended"], layers["runtime.store_ops"])
    unknown = set(extra) - set(names)
    if unknown:
        raise KeyError(f"not per-layer metrics: {sorted(unknown)}")
    out.update(extra)
    return out


def suite_layer_metrics(reports):
    """suite.* metrics from the JSON reports of repeated suite runs: the
    median of each table's wall time, and the fusion counts, which must
    repeat exactly. Returns (metrics, error or None)."""
    out = {}
    for table in SUITE_TABLES:
        out[f"suite.{table}_ms"] = median([r["table_wall_ms"].get(table, 0.0) for r in reports])
    counts = [(r["fusion"]["modules"], r["fusion"]["ops_before"], r["fusion"]["ops_after"])
              for r in reports]
    out["suite.vm_runs"], out["suite.ops_before_fusion"], out["suite.ops_after_fusion"] = counts[0]
    error = None if len(set(counts)) == 1 else f"suite fusion counts differ across runs: {counts}"
    return out, error
