"""End-to-end benchmark: workload, measurement, audit, summary.

A workload is a seeded list of (source, target) pairs. The runner
answers every query with every requested method, insists they agree,
and emits one row of counters per (query, method). The verifier then
replays the distances against an independent shortest-path oracle.

    python3 demos/05_benchmark.py
"""

import io

from polyroute import (
    WorkloadSpec,
    emit_report,
    format_summary,
    generate_queries,
    generate_random_connected,
    load_report,
    run_workload,
    select_farthest,
    summarize,
    verify_workload,
)

g = generate_random_connected(400, 150, seed=5)
L = select_farthest(g, 6, seed=5)

# Stratified draw: pairs are bucketed by true-distance decile and taken
# round-robin, so short hops and cross-graph treks both show up.
spec = WorkloadSpec(query_count=60, seed=5,
                    stratification="by-distance-decile")
queries = generate_queries(g, spec)
rows = run_workload(g, L, queries)
print(f"workload: {len(queries)} queries x 3 methods = {len(rows)} rows")

# The CSV is the exchange format; identical inputs give identical bytes.
sink = io.StringIO()
emit_report(rows, "csv", sink)
print(f"report: {len(sink.getvalue())} bytes of CSV")
assert load_report(io.StringIO(sink.getvalue()), "csv") == rows

# Independent audit of every reported distance.
violations = verify_workload(g, rows)
print(f"verification: checked={len(rows)} violations={len(violations)}")
print()

# Mean work per method. The full table buys the smallest search
# space; the distributed embedding trades search space for memory.
# Scenario totals split the distributed evaluations by which landmarks
# were involved on each side.
print(format_summary(summarize(rows)))
