package main

import "fmt"

// metricDoc documents one reported metric: its unit, the layer it
// measures, and which end-to-end metric it should move on which workload.
// BENCHMARK.json lists the same names and units; the package's tests hold
// the two, and the benchmark's output, in step.
type metricDoc struct {
	name, unit, layer, moves string
}

// endToEnd are the untraced run's metrics, each per regeneration of the
// workload's artifact.
var endToEnd = []metricDoc{
	{"wall_s", "s", "end-to-end", "median host seconds from entering experiment.Run to a sealed, verified record"},
	{"cpu_s", "s", "end-to-end", "median user+system CPU seconds per regeneration, this process plus its waited-for worker processes"},
	{"setup_s", "s", "end-to-end", "median seconds from entering experiment.Run to the first shard-completion callback: planning, Prepare, victim builds, coordinator listen, worker spawn, GET /job"},
	{"peak_rss_mb", "MB", "end-to-end", "peak resident memory of a fresh benchmark process plus the largest of its worker processes, through its first (warm-up) regeneration, in MB of 10^6 bytes"},
}

// perLayer are the traced run's metrics.
var perLayer = []metricDoc{
	{"experiment.plan_s", "s", "experiment", "setup_s and wall_s on channel-remote (serial replay's Spec.Plan)"},
	{"experiment.prepare_s", "s", "experiment", "setup_s and wall_s on channel-remote, where Prepare builds the PoCs (serial replay's Spec.PrepareState)"},
	{"experiment.aggregate_s", "s", "experiment", "wall_s on channel-remote, where Aggregate decodes 4224 outcomes (serial replay's Spec.Aggregate)"},
	{"experiment.dispatch_overhead_s", "s", "experiment", "wall_s and cpu_s on channel-remote; about 0 in-process (backend wall minus shard time over the workers)"},
	{"experiment.tail_s", "s", "experiment", "wall_s on table1-inproc and defense-inproc (90th-percentile shard completion to the last)"},
	{"experiment.subprocess_wall_s", "s", "experiment", "nothing by itself: the workload's parameters on the subprocess backend, against wall_s on its own"},
	{"remote.worker_start_s", "s", "remote", "setup_s on channel-remote (worker spawn to its first lease request)"},
	{"remote.lease_rtt_ms.p50", "ms", "remote", "wall_s on channel-remote (coordinator time per POST /lease, at the wrapped Handler)"},
	{"remote.lease_rtt_ms.p99", "ms", "remote", "wall_s on channel-remote"},
	{"remote.result_post_ms.p50", "ms", "remote", "wall_s on channel-remote (coordinator time per POST /results)"},
	{"remote.result_post_ms.p99", "ms", "remote", "wall_s on channel-remote"},
	{"remote.leases", "count", "remote", "cpu_s on channel-remote (lease grants per regeneration)"},
	{"remote.result_lines", "count", "remote", "cpu_s on channel-remote (result lines posted per regeneration)"},
	{"remote.duplicate_lines", "count", "remote", "cpu_s on channel-remote (byte-equal repeats of an accepted shard)"},
	{"remote.backups_issued", "count", "remote", "cpu_s on channel-remote (backup lease grants per regeneration)"},
	{"remote.useful_ratio", "ratio", "remote", "cpu_s on channel-remote (shards over result lines)"},
	{"remote.wire_bytes_per_shard", "B", "remote", "cpu_s on channel-remote (request and response bodies over shards)"},
	{"remote.job_bytes", "B", "remote", "cpu_s on channel-remote (the GET /job body)"},
	{"results.seal_ms", "ms", "results", "wall_s on channel-remote (Record.ComputeHash)"},
	{"results.record_kb", "KiB", "results", "wall_s on channel-remote (canonical record size)"},
	{"core.shard_ms.p50", "ms", "core", "wall_s on table1-inproc, channel-remote and concordance-inproc (serial Spec.Run replay)"},
	{"core.shard_ms.p99", "ms", "core", "wall_s on table1-inproc, channel-remote and concordance-inproc"},
	{"core.shard_ms.max", "ms", "core", "wall_s on defense-inproc (the longest workload.EvalShard)"},
	{"core.victim_builds", "count", "core", "setup_s on table1-inproc (exact: VictimCacheStats misses in a cold serial replay)"},
	{"core.victim_hits", "count", "core", "setup_s on table1-inproc (VictimCacheStats hits in the same replay)"},
	{"uarch.system_reset_us", "us", "uarch", "wall_s on table1-inproc and channel-remote, not defense-inproc (System.Reset right after a Table 1 trial on that system)"},
	{"uarch.step_ns", "ns", "uarch", "wall_s on defense-inproc (one System.Step of the compute kernel)"},
	{"uarch.sim_cycles", "count", "uarch", "wall_s on defense-inproc (exact: simulated cycles summed from BitOutcome.Cycles and workload.Cell.Cycles; 0 where shards carry none)"},
	{"cache.hierarchy_reset_us", "us", "cache", "wall_s on table1-inproc and channel-remote, not defense-inproc (Hierarchy.Reset right after a Table 1 trial)"},
	{"cache.llc_reset_us", "us", "cache", "wall_s on table1-inproc and channel-remote, not defense-inproc (Cache.Reset of one LLC slice right after a Table 1 trial)"},
	{"cache.lines_per_reset", "count", "cache", "wall_s on table1-inproc and channel-remote (exact: valid lines a Table 1 trial leaves in every cache level, which a reset clears)"},
	{"cache.l1_hit_ns", "ns", "cache", "wall_s on defense-inproc (one L1 hit)"},
	{"cache.miss_walk_ns", "ns", "cache", "wall_s on defense-inproc (flush, then a miss walked to memory)"},
	{"mem.rw_ns", "ns", "mem", "wall_s on defense-inproc (one Write64/Read64 pair)"},
	{"mem.reset_us", "us", "mem", "wall_s on defense-inproc (Memory.Reset of a 2048-word footprint)"},
	{"detect.cell_ms.p50", "ms", "detect", "wall_s on concordance-inproc and nothing else (CellVerdict on each Table 1 cell)"},
	{"detect.cell_ms.p99", "ms", "detect", "wall_s on concordance-inproc and nothing else"},
	{"detect.alloc_kb_per_cell", "KiB", "detect", "cpu_s and peak_rss_mb on concordance-inproc"},
	{"go.alloc_mb_per_run", "MB", "go", "cpu_s on concordance-inproc (heap bytes allocated per untraced regeneration, in MB of 10^6 bytes)"},
	{"go.gc_cycles_per_run", "count", "go", "cpu_s on concordance-inproc (GC cycles per untraced regeneration)"},
	{"trace.wall_s", "s", "trace", "the traced regenerations' mean wall time, which the layer self times and trace.unattributed_s add up to"},
	{"trace.overhead_s", "s", "trace", "nothing: traced minus untraced median wall_s"},
	{"trace.unattributed_s", "s", "trace", "nothing: regeneration time no layer call covers"},
	{"layer.experiment.self_s", "s", "experiment", "wall_s on channel-remote (plan, backend bookkeeping, prepare, aggregate)"},
	{"layer.remote.self_s", "s", "remote", "wall_s on channel-remote (coordinator start, worker start and polling, HTTP handlers, reaping)"},
	{"layer.results.self_s", "s", "results", "wall_s on every workload (the output check)"},
	{"layer.core.self_s", "s", "core", "wall_s on table1-inproc and channel-remote (shards)"},
	{"layer.detect.self_s", "s", "detect", "wall_s on concordance-inproc (shards, simulator and detector together)"},
	{"layer.workload.self_s", "s", "workload", "wall_s on defense-inproc (shards)"},
}

// metrics is one run's reported values, keyed by name.
type metrics map[string]metric

// set records a documented metric with its documented unit.
func (m metrics) set(name string, v float64) {
	for _, list := range [][]metricDoc{endToEnd, perLayer} {
		for _, d := range list {
			if d.name == name {
				m[name] = metric{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic(fmt.Sprintf("perfbench: undocumented metric %q", name))
}
