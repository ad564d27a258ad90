package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. target records which end-to-end
// metric, on which workload, a per-layer metric is expected to move; it is
// documentation that the test keeps in step with BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: tolerated relative regression
	target             string
}

// endToEnd are the metrics a user of the engines sees. Every workload
// reports every one of them, so each is defined for reads and writes alike.
var endToEnd = []metricDef{
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "write_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "write_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "read_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "write_amp", unit: "ratio", better: "lower", bound: 0.1},
	{name: "write_bytes_per_user_byte", unit: "ratio", better: "lower", bound: 0.1},
	{name: "space_amp", unit: "ratio", better: "lower", bound: 0.15},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the traced run's single-layer costs, named <module>.<name>.
// A layer a workload does not exercise reports zero there.
var perLayer = []metricDef{
	{name: "pagedb.txn_commit.count", unit: "count", better: "higher", target: "write_p50_us on tpcc"},
	{name: "pagedb.txn_commit.busy_ms", unit: "ms", better: "lower", target: "write_p50_us on tpcc"},
	{name: "pagedb.txn_commit.p50_us", unit: "us", better: "lower", target: "write_p50_us on tpcc"},
	{name: "pagedb.txn_commit.failed", unit: "count", better: "lower", target: "write_p50_us on tpcc"},
	{name: "pagedb.txn_read.busy_ms", unit: "ms", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "pagedb.txn_write.busy_ms", unit: "ms", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "pagedb.checkpoint.count", unit: "count", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "pagedb.checkpoint.busy_share", unit: "ratio", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "pagedb.checkpoint.p50_ms", unit: "ms", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "pagedb.checkpoint.max_ms", unit: "ms", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "pagedb.checkpoint.pages_per", unit: "count", better: "lower", target: "write_bytes_per_user_byte on tpcc"},
	{name: "pagedb.get.busy_ms", unit: "ms", better: "lower", target: "read_p50_us and read_p99_us on tpcc"},
	{name: "pagedb.scan.busy_ms", unit: "ms", better: "lower", target: "read_p50_us and read_p99_us on tpcc"},
	{name: "pagedb.faults_per_txn", unit: "ratio", better: "lower", target: "read_p50_us on tpcc"},
	{name: "pagedb.staged_evictions", unit: "count", better: "lower", target: "read_p50_us on tpcc"},
	{name: "btree.height", unit: "count", better: "lower", target: "read_p50_us on tpcc"},
	{name: "btree.fetches_per_get", unit: "ratio", better: "lower", target: "read_p50_us on tpcc"},
	{name: "bufferpool.hit_ratio", unit: "ratio", better: "higher", target: "cpu_us_per_op and throughput_ops_s on tpcc"},
	{name: "bufferpool.fused_hit_share", unit: "ratio", better: "higher", target: "cpu_us_per_op on tpcc"},
	{name: "bufferpool.evictions", unit: "count", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "bufferpool.dirty_evictions", unit: "count", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "bufferpool.grows", unit: "count", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "bufferpool.writeback_errors", unit: "count", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "wal.truncations", unit: "count", better: "lower", target: "write_p50_us on tpcc"},
	{name: "store.apply.count", unit: "count", better: "higher", target: "write_p50_us on pages_hotcold"},
	{name: "store.apply.busy_ms", unit: "ms", better: "lower", target: "write_p50_us on pages_hotcold"},
	{name: "store.apply.p50_us", unit: "us", better: "lower", target: "write_p50_us on pages_hotcold"},
	{name: "store.read.count", unit: "count", better: "higher", target: "read_p50_us on pages_hotcold"},
	{name: "store.read.busy_ms", unit: "ms", better: "lower", target: "read_p50_us on pages_hotcold"},
	{name: "store.read.p50_us", unit: "us", better: "lower", target: "read_p50_us on pages_hotcold"},
	{name: "store.fill_factor", unit: "ratio", better: "higher", target: "space_amp on pages_hotcold and tpcc"},
	{name: "store.sealed_segments", unit: "count", better: "lower", target: "space_amp on pages_hotcold and tpcc"},
	{name: "cleaner.cycles", unit: "count", better: "lower", target: "write_amp on pages_hotcold and tpcc"},
	{name: "cleaner.segments_reclaimed", unit: "count", better: "higher", target: "write_amp on pages_hotcold and tpcc"},
	{name: "cleaner.bytes_relocated", unit: "bytes", better: "lower", target: "write_amp on pages_hotcold and tpcc"},
	{name: "cleaner.writer_stall_ms", unit: "ms", better: "lower", target: "write_p99_us on pages_hotcold and tpcc"},
	{name: "cleaner.writer_delay_ms", unit: "ms", better: "lower", target: "write_p99_us on pages_hotcold and tpcc"},
	{name: "core.victim_e.mean", unit: "ratio", better: "higher", target: "write_amp on pages_hotcold and tpcc"},
	{name: "vlog.commit.busy_ms", unit: "ms", better: "lower", target: "write_p50_us on kv_hotcold"},
	{name: "vlog.commit.p50_us", unit: "us", better: "lower", target: "write_p50_us on kv_hotcold"},
	{name: "vlog.get.busy_ms", unit: "ms", better: "lower", target: "read_p50_us on kv_hotcold"},
	{name: "vlog.mean_e_at_clean", unit: "ratio", better: "higher", target: "write_amp on kv_hotcold"},
	{name: "device.fsync_p50_us", unit: "us", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "device.fsync_p99_us", unit: "us", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "device.write_bytes", unit: "bytes", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "device.write_syscalls", unit: "count", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", target: "cpu_us_per_op and read_p99_us on every workload"},
	{name: "runtime.alloc_bytes_per_op", unit: "bytes", better: "lower", target: "cpu_us_per_op and read_p99_us on every workload"},
	{name: "trace.overhead", unit: "ratio", better: "higher", target: "throughput_ops_s of the traced run over the untraced one"},
	{name: "trace.sampled_ops", unit: "count", better: "higher", target: "coverage of the sampled engine span trees"},
	{name: "tpcc.self_ms", unit: "ms", better: "lower", target: "cpu_us_per_op on tpcc"},
	{name: "pagedb.self_ms", unit: "ms", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "store.self_ms", unit: "ms", better: "lower", target: "throughput_ops_s on pages_hotcold"},
	{name: "vlog.self_ms", unit: "ms", better: "lower", target: "throughput_ops_s on kv_hotcold"},
	{name: "pagedb.sampled_self_ms", unit: "ms", better: "lower", target: "write_p50_us on tpcc"},
	{name: "wal.sampled_self_ms", unit: "ms", better: "lower", target: "write_p50_us on tpcc"},
	{name: "btree.sampled_self_ms", unit: "ms", better: "lower", target: "write_p50_us on tpcc"},
	{name: "store.sampled_self_ms", unit: "ms", better: "lower", target: "throughput_ops_s on tpcc"},
	{name: "cleaner.sampled_self_ms", unit: "ms", better: "lower", target: "write_amp on every workload"},
	{name: "core.sampled_self_ms", unit: "ms", better: "lower", target: "write_amp on every workload"},
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values are a run's raw metric values before they are matched to units.
type values map[string]float64

// render keeps exactly the metrics defs names, in their units. A metric the
// workload did not set is an error for an end-to-end metric and zero for a
// per-layer one (the layer did no work).
func render(defs []metricDef, v values, zeroOK bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok && !zeroOK {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, x)
		}
		out[d.name] = metric{Value: x, Unit: d.unit}
	}
	return out, nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// chunks is an append-only list kept in chunks of at most chunkLen, so
// that a list growing through a long run is never reallocated and copied
// while the run is being measured.
type chunks[T any] struct {
	c [][]T
	n int
}

const chunkLen = 1 << 13

func (l *chunks[T]) add(v T) {
	k := len(l.c)
	if k == 0 || len(l.c[k-1]) == cap(l.c[k-1]) {
		size := chunkLen
		if k == 0 {
			size = 16 // most per-transaction lists stay this short
		}
		l.c = append(l.c, make([]T, 0, size))
		k++
	}
	l.c[k-1] = append(l.c[k-1], v)
	l.n++
}

// merge adds o's elements: long lists by sharing their chunks, short ones
// by copying.
func (l *chunks[T]) merge(o chunks[T]) {
	if o.n >= chunkLen {
		l.c = append(l.c, o.c...)
		l.n += o.n
		return
	}
	for _, c := range o.c {
		for _, v := range c {
			l.add(v)
		}
	}
}

func (l chunks[T]) all() []T {
	s := make([]T, 0, l.n)
	for _, c := range l.c {
		s = append(s, c...)
	}
	return s
}

// latency is one operation class's raw samples in nanoseconds, in the
// order they were recorded: for one client, the order its calls ended in.
type latency struct{ chunks[int64] }

// quantile returns the q-quantile of the samples by nearest rank, read
// from the sorted raw values. When fewer than minBeyond samples lie beyond
// q's rank, it reports the highest rank that has minBeyond beyond it and
// says which percentile that is; ok is false when no rank qualifies.
func (l latency) quantile(q float64) (v time.Duration, used float64, ok bool) {
	return quantileOf(l.all(), q)
}

// quantileOf is quantile over s, which it sorts.
func quantileOf(s []int64, q float64) (v time.Duration, used float64, ok bool) {
	n := len(s)
	if n <= minBeyond {
		return 0, 0, false
	}
	slices.Sort(s)
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(i, 0)
	i = min(i, n-1-minBeyond)
	return time.Duration(s[i]), float64(i+1) / float64(n), true
}

// maxWindows bounds the windows a reported percentile is the median of,
// and windowBeyond is how many samples each window must hold beyond the
// percentile's rank.
const (
	maxWindows   = 9
	windowBeyond = 100
)

// windowed splits the samples, in the order they were recorded, into as
// many equal consecutive windows as hold windowBeyond samples beyond q's
// rank each, at most maxWindows, and returns the median of the windows'
// q-quantiles. The hypervisor takes the CPU for seconds at a time: in a
// pages_hotcold run where that doubled the write p99 of the last two of
// nine windows, the p99 of the whole run was 1.96 ms against 1.50-1.61 ms
// in five other runs, and the median of its windows' p99s 1.67 ms. With
// too few samples for two windows it is quantile over all of them. used
// is the lowest percentile a window's quantile used.
func (l latency) windowed(q float64) (v time.Duration, used float64, windows int, ok bool) {
	s := l.all()
	k := min(maxWindows, len(s)/int(math.Ceil(windowBeyond/(1-q))))
	if k < 2 {
		v, used, ok = quantileOf(s, q)
		return v, used, 1, ok
	}
	vals := make([]time.Duration, k)
	used = 1
	for i := range k {
		var u float64
		vals[i], u, _ = quantileOf(s[i*len(s)/k:(i+1)*len(s)/k], q)
		used = min(used, u)
	}
	slices.Sort(vals)
	if k%2 == 1 {
		return vals[k/2], used, k, true
	}
	return (vals[k/2-1] + vals[k/2]) / 2, used, k, true
}

// max is the largest sample, or 0 without samples.
func (l latency) max() time.Duration {
	var m int64
	for _, c := range l.c {
		for _, v := range c {
			m = max(m, v)
		}
	}
	return time.Duration(m)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
