package main

import (
	"encoding/json"
	"io"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vlog"
)

func tinyConfig(t *testing.T, trace bool) config {
	return config{seed: 3, seconds: 2 * time.Second, trace: trace, dir: t.TempDir(), tiny: true, setups: 2, probes: 50}
}

// TestTinyRuns runs every workload at test size, untraced and traced, and
// checks that each reports exactly its metrics, in their units, with
// verification passing: every end-to-end metric non-zero, and every
// per-layer one non-zero on the workloads its target names.
func TestTinyRuns(t *testing.T) {
	for _, b := range benches {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, trace)
			res, err := run(cfg, b, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", b.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", b.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", b.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", b.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", b.name, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", b.name, d.name, m.Value)
				case trace && m.Value <= 0 && !mayBeZero[d.name] && slices.Contains(targetWorkloads(d.target), b.name):
					t.Errorf("%s: per-layer metric %s = %v, want > 0 on the workload it targets", b.name, d.name, m.Value)
				}
			}
		}
	}
}

// mayBeZero are the per-layer counters of events a healthy run need not
// have: errors, pool growth, writers stalled because the cleaner fell
// below the emergency floor, and writers delayed by a pacer (the default
// FloorPacer never delays).
var mayBeZero = map[string]bool{
	"pagedb.txn_commit.failed":    true,
	"bufferpool.grows":            true,
	"bufferpool.writeback_errors": true,
	"cleaner.writer_stall_ms":     true,
	"cleaner.writer_delay_ms":     true,
}

// targetWorkloads lists the workloads a per-layer metric's target names:
// those after " on ", or every workload.
func targetWorkloads(target string) []string {
	_, on, ok := strings.Cut(target, " on ")
	if !ok || on == "every workload" {
		var all []string
		for _, b := range benches {
			all = append(all, b.name)
		}
		return all
	}
	return strings.Split(on, " and ")
}

// TestVerifierRejectsPlantedStamp plants a value stamped for another item
// behind each engine's back and checks that verification reports it.
func TestVerifierRejectsPlantedStamp(t *testing.T) {
	cfg := tinyConfig(t, false)
	now := time.Now()
	newRec := func() *recorder { return newRecorder(clock{start: now, end: now}, false, nil) }

	inst, err := setupPages(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := inst.(*pagesBench)
	page := make([]byte, p.opts.PageSize)
	stamp(page, 8, p.acked[7].Load())
	if err := p.s.Apply(store.NewBatch().Write(7, page)); err != nil {
		t.Fatal(err)
	}
	rec := newRec()
	if err := p.verify(rec); err != nil {
		t.Fatal(err)
	}
	if n, _ := rec.failures(); n == 0 {
		t.Error("pages: a page holding another page's stamp passed verification")
	}

	inst, err = setupKV(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := inst.(*kvBench)
	val := make([]byte, k.valLen)
	stamp(val, 5, k.acked[5].Load()+1)
	if err := k.s.Commit(vlog.NewBatch().Put(k.keys[5], val)); err != nil {
		t.Fatal(err)
	}
	rec = newRec()
	if err := k.verify(rec); err != nil {
		t.Fatal(err)
	}
	if n, _ := rec.failures(); n == 0 {
		t.Error("kv: a value with an unacknowledged version passed verification")
	}

	// tpcc: each case plants one wrong row in a stock row of a freshly
	// set-up database.
	const table = "stock"
	for _, c := range []struct {
		name, want string // want: part of the failure verification reports
		plant      func(b *tpccBench, key uint64, row []byte) ([]byte, error)
	}{
		{"row stamped for another key", "stamp names another row", func(b *tpccBench, key uint64, row []byte) ([]byte, error) {
			row[0] ^= 1
			return row, nil
		}},
		{"version a later commit replaced", "which a later commit replaced", func(b *tpccBench, key uint64, row []byte) ([]byte, error) {
			var vers []uint32
			for range 2 {
				x, err := b.begin()
				if err != nil {
					return nil, err
				}
				if err := x.Put(table, key, row); err != nil {
					return nil, err
				}
				if err := x.Commit(); err != nil {
					return nil, err
				}
				vers = append(vers, x.ver)
			}
			return b.stamp(b.index[table], key, row, vers[0]), nil
		}},
		{"version of a rolled-back transaction", "which no committed transaction wrote there", func(b *tpccBench, key uint64, row []byte) ([]byte, error) {
			x, err := b.begin()
			if err != nil {
				return nil, err
			}
			if err := x.Put(table, key, row); err != nil {
				return nil, err
			}
			if err := x.Rollback(); err != nil {
				return nil, err
			}
			return b.stamp(b.index[table], key, row, x.ver), nil
		}},
	} {
		inst, err := setupTPCC(cfg, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		b := inst.(*tpccBench)
		tree, err := b.db.Tree(table)
		if err != nil {
			t.Fatal(err)
		}
		var key uint64
		var row []byte
		if err := tree.Scan(0, ^uint64(0), func(k uint64, v []byte) bool {
			key, row = k, append([]byte(nil), v...)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if row, err = c.plant(b, key, row); err != nil {
			t.Fatalf("tpcc %s: %v", c.name, err)
		}
		if err := tree.Put(key, row); err != nil {
			t.Fatal(err)
		}
		rec = newRec()
		if err := b.verify(rec); err != nil {
			t.Fatal(err)
		}
		n, msgs := rec.failures()
		if n == 0 {
			t.Errorf("tpcc: a row holding a %s passed verification", c.name)
		} else if !strings.Contains(msgs[0], c.want) {
			t.Errorf("tpcc: a row holding a %s failed with %q, want %q", c.name, msgs[0], c.want)
		}
	}
}

func TestCheckStamp(t *testing.T) {
	p := make([]byte, 64)
	stamp(p, 3, 5)
	if why := checkStamp(p, 3, 5, 5); why != "" {
		t.Fatalf("a correct stamp failed: %s", why)
	}
	for _, c := range []struct {
		id, lo, hi uint32
	}{{4, 5, 5}, {3, 6, 9}, {3, 1, 4}} {
		if checkStamp(p, c.id, c.lo, c.hi) == "" {
			t.Errorf("stamp (3, 5) accepted as item %d in [%d, %d]", c.id, c.lo, c.hi)
		}
	}
	p[len(p)-1] ^= 1
	if checkStamp(p, 3, 5, 5) == "" {
		t.Error("a torn tail was accepted")
	}
}

// TestQuantile pins the latency math: nearest rank over sorted raw
// samples, lowered until ten samples lie beyond it, and the median of it
// over consecutive windows.
func TestQuantile(t *testing.T) {
	var l, half, few latency
	for i := 1000; i >= 1; i-- {
		l.add(int64(i))
		if i > 500 {
			half.add(int64(i))
		}
		if i > 990 {
			few.add(int64(i))
		}
	}
	if d, used, ok := l.quantile(0.99); !ok || d != 990 || used != 0.99 {
		t.Errorf("p99 of 1..1000 = %v at %v (ok %v), want 990 at 0.99", d, used, ok)
	}
	if d, _, _ := l.quantile(0.5); d != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", d)
	}
	if d, used, ok := half.quantile(0.99); !ok || used != 0.98 || d != 990 {
		t.Errorf("p99 of 501..1000 = %v at %v, want the 0.98 rank (990)", d, used)
	}
	if _, _, ok := few.quantile(0.5); ok {
		t.Error("a percentile was reported with fewer than ten samples beyond it")
	}

	// Three windows of 1..10000, the middle one ten times slower: the
	// median of their p99s is the p99 of a normal window.
	var slow latency
	for w := range 3 {
		for i := 1; i <= 10000; i++ {
			slow.add(int64(i) * (1 + 9*int64(w%2)))
		}
	}
	if d, used, k, ok := slow.windowed(0.99); !ok || k != 3 || d != 9900 || used != 0.99 {
		t.Errorf("windowed p99 = %v at %v over %d windows (ok %v), want 9900 at 0.99 over 3", d, used, k, ok)
	}
	var flat latency
	for range 20 * 1000 {
		flat.add(7)
	}
	if d, _, k, _ := flat.windowed(0.5); k != maxWindows || d != 7 {
		t.Errorf("windowed p50 of 20,000 equal samples = %v over %d windows, want 7 over %d", d, k, maxWindows)
	}
	// Too few samples for two windows: the quantile of them all.
	if d, used, k, ok := half.windowed(0.99); !ok || k != 1 || used != 0.98 || d != 990 {
		t.Errorf("windowed p99 of 501..1000 = %v at %v over %d windows, want the 0.98 rank (990) over 1", d, used, k)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the workloads and
// metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	keys := slices.Sorted(maps.Keys(doc))
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if !slices.Equal(keys, want) {
		t.Fatalf("BENCHMARK.json keys %v, want %v", keys, want)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(benches) {
		t.Fatalf("%d workloads listed, %d implemented", len(spec.Workloads), len(benches))
	}
	for i, w := range spec.Workloads {
		if w.Name != benches[i].name || w.Why != benches[i].why {
			t.Errorf("workload %d: listed %q, implemented %q", i, w, benches[i].name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d reported", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: listed %+v, reported %+v", i, m, d)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d reported", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: listed %+v, reported %+v", i, m, d)
		}
		if d.target == "" {
			t.Errorf("per-layer %s names no end-to-end target", d.name)
		}
	}
}
