// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload against the engines' public APIs,
// times every call with its own clock, verifies every value it reads, and
// prints one JSON result line:
//
//	perfbench --workload tpcc --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// the timed phase is split into an untraced and a traced half and the
// result carries the per-layer metrics of the traced half, while the
// benchmark's spans and the engines' sampled span trees are written to a
// spans file.
// See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/obs"
)

// instance is one set-up workload: a loaded, warmed engine and the
// closed-loop clients that drive it.
type instance interface {
	// drive runs the clients until the recorder's clock ends.
	drive(rec *recorder) error
	// counters reads the engine's cumulative counters (see counters).
	counters() counters
	// endState measures the end of the timed phase before verify closes
	// the instance: the bytes the engine's segments hold, the live
	// user bytes they store.
	endState() (used, live float64, err error)
	// layer adds the workload's own per-layer metrics over a window.
	layer(w window, v values)
	// verify checks the stored state after the timed phase: invariants,
	// every acknowledged write, and a reopen where the engine is durable.
	// It leaves the instance closed.
	verify(rec *recorder) error
	registry() *obs.Registry
	close() error
}

// counters are an engine's cumulative counters by name. Every engine sets
// user_writes and gc_writes (its write amplification), medium_bytes (bytes
// written to its storage medium), the cleaner.* counters and mean_e; the
// rest are its own.
type counters map[string]float64

// window is the span of a timed phase a set of metrics covers.
type window struct {
	elapsed time.Duration
	ops     opStats
	c0, c1  counters
	s0, s1  sysSnap
}

// delta is a counter's change over the window.
func (w window) delta(name string) float64 { return w.level(name) - w.c0[name] }

// level is a counter's value at the end of the window. A name the engine
// never reported is a fault in the benchmark, not a zero, so it panics.
func (w window) level(name string) float64 {
	v, ok := w.c1[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: counter %q was never recorded", name))
	}
	return v
}

// done counts the end-to-end operations that completed.
func (w window) done() float64 {
	var n int64
	for _, c := range []string{"write", "read"} {
		if o := w.ops[c]; o != nil {
			n += o.n - o.failed
		}
	}
	return float64(n)
}

// bench is a named workload: the inputs one run drives.
type bench struct {
	name, why string
	setup     func(cfg config, dir string) (instance, error)
}

var benches = []bench{
	{name: "tpcc", why: "TPC-C through pagedb transactions: WAL appends and truncation, stop-the-world checkpoints and faulting reads", setup: setupTPCC},
	{name: "pages_hotcold", why: "the paper's 90/10 hot/cold page updates on the page store at fill 0.85: cleaner and victim selection do the work", setup: setupPages},
	{name: "kv_hotcold", why: "the same skew on the vlog key-value engine, which no other workload touches", setup: setupKV},
}

func findBench(name string) (bench, error) {
	for _, w := range benches {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(benches))
	for i, w := range benches {
		names[i] = w.name
	}
	return bench{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // scratch directory for the engines' files
	out     string // directory for the spans file of a traced run
	tiny    bool   // test-sized inputs
	setups  int    // how many times set-up runs (the median is reported)
	probes  int    // fsync probe iterations
}

func main() {
	name := flag.String("workload", "", "workload to run: tpcc, pages_hotcold or kv_hotcold")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced half-phase")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, trace int) error {
	w, err := findBench(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	// Everything the run writes stays under the checkout's build directory.
	const base = ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(base, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := config{
		seed:    seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		trace:   trace == 1,
		dir:     dir,
		out:     filepath.Join(base, "spans"),
		setups:  5,
		probes:  1000,
	}
	res, err := run(cfg, w, os.Stdout)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errors.New("verification failed")
	}
	return nil
}

// info is the line printed before the result: what the result was
// measured on, how much CPU the hypervisor took from the machine during
// the timed phase, and how many samples stand behind each percentile.
type info struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Host      host               `json:"host"`
	Probe     probe              `json:"probe"`
	SetupS    []float64          `json:"setup_s"`
	VerifyS   float64            `json:"verify_s"`
	Samples   map[string]sampled `json:"samples,omitempty"`
	FailRatio float64            `json:"fail_ratio"`
	StealS    float64            `json:"steal_s"`
	Mismatch  []string           `json:"mismatches,omitempty"`
	Spans     string             `json:"spans_file,omitempty"`
}

// sampled states the sample count behind a percentile, the percentile the
// samples supported, and how many windows it is the median of.
type sampled struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile"`
	Windows    int     `json:"windows"`
}

// run sets the workload up cfg.setups times, drives the last instance for
// cfg.seconds, verifies it, and returns the result. The info line goes to
// out.
func run(cfg config, w bench, out io.Writer) (result, error) {
	inf := info{Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Host: hostLabel(cfg.dir)}
	var err error
	if inf.Probe, err = probeFsync(cfg.dir, cfg.probes); err != nil {
		return result{}, err
	}

	var inst instance
	var setups []time.Duration
	for i := range max(cfg.setups, 1) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			if err := os.RemoveAll(filepath.Join(cfg.dir, fmt.Sprint("setup-", i-1))); err != nil {
				return result{}, err
			}
			runtime.GC() // so the closed instance's garbage does not raise the next one's peak
		}
		t0 := time.Now()
		if inst, err = w.setup(cfg, filepath.Join(cfg.dir, fmt.Sprint("setup-", i))); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		setups = append(setups, d)
		inf.SetupS = append(inf.SetupS, d.Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()

	runtime.GC()
	var cm counters
	var sm sysSnap
	var smp *sampler
	now := time.Now()
	rec := newRecorder(clock{start: now, end: now.Add(cfg.seconds)}, cfg.trace, func() {
		cm, sm = inst.counters(), takeSys()
		smp = startSampler(inst.registry())
	})
	c0, s0 := inst.counters(), takeSys()
	// drive returns after its clients have, so what onHalf set is visible.
	driveErr := inst.drive(rec)
	end := time.Now()
	c1, s1 := inst.counters(), takeSys()
	peak := peakRSSMB()
	if smp != nil {
		smp.finish()
	}
	if driveErr != nil {
		return result{}, driveErr
	}
	used, live, err := inst.endState()
	if err != nil {
		return result{}, err
	}
	closed = true
	t0 := time.Now()
	if err := inst.verify(rec); err != nil {
		return result{}, err
	}
	inf.VerifyS = time.Since(t0).Seconds()

	res := result{Correct: true}
	for _, ph := range rec.phase {
		for _, c := range []string{"write", "read"} {
			if o := ph[c]; o != nil {
				res.Attempted += o.n
				res.Failed += o.failed
			}
		}
	}
	if res.Attempted == 0 {
		return result{}, errors.New("no operation ran")
	}
	inf.FailRatio = float64(res.Failed) / float64(res.Attempted)
	inf.StealS = (s1.steal - s0.steal).Seconds()
	var nbad int64
	if nbad, inf.Mismatch = rec.failures(); nbad > 0 {
		res.Correct = false
	}

	v := values{}
	if !cfg.trace {
		wd := window{elapsed: end.Sub(rec.clk.start), ops: rec.phase[0], c0: c0, c1: c1, s0: s0, s1: s1}
		if inf.Samples, err = endToEndValues(wd, v); err != nil {
			return result{}, err
		}
		v["setup_s"] = median(setups).Seconds()
		v["peak_rss_mb"] = peak
		v["space_amp"] = ratio(used, live)
		res.Metrics, err = render(endToEnd, v, false)
	} else {
		if smp == nil {
			return result{}, errors.New("the traced half never started")
		}
		untraced := window{elapsed: rec.midAt.Sub(rec.clk.start), ops: rec.phase[0]}
		wd := window{elapsed: end.Sub(rec.midAt), ops: rec.phase[1], c0: cm, c1: c1, s0: sm, s1: s1}
		layerValues(wd, v, inf.Probe)
		v["trace.overhead"] = ratio(wd.done()/wd.elapsed.Seconds(), untraced.done()/untraced.elapsed.Seconds())
		for _, m := range []string{"tpcc", "pagedb", "store", "vlog"} {
			v[m+".self_ms"] = ms(rec.self[m])
		}
		v["trace.sampled_ops"] = float64(smp.n)
		for _, m := range []string{"pagedb", "wal", "btree", "store", "cleaner", "core"} {
			v[m+".sampled_self_ms"] = ms(smp.self[m])
		}
		inst.layer(wd, v)
		if inf.Spans, err = writeSpans(cfg, w.name, rec, smp); err != nil {
			return result{}, err
		}
		res.Metrics, err = render(perLayer, v, true)
	}
	if err != nil {
		return result{}, err
	}
	line, err := json.Marshal(inf)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(out, string(line))
	return res, nil
}

// endToEndValues computes the end-to-end metrics a window determines and
// returns the sample count behind each percentile.
func endToEndValues(w window, v values) (map[string]sampled, error) {
	done := w.done()
	if done == 0 {
		return nil, errors.New("no operation completed")
	}
	v["throughput_ops_s"] = done / w.elapsed.Seconds()
	samples := map[string]sampled{}
	for _, p := range []struct {
		name, class string
		q           float64
	}{
		{"write_p50_us", "write", 0.5}, {"write_p99_us", "write", 0.99},
		{"read_p50_us", "read", 0.5}, {"read_p99_us", "read", 0.99},
	} {
		lat := w.ops.op(p.class).lat
		d, used, k, ok := lat.windowed(p.q)
		if !ok {
			return nil, fmt.Errorf("%s: %d samples are too few", p.name, lat.n)
		}
		v[p.name] = us(d)
		samples[p.name] = sampled{N: lat.n, Percentile: used, Windows: k}
	}
	v["cpu_us_per_op"] = us(w.s1.cpu-w.s0.cpu) / done
	v["write_amp"] = ratio(w.delta("gc_writes"), w.delta("user_writes"))
	v["write_bytes_per_user_byte"] = ratio(w.delta("medium_bytes"), float64(w.ops.op("write").bytes))
	return samples, nil
}

// layerValues computes the per-layer metrics every workload shares.
func layerValues(w window, v values, p probe) {
	v["device.fsync_p50_us"] = p.P50us
	v["device.fsync_p99_us"] = p.P99us
	v["device.write_bytes"] = float64(w.s1.wchar - w.s0.wchar)
	v["device.write_syscalls"] = float64(w.s1.syscw - w.s0.syscw)
	v["runtime.gc_pause_ms"] = float64(w.s1.gcPause-w.s0.gcPause) / 1e6
	v["runtime.alloc_bytes_per_op"] = ratio(float64(w.s1.alloc-w.s0.alloc), w.done())
	v["cleaner.cycles"] = w.delta("cleaner.cycles")
	v["cleaner.segments_reclaimed"] = w.delta("cleaner.segments_reclaimed")
	v["cleaner.bytes_relocated"] = w.delta("cleaner.bytes_relocated")
	v["cleaner.writer_stall_ms"] = w.delta("cleaner.writer_stall_ns") / 1e6
	v["cleaner.writer_delay_ms"] = w.delta("cleaner.writer_delay_ns") / 1e6
	v["core.victim_e.mean"] = w.level("mean_e")
}

// median of a non-empty list of durations.
func median(d []time.Duration) time.Duration {
	s := slices.Clone(d)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// writeSpans writes a traced run's benchmark spans and sampled engine span
// trees to a JSON file under cfg.out and returns its path.
func writeSpans(cfg config, name string, rec *recorder, smp *sampler) (string, error) {
	if cfg.out == "" {
		return "", nil
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	doc := struct {
		Workload string           `json:"workload"`
		Seed     int64            `json:"seed"`
		Start    int64            `json:"start_unix_nanos"`
		Spans    []span           `json:"spans"`
		Dropped  int64            `json:"spans_dropped"`
		Sampled  []obs.SpanRecord `json:"sampled_trees"`
	}{Workload: name, Seed: cfg.seed, Start: rec.clk.start.UnixNano(), Spans: rec.spans, Dropped: rec.dropped}
	if smp != nil {
		doc.Sampled = smp.trees
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
