package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// clock bounds a timed phase.
type clock struct{ start, end time.Time }

// over reports whether the timed phase has ended at t.
func (c clock) over(t time.Time) bool { return !t.Before(c.end) }

// pastHalf reports whether half the timed phase has passed at t.
func (c clock) pastHalf(t time.Time) bool { return !t.Before(c.start.Add(c.end.Sub(c.start) / 2)) }

// opStat accumulates one operation class: calls, failures, busy time, user
// bytes written and the raw latency of every successful call (kept only
// where a percentile of it is reported).
type opStat struct {
	n, failed int64
	busy      time.Duration
	bytes     int64
	lat       latency
}

func (o *opStat) add(d time.Duration, err error) {
	o.count(d, err)
	if err == nil {
		o.lat.add(int64(d))
	}
}

// count is add without keeping the sample.
func (o *opStat) count(d time.Duration, err error) {
	o.n++
	if err != nil {
		o.failed++
		return
	}
	o.busy += d
}

// opStats is one phase's operations by class. "write" and "read" are the
// end-to-end classes of every workload; other names are per-layer calls.
type opStats map[string]*opStat

func (s opStats) op(name string) *opStat {
	o := s[name]
	if o == nil {
		o = &opStat{}
		s[name] = o
	}
	return o
}

func (s opStats) merge(from opStats) {
	for name, f := range from {
		o := s.op(name)
		o.n += f.n
		o.failed += f.failed
		o.busy += f.busy
		o.bytes += f.bytes
		o.lat.merge(f.lat.chunks)
	}
}

// span is one benchmark-side timed call into a layer. Spans of one
// transaction share op; parent indexes the caller's span in the same
// batch (-1 for a root). Times are offsets from the phase start.
type span struct {
	Name   string        `json:"name"`
	Op     uint64        `json:"op"`
	Parent int32         `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// maxSpans bounds the spans kept for the spans file; self times are
// aggregated over every span regardless.
const maxSpans = 200_000

// recorder collects a timed phase's operations and verification failures
// from every client.
type recorder struct {
	clk clock
	ops atomic.Uint64

	// A traced run traces its second half: the workload calls traceFrom
	// halfway through its work, which runs onHalf once and from then on
	// makes tracing report true.
	trace   bool
	tracing atomic.Bool
	onHalf  func()
	once    sync.Once
	midAt   time.Time // when tracing began

	mu      sync.Mutex
	phase   [2]opStats // untraced, traced
	spans   []span
	dropped int64
	self    map[string]time.Duration // benchmark-span self time by module
	badN    int64
	bad     []string
}

func newRecorder(clk clock, trace bool, onHalf func()) *recorder {
	return &recorder{clk: clk, trace: trace, onHalf: onHalf,
		phase: [2]opStats{{}, {}}, self: map[string]time.Duration{}}
}

// traceFrom starts the traced half of a traced run; it is a no-op in an
// untraced run and after the first call.
func (r *recorder) traceFrom() {
	if !r.trace {
		return
	}
	r.once.Do(func() {
		r.onHalf()
		r.midAt = time.Now()
		r.tracing.Store(true)
	})
}

// nextOp returns a fresh operation id.
func (r *recorder) nextOp() uint64 { return r.ops.Add(1) }

// merge folds a client's operations and spans into the phase they ran in.
func (r *recorder) merge(traced bool, s opStats, sp []span) {
	var child []time.Duration
	if len(sp) > 0 {
		child = make([]time.Duration, len(sp))
		for _, x := range sp {
			if x.Parent >= 0 {
				child[x.Parent] += x.End - x.Start
			}
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := 0
	if traced {
		i = 1
	}
	r.phase[i].merge(s)
	base := int32(len(r.spans))
	for j, x := range sp {
		r.self[module(x.Name)] += x.End - x.Start - child[j]
		if len(r.spans) >= maxSpans {
			r.dropped++
			continue
		}
		if x.Parent >= 0 {
			x.Parent += base
		}
		r.spans = append(r.spans, x)
	}
}

// mismatch records a verification failure.
func (r *recorder) mismatch(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.badN++
	if len(r.bad) < 8 {
		r.bad = append(r.bad, fmt.Sprintf(format, args...))
	}
}

func (r *recorder) failures() (int64, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.badN, append([]string(nil), r.bad...)
}

// module is the layer a span name belongs to: its first dotted element.
func module(name string) string {
	m, _, _ := strings.Cut(name, ".")
	return m
}

// legModule maps the engines' own span names to the module whose code a
// leg's self time is spent in. A leg not listed inherits its parent's.
var legModule = map[string]string{
	"txn.commit":        "pagedb",
	"lock.wait":         "pagedb",
	"wal.append":        "wal",
	"tree.apply":        "btree",
	"wal.commit":        "wal",
	"pagedb.checkpoint": "pagedb",
	"sweep":             "pagedb",
	"stage":             "pagedb",
	"store.admit":       "store",
	"store.apply":       "store",
	"store.commit.wait": "store",
	"wal.truncate":      "wal",
	"cleaner.cycle":     "cleaner",
	"select":            "core",
	"relocate":          "cleaner",
	"release":           "cleaner",
}

// sampler drains the registry's slow-op ring while the traced half runs,
// with the capture threshold lowered so every engine span tree is a
// candidate; the 64-entry ring makes it a sample when trees arrive faster
// than it is drained.
type sampler struct {
	reg  *obs.Registry
	stop chan struct{}
	done chan struct{}

	last  uint64
	n     int64
	self  map[string]time.Duration
	trees []obs.SpanRecord
}

// maxTrees bounds the sampled trees kept for the spans file.
const maxTrees = 2000

func startSampler(reg *obs.Registry) *sampler {
	s := &sampler{reg: reg, stop: make(chan struct{}), done: make(chan struct{}), self: map[string]time.Duration{}}
	_, s.last = reg.SlowOps()
	reg.SetSlowOpThreshold(time.Nanosecond)
	go func() {
		defer close(s.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.poll()
				return
			case <-t.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	recs, total := s.reg.SlowOps()
	fresh := int(min(total-s.last, uint64(len(recs))))
	s.last = total
	for _, rec := range recs[len(recs)-fresh:] {
		s.n++
		addSelf(s.self, rec, legModule[rec.Name])
		if len(s.trees) < maxTrees {
			s.trees = append(s.trees, rec)
		}
	}
}

// finish stops sampling and restores the default capture threshold.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
	s.reg.SetSlowOpThreshold(time.Duration(obs.DefaultSlowOpNanos))
}

// addSelf adds each span's own time (its duration minus its children's)
// to its module.
func addSelf(self map[string]time.Duration, rec obs.SpanRecord, mod string) {
	if m, ok := legModule[rec.Name]; ok {
		mod = m
	}
	own := time.Duration(rec.Dur)
	for _, c := range rec.Children {
		own -= time.Duration(c.Dur)
		addSelf(self, c, mod)
	}
	self[mod] += own
}
