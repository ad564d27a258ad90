package segspace

import (
	"fmt"

	"repro/internal/core"
)

// clock is a key's update history for the router: the update-clock tick of
// its last user write and the smoothed interval between successive writes.
type clock struct {
	last uint64
	est  uint32
}

// at folds a write at tick now into the history.
func (c clock) at(now uint64) clock {
	if c.last != 0 {
		c.est = core.SmoothInterval(c.est, now-c.last)
	}
	c.last = now
	return c
}

// route picks the append stream for a user write of k at the next tick and
// returns k's advanced clock, to be installed once the append is admitted.
// Without a router every user write goes to stream 0.
func (sp *Space[K, R]) route(k K) (int32, clock) {
	r := sp.cfg.Algorithm.Router
	if r == nil {
		return 0, clock{}
	}
	c := sp.clock[k].at(sp.Now + 1)
	return core.ClampStream(r.Route(uint64(c.est), -1), sp.streams), c
}

// SeedClock starts k's routing history after a restart from the learned
// up2 of the segment holding it. last stays 0, so the next write folds no
// restart-sized interval into the estimate.
func (sp *Space[K, R]) SeedClock(k K, up2 float64) {
	if sp.clock != nil {
		sp.clock[k] = clock{est: core.SmoothInterval(0, uint64(core.EstimatedInterval(up2, sp.Now)))}
	}
}

// Ops is an ordered list of keyed writes and deletions, each write's
// payload copied into one arena so callers may reuse their buffers: the
// body of the engines' Batch types and the input of PrepareBatch.
type Ops[K comparable] struct {
	list []op[K]
	buf  []byte
}

type op[K comparable] struct {
	key      K
	del      bool
	off, len int // payload range in buf (writes only)
}

// Put appends a write of a copy of v to k.
func (o *Ops[K]) Put(k K, v []byte) {
	o.list = append(o.list, op[K]{key: k, off: len(o.buf), len: len(v)})
	o.buf = append(o.buf, v...)
}

// Delete appends a deletion of k.
func (o *Ops[K]) Delete(k K) { o.list = append(o.list, op[K]{key: k, del: true}) }

// Len returns the number of operations.
func (o *Ops[K]) Len() int { return len(o.list) }

// Reset empties the list, keeping its allocations.
func (o *Ops[K]) Reset() { o.list, o.buf = o.list[:0], o.buf[:0] }

// At returns operation i: its key, its payload (empty for a deletion), and
// whether it deletes.
func (o *Ops[K]) At(i int) (k K, v []byte, del bool) {
	p := &o.list[i]
	return p.key, o.buf[p.off : p.off+p.len], p.del
}

// Planned is one batch operation's placement, for UserAppend.
type Planned struct {
	stream int32
	clock  clock
}

// PrepareBatch plans ops, whose records take size bytes each (0 for an
// operation that appends nothing), and secures the free segments they need. In foreground mode it cleans first, to the
// same headroom contract as single writes: every segment open happens at or
// above the low-water mark. In background mode it fails fast with ErrFull
// and lets Admit retry while the cleaner catches up.
func (sp *Space[K, R]) PrepareBatch(ops *Ops[K], size func(k K, v []byte, del bool) int64) ([]Planned, error) {
	for guard := 0; ; guard++ {
		plan, newSegs := sp.plan(ops, size)
		if sp.cl != nil {
			// Segment opens leave the last free segment for the cleaner, so
			// the pool must cover newSegs plus that one.
			if len(sp.free) >= newSegs+1 {
				return plan, nil
			}
			return nil, sp.cfg.ErrFull
		}
		target := func() int { return sp.lowWater() + newSegs - 1 }
		if newSegs == 0 || len(sp.free) >= target() {
			return plan, nil
		}
		if guard > 2*sp.cfg.Segments {
			return nil, fmt.Errorf("%s: batch reservation cannot converge: %w", sp.cfg.Name, sp.cfg.ErrFull)
		}
		if err := sp.cleanUntil(target); err != nil {
			return nil, err
		}
		// Cleaning relocated records into the open segments, so the
		// routing/space plan is stale: replan against the new state.
	}
}

// plan computes, mutating nothing, each operation's stream and the fresh
// segments the batch consumes, replaying exactly what the apply loop does
// (clocks, ticks, per-stream room) so the reservation is exact.
func (sp *Space[K, R]) plan(ops *Ops[K], size func(k K, v []byte, del bool) int64) (plan []Planned, newSegs int) {
	r := sp.cfg.Algorithm.Router
	plan = make([]Planned, ops.Len())
	var vclock map[K]clock
	if r != nil {
		vclock = make(map[K]clock)
	}
	// Room left in each stream's open segment; -1 when none is open (every
	// record exceeds it, forcing a fresh segment).
	room := make([]int64, sp.streams)
	for st, seg := range sp.open {
		room[st] = -1
		if seg >= 0 {
			room[st] = sp.cfg.SegmentBytes - sp.used[seg]
		}
	}
	now := sp.Now
	for i := range plan {
		k, v, del := ops.At(i)
		n := size(k, v, del)
		now++
		if n == 0 {
			if vclock != nil {
				vclock[k] = clock{} // the apply loop forgets the key
			}
			continue
		}
		var p Planned
		if r != nil {
			c, ok := vclock[k]
			if !ok {
				c = sp.clock[k]
			}
			c = c.at(now)
			// The apply loop drops the clock at a deletion, so a same-batch
			// rewrite routes as history-free — mirror that.
			vclock[k] = c
			if del {
				vclock[k] = clock{}
			}
			p = Planned{stream: core.ClampStream(r.Route(uint64(c.est), -1), sp.streams), clock: c}
		}
		if room[p.stream] < n {
			newSegs++
			room[p.stream] = sp.cfg.SegmentBytes
		}
		room[p.stream] -= n
		plan[i] = p
	}
	return plan, newSegs
}
