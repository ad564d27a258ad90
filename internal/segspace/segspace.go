// Package segspace is the segment lifecycle shared by the page store
// (internal/store, fixed-size slots) and the value log (internal/vlog,
// variable-size records). The paper's cleaning model does not depend on
// record shape — the two differ only in the 1/C factor of the declining-cost
// priority (§4.4), which core derives from the metadata kept here — so one
// Space owns the free pool, per-stream open segments and their seal-time
// up2 (§5.2.2), user and GC routing with the padded low-water mark,
// invalidation accounting, victim selection, relocate/release/abort, batch
// reservation, admission, stream stats and the cleaner.Target.
//
// Records are measured in bytes. What differs between the engines — index,
// record format, storage, durability — is reached through Hooks. Space
// embeds the engine's RWMutex; methods that touch state expect the caller to
// hold the write lock unless their comment says otherwise.
package segspace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
)

// Config describes one engine's segment space.
type Config struct {
	// Name prefixes metric names ("<name>.victim_e.permille") and errors.
	Name string
	// ErrFull and ErrClosed are the engine's sentinels, returned (ErrFull
	// wrapped) on capacity exhaustion and on a closed space.
	ErrFull, ErrClosed error
	// Segments segments of SegmentBytes (capacity B) each. The rest mirror
	// the engine options (FreeLowWater, CleanBatch, FreeHighWater, ...).
	Segments                              int
	SegmentBytes                          int64
	LowWater, Batch, HighWater, Emergency int
	Algorithm                             core.Algorithm
	Background                            bool
	Pacer                                 cleaner.Pacer
	Obs                                   *obs.Registry
	// Chunk is how many records background relocation installs per lock
	// hold, bounding writer stalls behind the cleaner.
	Chunk int
}

// Hooks are the engine callbacks a Space drives. Nil hooks are no-ops.
type Hooks[R any] struct {
	// Live yields each live record of victim seg.
	Live func(seg int32, yield func(R))
	// Load reads the candidates' payloads with no lock held (victims are
	// frozen in core.SegCleaning).
	Load func(cands []Cand[R]) error
	// Relocate moves one candidate if it is still current, appending it
	// through ReserveGC/Tail/Appended. It reports the bytes the record no
	// longer occupies in its victim (0 if superseded since selection) and
	// whether a copy was written.
	Relocate func(c *Cand[R]) (freed int64, moved bool, err error)
	// Durable makes relocated copies durable before victims are released;
	// locked reports whether the caller holds the write lock.
	Durable func(locked bool) error
	// Opened prepares free segment seg for appends to stream; Sealed runs
	// after seg sealed; Released after victim seg returned to the pool.
	Opened   func(seg, stream int32) error
	Sealed   func(seg int32) error
	Released func(seg int32)
}

// Cand is one live victim record captured at selection.
type Cand[R any] struct {
	Seg int32
	Up2 float64 // the victim's up2: the copy's carried value and GC sort key
	Rec R
}

// Space is one engine's segment space, keyed by the engine's record key K
// (for the router's per-key clock) and carrying engine victim records R.
type Space[K comparable, R any] struct {
	sync.RWMutex // the engine lock

	cfg   Config
	hooks Hooks[R]

	// Meta is the per-segment metadata policies select on; Now is the
	// update clock unow (one tick per user write).
	Meta []core.SegmentMeta
	Now  uint64

	used      []int64 // bytes appended per segment
	free      []int32
	freeCount atomic.Int64 // len(free), readable without the lock
	open      []int32      // open segment per stream (-1 = none)
	up2Sum    []float64    // carried-up2 sum of each open segment's records
	count     []int        // records appended to each open segment
	streams   int32
	seen      core.StreamSet // streams ever appended to (low-water pad)
	trigger   int32          // stream of the latest user append (View.TriggerStream)
	sealSeq   uint64
	closed    bool

	clock map[K]clock // each key's routing history; nil without a router

	gcRecords, gcBytes uint64
	cleaned            uint64
	sumE               float64
	pendingE           map[int32]float64 // emptiness at selection of in-flight victims

	cl    *cleaner.Cleaner
	cands []Cand[R] // the background cycle's candidates, Select → Relocate

	spanAdmit, spanApply string
	hVictimE             *obs.Histogram // <name>.victim_e.permille: emptiness of released victims
	cErrFull             *obs.Counter   // <name>.errfull episodes
	cAborts              *obs.Counter   // <name>.victim_aborts: victims re-sealed after a failed cycle
	trace                *obs.Trace
}

// New validates cfg and builds a space with an empty free pool: the engine
// adds segments with Free and Restore, then calls Start.
func New[K comparable, R any](cfg Config, hooks Hooks[R]) (*Space[K, R], error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	streams := int32(2)
	if r := cfg.Algorithm.Router; r != nil {
		streams = r.Streams()
	}
	sp := &Space[K, R]{
		cfg:       cfg,
		hooks:     hooks,
		Meta:      make([]core.SegmentMeta, cfg.Segments),
		used:      make([]int64, cfg.Segments),
		open:      make([]int32, streams),
		up2Sum:    make([]float64, streams),
		count:     make([]int, streams),
		streams:   streams,
		pendingE:  make(map[int32]float64),
		spanAdmit: cfg.Name + ".admit",
		spanApply: cfg.Name + ".apply",
		hVictimE:  cfg.Obs.Histogram(cfg.Name + ".victim_e.permille"),
		cErrFull:  cfg.Obs.Counter(cfg.Name + ".errfull"),
		cAborts:   cfg.Obs.Counter(cfg.Name + ".victim_aborts"),
		trace:     cfg.Obs.Trace(),
	}
	for i := range sp.open {
		sp.open[i] = -1
	}
	for i := range sp.Meta {
		sp.Meta[i] = core.SegmentMeta{Capacity: cfg.SegmentBytes, Free: cfg.SegmentBytes}
	}
	if cfg.Algorithm.Router != nil {
		sp.clock = make(map[K]clock)
	}
	return sp, nil
}

func (c Config) validate() error {
	if c.Segments < c.LowWater+2 {
		return fmt.Errorf("%s: MaxSegments (%d) must be at least FreeLowWater+2 (%d)", c.Name, c.Segments, c.LowWater+2)
	}
	if c.LowWater <= c.Batch {
		return fmt.Errorf("%s: FreeLowWater (%d) must exceed CleanBatch (%d) so relocations always fit",
			c.Name, c.LowWater, c.Batch)
	}
	if c.Algorithm.Exact {
		return fmt.Errorf("%s: exact-rate algorithm %s needs a workload oracle; use the estimator variant", c.Name, c.Algorithm.Name)
	}
	if r := c.Algorithm.Router; r != nil {
		n := int(r.Streams())
		if n < 2 || n > core.MaxRouterStreams {
			return fmt.Errorf("%s: routed algorithm %s declares %d streams (want 2..%d)",
				c.Name, c.Algorithm.Name, n, core.MaxRouterStreams)
		}
		// Each stream can pin a partially filled open segment AND adds one
		// to the low-water reserve; without room for both, thin data spread
		// over many bands wedges into ErrFull with nothing sealed to clean.
		if c.Segments < c.LowWater+2*n+2 {
			return fmt.Errorf("%s: routed algorithm %s needs MaxSegments >= FreeLowWater(%d) + 2*streams(%d) + 2",
				c.Name, c.Algorithm.Name, c.LowWater, n)
		}
	}
	return nil
}

// Start launches the background cleaner, if configured, once the engine
// has recovered.
func (sp *Space[K, R]) Start() error {
	if !sp.cfg.Background {
		return nil
	}
	routed := 0
	if sp.cfg.Algorithm.Router != nil {
		routed = int(sp.streams)
	}
	cl, err := cleaner.Start(sp, cleaner.Options{
		LowWater:       sp.cfg.LowWater,
		HighWater:      sp.cfg.HighWater,
		EmergencyFloor: sp.cfg.Emergency,
		Batch:          sp.cfg.Batch,
		TotalSegments:  sp.cfg.Segments,
		Streams:        routed,
		Pacer:          sp.cfg.Pacer,
		Obs:            sp.cfg.Obs,
	})
	sp.cl = cl
	return err
}

// StopCleaner stops the background cleaner, if any (call it unlocked).
func (sp *Space[K, R]) StopCleaner() {
	if sp.cl != nil {
		sp.cl.Stop()
	}
}

// Closed reports whether MarkClosed ran; after it, cleaning stops.
func (sp *Space[K, R]) Closed() bool { return sp.closed }
func (sp *Space[K, R]) MarkClosed()  { sp.closed = true }

// Free adds an empty segment to the pool; the last one added is used first.
func (sp *Space[K, R]) Free(seg int32) {
	sp.free = append(sp.free, seg)
	sp.freeCount.Store(int64(len(sp.free)))
}

// Restore installs a recovered segment holding used bytes as sealed, in log
// order (it assigns the seal sequence age-based cleaning orders by).
func (sp *Space[K, R]) Restore(seg, stream int32, used int64) {
	m := &sp.Meta[seg]
	m.Stream = core.ClampStream(stream, core.MaxRouterStreams)
	m.State = core.SegSealed
	sp.sealSeq++
	m.SealSeq = sp.sealSeq
	sp.used[seg] = used
	sp.seen.Note(core.ClampStream(m.Stream, sp.streams))
}

// Used returns the bytes appended to seg since it was opened.
func (sp *Space[K, R]) Used(seg int32) int64 { return sp.used[seg] }

// FreeSegments reports the free-pool size. It takes no lock (cleaner.Target).
func (sp *Space[K, R]) FreeSegments() int { return int(sp.freeCount.Load()) }

// lowWater is the effective cleaning threshold: routed placement can hold a
// partially filled open segment per stream the workload has used, so the
// reserve grows (monotonically) with the observed stream count.
func (sp *Space[K, R]) lowWater() int {
	lw := sp.cfg.LowWater
	if sp.cfg.Algorithm.Router != nil {
		lw += sp.seen.Count()
	}
	return lw
}

// Admit runs a user operation of n records through admission control, then
// apply under the write lock. A transient background-mode ErrFull (lost race
// for the last free segments) is retried through admission, which blocks
// below the emergency floor until the cleaner catches up. A non-nil parent
// gets "<name>.admit" and "<name>.apply" child spans.
func (sp *Space[K, R]) Admit(n int, parent *obs.Span, apply func() error) error {
	for attempt := 0; ; attempt++ {
		if sp.cl != nil {
			leg := parent.Child(sp.spanAdmit)
			err := sp.cl.AdmitN(n)
			leg.End()
			if err != nil {
				if errors.Is(err, cleaner.ErrExhausted) {
					return fmt.Errorf("%w: %v", sp.cfg.ErrFull, err)
				}
				return fmt.Errorf("%s: write admission: %w", sp.cfg.Name, err)
			}
		}
		leg := parent.Child(sp.spanApply)
		sp.Lock()
		err := apply()
		lowWater := sp.cl != nil && len(sp.free) < sp.lowWater()
		sp.Unlock()
		leg.End()
		if lowWater {
			sp.cl.Kick()
		}
		if errors.Is(err, sp.cfg.ErrFull) && sp.cl != nil && attempt < 4 {
			continue
		}
		return err
	}
}

// UserAppend secures room for a user record of size bytes for key k, ticks
// the update clock and returns the stream. p is the placement from
// PrepareBatch, or nil for a single write, routed here and cleaning in the
// foreground if needed. drop (a deletion) forgets k's routing history. The
// engine then invalidates k's old version and appends via Tail/Appended.
func (sp *Space[K, R]) UserAppend(k K, p *Planned, size int64, drop bool) (int32, error) {
	var pl Planned
	if p != nil {
		pl = *p
	} else {
		pl.stream, pl.clock = sp.route(k)
	}
	if err := sp.reserve(pl.stream, size, p == nil, false); err != nil {
		if p != nil {
			// Unreachable when the plan is sound; surface rather than hide.
			err = fmt.Errorf("%s: batch reservation violated: %w", sp.cfg.Name, err)
		}
		return -1, err
	}
	sp.Now++
	sp.trigger = pl.stream
	if sp.clock != nil {
		if drop {
			delete(sp.clock, k)
		} else {
			sp.clock[k] = pl.clock
		}
	}
	return pl.stream, nil
}

// Forget ticks the update clock for a user deletion that appends nothing
// and drops k's routing history.
func (sp *Space[K, R]) Forget(k K) {
	sp.Now++
	delete(sp.clock, k)
}

// ReserveGC secures size bytes for relocating a record with carried up2 and
// returns the stream: GC stream 1, or with a router the stream for the
// §4.3 interval estimate unow-up2, so hot and cold GC output land in
// different segments (§5.3). GC appends may use the reserve they defend.
func (sp *Space[K, R]) ReserveGC(up2 float64, size int64) (int32, error) {
	stream := int32(1)
	if r := sp.cfg.Algorithm.Router; r != nil {
		stream = core.ClampStream(r.Route(uint64(core.EstimatedInterval(up2, sp.Now)), -1), sp.streams)
	}
	return stream, sp.reserve(stream, size, false, true)
}

// reserve makes stream's open segment able to take size more bytes,
// sealing one the record does not fit in. clean lets a single user write
// clean in the foreground below the low-water mark. User appends in
// background mode leave the last free segment for the cleaner's GC output.
func (sp *Space[K, R]) reserve(stream int32, size int64, clean, gc bool) error {
	if err := sp.sealShort(stream, size); err != nil {
		return err
	}
	if sp.open[stream] >= 0 {
		return nil
	}
	if clean && sp.cl == nil && len(sp.free) < sp.lowWater() {
		if err := sp.cleanUntil(sp.lowWater); err != nil {
			return err
		}
		// Routed cleaning may have opened this very stream for its own
		// relocations; opening another would orphan that segment.
		if err := sp.sealShort(stream, size); err != nil {
			return err
		}
		if sp.open[stream] >= 0 {
			return nil
		}
	}
	need := 1
	if !gc && sp.cl != nil {
		need = 2
	}
	return sp.openSeg(stream, need)
}

// sealShort seals stream's open segment if size more bytes do not fit.
func (sp *Space[K, R]) sealShort(stream int32, size int64) error {
	if seg := sp.open[stream]; seg >= 0 && sp.used[seg]+size > sp.cfg.SegmentBytes {
		return sp.seal(stream)
	}
	return nil
}

// openSeg takes a free segment for stream, if the pool holds at least need.
func (sp *Space[K, R]) openSeg(stream int32, need int) error {
	if len(sp.free) < need {
		sp.cErrFull.Inc()
		sp.trace.Emit(obs.EvErrFull, int64(len(sp.free)), int64(need))
		return sp.cfg.ErrFull
	}
	seg := sp.free[len(sp.free)-1]
	sp.free = sp.free[:len(sp.free)-1]
	sp.freeCount.Store(int64(len(sp.free)))
	if sp.hooks.Opened != nil {
		if err := sp.hooks.Opened(seg, stream); err != nil {
			return err
		}
	}
	sp.Meta[seg] = core.SegmentMeta{
		Capacity: sp.cfg.SegmentBytes,
		Free:     sp.cfg.SegmentBytes,
		Stream:   stream,
		State:    core.SegOpen,
	}
	sp.used[seg] = 0
	sp.open[stream] = seg
	sp.up2Sum[stream] = 0
	sp.count[stream] = 0
	return nil
}

// Tail returns stream's open segment and the offset its next record goes
// to; UserAppend or ReserveGC must have secured its room.
func (sp *Space[K, R]) Tail(stream int32) (seg int32, off int64) {
	seg = sp.open[stream]
	return seg, sp.used[seg]
}

// Appended accounts a size-byte record the engine wrote at Tail(stream),
// carrying up2 into the segment's seal-time average, and seals the segment
// once it is full.
func (sp *Space[K, R]) Appended(stream int32, size int64, carried float64) error {
	sp.seen.Note(stream)
	seg := sp.open[stream]
	sp.used[seg] += size
	sp.up2Sum[stream] += carried
	sp.count[stream]++
	m := &sp.Meta[seg]
	m.Live++
	m.Free -= size
	if sp.used[seg] == sp.cfg.SegmentBytes {
		return sp.seal(stream)
	}
	return nil
}

// seal closes stream's open segment. §5.2.2: a sealed segment's up2 starts
// as the average carried up2 of its records.
func (sp *Space[K, R]) seal(stream int32) error {
	seg := sp.open[stream]
	if seg < 0 {
		return nil
	}
	m := &sp.Meta[seg]
	m.State = core.SegSealed
	sp.sealSeq++
	m.SealSeq = sp.sealSeq
	m.SealTime = sp.Now
	if sp.count[stream] > 0 {
		m.Up2 = sp.up2Sum[stream] / float64(sp.count[stream])
	}
	sp.open[stream] = -1
	sp.up2Sum[stream] = 0
	sp.count[stream] = 0
	if sp.hooks.Sealed != nil {
		return sp.hooks.Sealed(seg)
	}
	return nil
}

// SealAll seals every open segment (engine shutdown).
func (sp *Space[K, R]) SealAll() error {
	for stream := range sp.open {
		if err := sp.seal(int32(stream)); err != nil {
			return err
		}
	}
	return nil
}

// Invalidate releases a size-byte record of segment seg that a user write
// superseded, advancing the segment's up2 estimate per §5.2.2, and returns
// the carried up2 for the new version.
func (sp *Space[K, R]) Invalidate(seg int32, size int64) float64 {
	m := &sp.Meta[seg]
	carried := core.NextUp2(m.Up2, sp.Now)
	m.Up2 = carried
	m.Live--
	m.Free += size
	return carried
}

// Usage is the space-level half of an engine's Stats. SealedSegments
// includes victims mid-clean; Streams has one entry per append stream.
type Usage struct {
	FreeSegments, SealedSegments int
	GCRecords, GCBytes           uint64
	SegmentsCleaned              uint64
	MeanEAtClean                 float64
	Streams                      []core.StreamStats
}

// Usage snapshots the space counters. Caller holds at least the read lock.
func (sp *Space[K, R]) Usage() Usage {
	u := Usage{
		FreeSegments:    len(sp.free),
		GCRecords:       sp.gcRecords,
		GCBytes:         sp.gcBytes,
		SegmentsCleaned: sp.cleaned,
		Streams:         make([]core.StreamStats, sp.streams),
	}
	if sp.cleaned > 0 {
		u.MeanEAtClean = sp.sumE / float64(sp.cleaned)
	}
	for seg := range sp.Meta {
		m := &sp.Meta[seg]
		if m.State == core.SegFree {
			continue
		}
		if m.State != core.SegOpen {
			u.SealedSegments++
		}
		ss := &u.Streams[core.ClampStream(m.Stream, sp.streams)]
		ss.Segments++
		ss.Live += int(m.Live)
		ss.LiveBytes += m.Capacity - m.Free
		if m.State == core.SegOpen {
			ss.OpenSegments++
			ss.OpenFill = float64(sp.used[seg]) / float64(sp.cfg.SegmentBytes)
		}
	}
	for i := range u.Streams {
		u.Streams[i].Written = sp.seen.Has(int32(i))
	}
	return u
}

// Cleaner reports whether a background cleaner runs and its snapshot. Call
// it without the lock.
func (sp *Space[K, R]) Cleaner() (bool, cleaner.Stats) {
	if sp.cl == nil {
		return false, cleaner.Stats{}
	}
	return true, sp.cl.Stats()
}
