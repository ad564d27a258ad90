// Package vlog is an in-memory log-structured key-value store with
// variable-size records — log-structured memory in the style of RAMCloud
// (which the paper cites as a system whose cleaning MDC would improve) and
// of the value logs used by key-value separated LSM designs (WiscKey,
// HashKV).
//
// Values of arbitrary sizes are appended to fixed-size segments; an
// in-memory index maps keys to their current location; overwritten and
// deleted records become garbage that the cleaning policies of
// internal/core reclaim. Because records vary in size, victim priority uses
// the variable-size declining-cost form of paper §4.4 — the (B-A)/C average
// live record size is exactly the 1/C factor in core.DecliningCost.
//
// The segment lifecycle and cleaning, foreground (inside Put) or in the
// background (Options.BackgroundClean), are internal/segspace's.
package vlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/segspace"
)

// ErrFull means cleaning cannot reclaim enough space for the write.
var ErrFull = errors.New("vlog: capacity exhausted")

// ErrTooLarge means a record exceeds the segment capacity.
var ErrTooLarge = errors.New("vlog: record larger than a segment")

// errClosed is returned by operations on a closed store.
var errClosed = errors.New("vlog: closed")

// Options configures a Store.
type Options struct {
	// SegmentBytes is the segment capacity (default 1 MiB).
	SegmentBytes int
	// MaxSegments bounds total memory (default 64).
	MaxSegments int
	// Algorithm is the cleaning policy (default core.MDC()). Routed
	// algorithms (core.MultiLog, core.MDCRouted) spread user and GC appends
	// across Router.Streams() per-temperature streams, driven by a per-key
	// last-write clock; exact-rate variants are rejected, as in the page
	// store.
	Algorithm core.Algorithm
	// FreeLowWater triggers cleaning below this many free segments
	// (default CleanBatch+2).
	FreeLowWater int
	// CleanBatch is the victim count per cycle (default 4).
	CleanBatch int
	// Durability is accepted for API symmetry with the page store and
	// documents the contract a volatile engine can honor: the store lives
	// in memory, so every level behaves identically — a returned Put or
	// Commit is "durable" in the sense that it is visible to every later
	// Get until Close. Batch atomicity (all-or-nothing Commit) holds at
	// every level.
	Durability core.Durability

	// BackgroundClean moves cleaning off the write path into a background
	// goroutine driven by the free-pool watermarks (see internal/cleaner).
	BackgroundClean bool
	// FreeHighWater is where the background cleaner stops (default
	// FreeLowWater+CleanBatch, clamped). Ignored in foreground mode.
	FreeHighWater int
	// FreeEmergency is the admission-control floor (default
	// min(CleanBatch+1, FreeLowWater)). Ignored in foreground mode.
	FreeEmergency int
	// Pacer is the admission controller for background mode (default
	// cleaner.FloorPacer{}).
	Pacer cleaner.Pacer
	// Obs receives the store's metrics (vlog.* series), the cleaner's, and
	// trace events. Nil creates a private always-on registry; see
	// internal/obs.
	Obs *obs.Registry
}

func (o Options) withDefaults() (Options, error) {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.MaxSegments == 0 {
		o.MaxSegments = 64
	}
	if o.CleanBatch == 0 {
		o.CleanBatch = 4
	}
	if o.FreeLowWater == 0 {
		o.FreeLowWater = o.CleanBatch + 2
	}
	if o.Algorithm.Policy == nil {
		o.Algorithm = core.MDC()
	}
	if !o.Durability.Valid() {
		return o, fmt.Errorf("vlog: invalid durability level %d", o.Durability)
	}
	if o.SegmentBytes < 64 {
		return o, fmt.Errorf("vlog: invalid geometry %+v", o)
	}
	// Watermark, batch and routed-geometry checks are segspace's; the
	// background watermarks and Pacer default in internal/cleaner.
	if o.Obs == nil {
		o.Obs = obs.New()
	}
	return o, nil
}

// record layout: keyLen u16 | valLen u32 | key | value
const recHeader = 6

type loc struct {
	seg int32
	off int32
}

// vcand is one live record captured at selection. Its key and offset stay
// valid while the victim is in core.SegCleaning, which freezes its bytes.
type vcand struct {
	off  int32
	size int32
	key  string
}

// relocChunk is how many records background relocation installs per lock
// hold: the store is in-memory, so the cost is the memcpy and the lock is
// dropped between chunks rather than during I/O.
const relocChunk = 64

// Store is an in-memory log-structured KV store, safe for concurrent use:
// Gets share an RLock, Puts/Deletes and cleaning installs take the write
// lock (segspace's), and the background cleaner works in small chunks so
// user operations interleave with it.
//
// Close contract: after Close, EVERY operation observes the closed state —
// mutators (Put, Delete, Commit) fail with an error, Get reports the key
// as absent, Len reports 0, and Stats returns a zero snapshot. Reads do
// not return stale data from a store whose backing memory is conceptually
// released.
type Store struct {
	sp   *segspace.Space[string, vcand]
	opts Options

	segs  [][]byte
	index map[string]loc

	userWrites, userBytes uint64
	commits               uint64 // successful multi-record Commits

	// obs handles, resolved once at New (see internal/obs).
	hPut    *obs.Histogram // vlog.put.ns: Put, admission through append
	hGet    *obs.Histogram // vlog.get.ns
	hCommit *obs.Histogram // vlog.commit.ns: batch Commits
}

// New creates a store.
func New(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Store{
		opts:  opts,
		segs:  make([][]byte, opts.MaxSegments),
		index: make(map[string]loc),
	}
	s.sp, err = segspace.New[string](segspace.Config{
		Name:         "vlog",
		ErrFull:      ErrFull,
		ErrClosed:    errClosed,
		Segments:     opts.MaxSegments,
		SegmentBytes: int64(opts.SegmentBytes),
		LowWater:     opts.FreeLowWater,
		Batch:        opts.CleanBatch,
		HighWater:    opts.FreeHighWater,
		Emergency:    opts.FreeEmergency,
		Algorithm:    opts.Algorithm,
		Background:   opts.BackgroundClean,
		Pacer:        opts.Pacer,
		Obs:          opts.Obs,
		Chunk:        relocChunk,
	}, segspace.Hooks[vcand]{Live: s.live, Relocate: s.relocate, Opened: s.opened})
	if err != nil {
		return nil, err
	}
	for seg := opts.MaxSegments - 1; seg >= 0; seg-- {
		s.sp.Free(int32(seg)) // segment 0 is used first
	}
	s.hPut = opts.Obs.Histogram("vlog.put.ns")
	s.hGet = opts.Obs.Histogram("vlog.get.ns")
	s.hCommit = opts.Obs.Histogram("vlog.commit.ns")
	if err := s.sp.Start(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close stops the background cleaner (if any). The store itself is
// volatile, so there is nothing to persist; further operations observe the
// closed state (see the Store close contract). Close is idempotent and
// always returns nil — the error return exists so callers can treat every
// engine mutator uniformly.
func (s *Store) Close() error {
	s.sp.StopCleaner()
	s.sp.Lock()
	s.sp.MarkClosed()
	s.sp.Unlock()
	return nil
}

func recSize(key string, valLen int) int { return recHeader + len(key) + valLen }

// Get returns a copy of the value stored under key. On a closed store every
// key reads as absent (see the Store close contract).
func (s *Store) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	defer func() { s.hGet.Record(uint64(time.Since(t0))) }()
	s.sp.RLock()
	defer s.sp.RUnlock()
	if s.sp.Closed() {
		return nil, false
	}
	l, ok := s.index[key]
	if !ok {
		return nil, false
	}
	_, val := s.decode(l)
	out := make([]byte, len(val))
	copy(out, val)
	return out, true
}

// decode parses the record at l.
func (s *Store) decode(l loc) (key string, val []byte) {
	b := s.segs[l.seg][l.off:]
	kl := int(binary.LittleEndian.Uint16(b[0:2]))
	vl := int(binary.LittleEndian.Uint32(b[2:6]))
	return string(b[recHeader : recHeader+kl]), b[recHeader+kl : recHeader+kl+vl]
}

// Put stores value under key, replacing any existing value. Space is
// secured before the old version is invalidated, so a failed Put (ErrFull)
// never loses the key's current value. The put histogram covers the whole
// user-observed latency: admission, the append, and retries.
func (s *Store) Put(key string, value []byte) error {
	size := recSize(key, len(value))
	if size > s.opts.SegmentBytes {
		return fmt.Errorf("%w: %d > %d", ErrTooLarge, size, s.opts.SegmentBytes)
	}
	t0 := time.Now()
	err := s.sp.Admit(1, nil, func() error {
		if s.sp.Closed() {
			return errClosed
		}
		stream, err := s.sp.UserAppend(key, nil, int64(size), false)
		if err == nil {
			s.appendUserLocked(stream, key, value)
		}
		return err
	})
	s.hPut.Record(uint64(time.Since(t0)))
	return err
}

// appendUserLocked supersedes key's current value with a record on stream,
// whose room UserAppend secured.
func (s *Store) appendUserLocked(stream int32, key string, value []byte) {
	size := uint64(recSize(key, len(value)))
	s.writeRecord(stream, key, value, s.invalidate(key))
	s.userWrites++
	s.userBytes += size
}

// Delete removes key. Deleting an absent key is a no-op: the store is
// volatile, so no tombstone is needed. Deleting on a closed store returns
// an error, so misuse after Close is observable instead of silently doing
// nothing.
func (s *Store) Delete(key string) error {
	s.sp.Lock()
	defer s.sp.Unlock()
	if s.sp.Closed() {
		return errClosed
	}
	s.sp.Forget(key)
	s.invalidate(key)
	return nil
}

// invalidate drops key's current record from the index and returns the
// carried up2.
func (s *Store) invalidate(key string) float64 {
	l, ok := s.index[key]
	if !ok {
		return 0
	}
	k, v := s.decode(l)
	delete(s.index, key)
	return s.sp.Invalidate(l.seg, int64(recSize(k, len(v))))
}

// opened backs a segment with memory the first time it is used.
func (s *Store) opened(seg, _ int32) error {
	if s.segs[seg] == nil {
		s.segs[seg] = make([]byte, s.opts.SegmentBytes)
	}
	return nil
}

// writeRecord appends a record at the tail of stream's open segment, which
// must have room.
func (s *Store) writeRecord(stream int32, key string, value []byte, carried float64) {
	seg, off := s.sp.Tail(stream)
	b := s.segs[seg][off:]
	binary.LittleEndian.PutUint16(b[0:2], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[2:6], uint32(len(value)))
	copy(b[recHeader:], key)
	copy(b[recHeader+len(key):], value)
	s.index[key] = loc{seg: seg, off: int32(off)}
	// Appended fails only through a seal hook; the value log has none.
	_ = s.sp.Appended(stream, int64(recSize(key, len(value))), carried)
}

// live reports victim seg's records that are still current.
func (s *Store) live(seg int32, yield func(vcand)) {
	for off := int64(0); off < s.sp.Used(seg); {
		l := loc{seg: seg, off: int32(off)}
		key, val := s.decode(l)
		size := recSize(key, len(val))
		if cur, ok := s.index[key]; ok && cur == l {
			yield(vcand{off: l.off, size: int32(size), key: key})
		}
		off += int64(size)
	}
}

// relocate copies a candidate that is still current into a GC stream. The
// source bytes stay put while the victim is in SegCleaning, so the record
// is copied straight from the victim.
func (s *Store) relocate(c *segspace.Cand[vcand]) (freed int64, moved bool, err error) {
	l := loc{seg: c.Seg, off: c.Rec.off}
	if cur, ok := s.index[c.Rec.key]; !ok || cur != l {
		return 0, false, nil // overwritten or deleted since selection
	}
	size := int64(c.Rec.size)
	stream, err := s.sp.ReserveGC(c.Up2, size)
	if err != nil {
		return 0, false, err
	}
	_, val := s.decode(l)
	s.writeRecord(stream, c.Rec.key, val, c.Up2)
	return size, true, nil
}

// Len returns the number of live keys, 0 on a closed store.
func (s *Store) Len() int {
	s.sp.RLock()
	defer s.sp.RUnlock()
	if s.sp.Closed() {
		return 0
	}
	return len(s.index)
}

// Stats describes occupancy and cleaning efficiency.
type Stats struct {
	Keys            int
	LiveBytes       uint64
	CapacityBytes   uint64
	UserWrites      uint64
	GCWrites        uint64
	UserBytes       uint64
	GCBytes         uint64
	SegmentsCleaned uint64
	WriteAmp        float64 // GC bytes per user byte
	MeanEAtClean    float64
	FreeSegments    int
	// Streams is the per-stream occupancy of routed placement: one entry
	// per configured append stream (2 for the classic user+GC layout) with
	// its live records/bytes, segment counts, and open-segment fill. Use
	// core.WrittenStreams for the historical "streams ever written" count.
	Streams []core.StreamStats
	// Durability echoes the configured policy (always honored trivially:
	// the store is volatile).
	Durability string
	// Commits counts successful multi-record batch Commits.
	Commits uint64
	// Background reports whether cleaning runs in a background goroutine;
	// Cleaner is its lifecycle snapshot (zero-valued in foreground mode).
	Background bool
	Cleaner    cleaner.Stats
}

// Obs returns the store's metrics registry (always non-nil): the vlog.*
// and cleaner.* series plus the trace events, snapshottable at any time
// with Registry.Snapshot.
func (s *Store) Obs() *obs.Registry { return s.opts.Obs }

// Stats returns a snapshot of the store counters, zero on a closed store.
func (s *Store) Stats() Stats {
	s.sp.RLock()
	if s.sp.Closed() {
		s.sp.RUnlock()
		return Stats{}
	}
	u := s.sp.Usage()
	st := Stats{
		Keys:            len(s.index),
		CapacityBytes:   uint64(s.opts.MaxSegments) * uint64(s.opts.SegmentBytes),
		UserWrites:      s.userWrites,
		GCWrites:        u.GCRecords,
		UserBytes:       s.userBytes,
		GCBytes:         u.GCBytes,
		SegmentsCleaned: u.SegmentsCleaned,
		MeanEAtClean:    u.MeanEAtClean,
		FreeSegments:    u.FreeSegments,
		Streams:         u.Streams,
		Durability:      s.opts.Durability.String(),
		Commits:         s.commits,
	}
	s.sp.RUnlock()
	for _, ss := range st.Streams {
		st.LiveBytes += uint64(ss.LiveBytes)
	}
	if st.UserBytes > 0 {
		st.WriteAmp = float64(st.GCBytes) / float64(st.UserBytes)
	}
	st.Background, st.Cleaner = s.sp.Cleaner()
	return st
}

// CheckInvariants validates internal consistency (tests):
// every indexed record decodes to its key; per-segment live counts and free
// bytes match the index.
func (s *Store) CheckInvariants() error {
	s.sp.RLock()
	defer s.sp.RUnlock()
	meta := s.sp.Meta
	liveCount := make([]int32, len(meta))
	liveSize := make([]int64, len(meta))
	for key, l := range s.index {
		k, v := s.decode(l)
		if k != key {
			return fmt.Errorf("vlog: index key %q decodes to %q", key, k)
		}
		liveCount[l.seg]++
		liveSize[l.seg] += int64(recSize(k, len(v)))
	}
	for i := range meta {
		m := &meta[i]
		if m.State == core.SegFree {
			if liveCount[i] != 0 {
				return fmt.Errorf("vlog: free segment %d has %d live records", i, liveCount[i])
			}
			continue
		}
		if m.Live != liveCount[i] {
			return fmt.Errorf("vlog: segment %d live %d, index says %d", i, m.Live, liveCount[i])
		}
		if m.Capacity-m.Free != liveSize[i] {
			return fmt.Errorf("vlog: segment %d holds %d bytes, index says %d live", i, m.Capacity-m.Free, liveSize[i])
		}
	}
	return nil
}
