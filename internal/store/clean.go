package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/cleaner"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/segspace"
)

// Cleaning is internal/segspace's; the store supplies the hooks below.
// Relocated copies reach storage before their victims are reused, so every
// live page always has an intact on-disk copy; recovery picks the highest
// sequence number.

// cand is one victim slot captured at selection time.
type cand struct {
	slot    int32
	si      slotInfo
	payload []byte // loaded by load; nil for tombstones
}

// CleanOnce runs a single cleaning cycle regardless of the low-water mark
// and returns the number of segments reclaimed.
func (s *Store) CleanOnce() (int, error) { return s.sp.CleanOnce() }

// live reports victim seg's slots that still hold the current version of a
// page or deletion.
func (s *Store) live(seg int32, yield func(cand)) {
	for slot, si := range s.slots[seg] {
		locs := s.table
		if si.tombstone {
			locs = s.tombstones
		}
		if loc, ok := locs[si.page]; ok && loc.seg == seg && loc.slot == int32(slot) {
			yield(cand{slot: int32(slot), si: si})
		}
	}
}

// load reads the candidates' payloads and verifies record identity. It
// runs with no lock held: victims are immutable while SegCleaning.
func (s *Store) load(cands []segspace.Cand[cand]) error {
	buf := make([]byte, s.recordSize())
	for i := range cands {
		c := &cands[i]
		if c.Rec.si.tombstone {
			continue
		}
		if err := s.be.read(int(c.Seg), s.slotOffset(int(c.Rec.slot)), buf); err != nil {
			return err
		}
		h, data, err := decodeRecord(buf)
		if err != nil {
			return fmt.Errorf("store: cleaning segment %d slot %d: %w", c.Seg, c.Rec.slot, err)
		}
		if h.page != c.Rec.si.page || h.seq != c.Rec.si.seq {
			return fmt.Errorf("store: cleaning segment %d slot %d: record identity mismatch", c.Seg, c.Rec.slot)
		}
		c.Rec.payload = append([]byte(nil), data[:s.opts.PageSize]...)
	}
	return nil
}

// relocate appends a relocated copy of a candidate that is still current.
// A checkpoint-covered tombstone is dropped instead of relocated.
func (s *Store) relocate(c *segspace.Cand[cand]) (freed int64, moved bool, err error) {
	r := &c.Rec
	flags := uint32(0)
	if r.si.tombstone {
		loc, ok := s.tombstones[r.si.page]
		if !ok || loc.seg != c.Seg || loc.slot != r.slot {
			return 0, false, nil // superseded since selection
		}
		if r.si.seq <= s.prunedSeq {
			// The deletion is checkpoint-covered: drop the tombstone RECORD
			// instead of relocating it — but the deletion itself must stay
			// in the tombstone map (with no record location) so every
			// future checkpoint keeps carrying it: stale data records of
			// the page can survive in not-yet-reused segments, and
			// forgetting the deletion would let recovery resurrect them.
			s.tombstones[r.si.page] = pageLoc{seg: -1, slot: -1, seq: r.si.seq}
			return s.recordSize(), false, nil
		}
		flags = flagTombstone
	} else if loc, ok := s.table[r.si.page]; !ok || loc.seg != c.Seg || loc.slot != r.slot {
		return 0, false, nil // overwritten or deleted since selection
	}
	stream, err := s.sp.ReserveGC(c.Up2, s.recordSize())
	if err != nil {
		return 0, false, err
	}
	seg, err := s.appendRecord(stream, r.si.page, flags, 0, r.payload, c.Up2)
	if err != nil {
		return 0, false, err
	}
	if s.gcDirtySegs != nil {
		s.gcDirtySegs[seg] = struct{}{}
	}
	return s.recordSize(), true, nil
}

// gcDurable is the durability point before victims are reused. DurCommit
// flushes the whole dirty set (shared with committers), so a relocated
// batch record, which loses its batch markers, never becomes durable ahead
// of its batch. DurSeal syncs the segments holding GC output by id, open or
// sealed mid-cycle by a user write (whose seal-fsync error went to that
// writer), forgetting ids only once synced. Off the lock (locked false) the
// fsyncs stall no reader or writer.
func (s *Store) gcDurable(locked bool) error {
	if s.opts.Durability == core.DurCommit {
		if locked {
			return s.syncAllDirtyLocked()
		}
		s.sp.Lock()
		target := s.seq
		s.sp.Unlock()
		return s.waitDurable(target)
	}
	if !locked {
		s.sp.Lock()
	}
	segs := make([]int32, 0, len(s.gcDirtySegs))
	for g := range s.gcDirtySegs {
		segs = append(segs, g)
	}
	if !locked {
		s.sp.Unlock()
	}
	for _, g := range segs {
		if err := s.syncSeg(g); err != nil {
			return err
		}
	}
	if !locked {
		s.sp.Lock()
		defer s.sp.Unlock()
	}
	for _, g := range segs {
		delete(s.gcDirtySegs, g)
	}
	return nil
}

// checkpoint file layout: magic (8) | unow (8) | prunedSeq (8) |
// nDeleted (4) | deleted page ids | nSegs (4) | per-segment up2 | crc (4).
const checkpointMagic = "LSCKPT01"

type checkpoint struct {
	unow      uint64
	prunedSeq uint64
	deleted   []uint32
	up2       []float64
}

func (s *Store) checkpointPath() string { return filepath.Join(s.opts.Dir, "CHECKPOINT") }

// Checkpoint persists the cleaning estimates and the deletion set. After a
// checkpoint, tombstones covered by it may be pruned during cleaning.
func (s *Store) Checkpoint() error {
	s.sp.Lock()
	defer s.sp.Unlock()
	return s.checkpointLocked()
}

func (s *Store) checkpointLocked() error {
	if s.opts.Dir == "" {
		// In-memory stores have nothing to persist; pruning is immediate.
		s.prunedSeq = s.seq
		return nil
	}
	meta := s.sp.Meta
	buf := make([]byte, 0, 64+len(s.tombstones)*4+len(meta)*8)
	buf = append(buf, checkpointMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, s.sp.Now)
	buf = binary.LittleEndian.AppendUint64(buf, s.seq)
	deleted := make([]uint32, 0, len(s.tombstones))
	for page := range s.tombstones {
		deleted = append(deleted, page)
	}
	sort.Slice(deleted, func(i, j int) bool { return deleted[i] < deleted[j] })
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(deleted)))
	for _, page := range deleted {
		buf = binary.LittleEndian.AppendUint32(buf, page)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(meta)))
	for i := range meta {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(meta[i].Up2))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	// Atomic install: write the temporary file (fsynced unless DurNone,
	// with the error propagated — a silently failed sync would let a crash
	// lose the checkpoint the caller was just promised), rename it over the
	// old checkpoint, then fsync the directory so the rename itself is
	// durable.
	tmp := s.checkpointPath() + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating checkpoint: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	if s.opts.Durability != core.DurNone {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: syncing checkpoint: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.checkpointPath()); err != nil {
		return fmt.Errorf("store: installing checkpoint: %w", err)
	}
	if s.opts.Durability != core.DurNone {
		if err := syncDir(s.opts.Dir); err != nil {
			return fmt.Errorf("store: syncing checkpoint directory: %w", err)
		}
	}
	s.prunedSeq = s.seq
	return nil
}

// syncDir fsyncs a directory so a just-installed rename survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// readCheckpoint loads and verifies the checkpoint, returning nil when none
// exists.
func (s *Store) readCheckpoint() (*checkpoint, error) {
	if s.opts.Dir == "" {
		return nil, nil
	}
	buf, err := os.ReadFile(s.checkpointPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: reading checkpoint: %w", err)
	}
	if len(buf) < len(checkpointMagic)+8+8+4+4+4 || string(buf[:8]) != checkpointMagic {
		return nil, fmt.Errorf("store: malformed checkpoint")
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("store: checkpoint checksum mismatch")
	}
	ck := &checkpoint{}
	off := 8
	ck.unow = binary.LittleEndian.Uint64(body[off:])
	off += 8
	ck.prunedSeq = binary.LittleEndian.Uint64(body[off:])
	off += 8
	nDel := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+nDel*4+4 > len(body) {
		return nil, fmt.Errorf("store: truncated checkpoint deletion set")
	}
	for i := 0; i < nDel; i++ {
		ck.deleted = append(ck.deleted, binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	nSegs := int(binary.LittleEndian.Uint32(body[off:]))
	off += 4
	if off+nSegs*8 > len(body) {
		return nil, fmt.Errorf("store: truncated checkpoint segment estimates")
	}
	for i := 0; i < nSegs; i++ {
		ck.up2 = append(ck.up2, math.Float64frombits(binary.LittleEndian.Uint64(body[off:])))
		off += 8
	}
	return ck, nil
}

// Close stops the background cleaner (if any), seals open segments,
// checkpoints, and releases resources.
func (s *Store) Close() error {
	s.sp.StopCleaner()
	s.sp.Lock()
	defer s.sp.Unlock()
	if s.sp.Closed() {
		return nil
	}
	if err := s.sp.SealAll(); err != nil {
		return err
	}
	if s.opts.Durability == core.DurCommit {
		// Seals skip their per-segment fsync under DurCommit; flush the
		// dirty set so a clean shutdown leaves everything durable.
		if err := s.syncAllDirtyLocked(); err != nil {
			return err
		}
	}
	if err := s.checkpointLocked(); err != nil {
		return err
	}
	s.sp.MarkClosed()
	return s.be.close()
}

// Stats describes store occupancy and cleaning efficiency.
type Stats struct {
	LivePages       int
	Tombstones      int
	FreeSegments    int
	SealedSegments  int
	UserWrites      uint64
	GCWrites        uint64
	SegmentsCleaned uint64
	WriteAmp        float64
	MeanEAtClean    float64
	CapacityPages   int
	FillFactor      float64
	UpdateClock     uint64
	// Streams is the per-stream occupancy of routed placement: one entry
	// per configured append stream (2 for the classic user+GC layout) with
	// its live records/bytes, segment counts, and open-segment fill. Use
	// core.WrittenStreams for the historical "streams ever written" count.
	Streams []core.StreamStats
	// Durability is the store's write-durability policy ("none", "seal",
	// "commit").
	Durability string
	// Commits counts DurCommit waits (writes and batch Applies that waited
	// for group durability); FsyncRounds counts the group flushes that
	// served them and Fsyncs the per-segment fsync calls those rounds
	// issued. FsyncRounds/Commits < 1 means committers coalesced.
	Commits     uint64
	FsyncRounds uint64
	Fsyncs      uint64
	// BatchesApplied counts successful multi-record Apply calls.
	BatchesApplied uint64
	// Background reports whether cleaning runs in a background goroutine;
	// Cleaner is its lifecycle snapshot (zero-valued in foreground mode).
	Background bool
	Cleaner    cleaner.Stats
}

// Obs returns the store's metrics registry (always non-nil): the store.*
// and cleaner.* series plus the trace events, snapshottable at any time
// with Registry.Snapshot.
func (s *Store) Obs() *obs.Registry { return s.opts.Obs }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.sp.RLock()
	u := s.sp.Usage()
	st := Stats{
		LivePages:       len(s.table),
		Tombstones:      len(s.tombstones),
		FreeSegments:    u.FreeSegments,
		SealedSegments:  u.SealedSegments,
		UserWrites:      s.userWrites,
		GCWrites:        u.GCRecords,
		SegmentsCleaned: u.SegmentsCleaned,
		MeanEAtClean:    u.MeanEAtClean,
		CapacityPages:   s.opts.MaxSegments * s.opts.SegmentPages,
		UpdateClock:     s.sp.Now,
		Streams:         u.Streams,
		Durability:      s.opts.Durability.String(),
		BatchesApplied:  s.batches,
	}
	s.sp.RUnlock()
	if st.UserWrites > 0 {
		st.WriteAmp = float64(st.GCWrites) / float64(st.UserWrites)
	}
	if st.CapacityPages > 0 {
		st.FillFactor = float64(st.LivePages) / float64(st.CapacityPages)
	}
	s.gcm.mu.Lock()
	st.Commits = s.gcm.commits
	st.FsyncRounds = s.gcm.rounds
	st.Fsyncs = s.gcm.syncs
	s.gcm.mu.Unlock()
	st.Background, st.Cleaner = s.sp.Cleaner()
	return st
}
