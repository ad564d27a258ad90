package store

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/segspace"
)

// Batch collects page writes and deletions for one atomic Apply. Build it
// with NewBatch and the chainable Write/Delete, then hand it to
// Store.Apply. A Batch is not safe for concurrent use, but may be reused
// (Reset) once Apply returns; page data is copied into the batch at Write
// time, so callers may reuse their buffers immediately.
type Batch struct{ ops segspace.Ops[uint32] }

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Write adds a page write. The data is copied; its length is validated
// against the store's page size at Apply time.
func (b *Batch) Write(id uint32, data []byte) *Batch { b.ops.Put(id, data); return b }

// Delete adds a page deletion (a durable tombstone). The page must exist
// when the batch is applied — either in the store or written earlier in
// this batch — or Apply fails with ErrNotFound before changing anything.
func (b *Batch) Delete(id uint32) *Batch { b.ops.Delete(id); return b }

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return b.ops.Len() }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch) Reset() { b.ops.Reset() }

// Apply atomically applies a batch: one admission check, one lock hold,
// and all-or-nothing visibility. Space for every record is reserved before
// any current version is invalidated, so a batch that cannot fit fails
// with ErrFull leaving the store exactly as it was; a Delete of a
// nonexistent page fails the whole batch with ErrNotFound the same way.
// Entries apply in order, so a later Write/Delete of the same page
// supersedes an earlier one.
//
// Under DurCommit, Apply returns only after the batch is durable —
// concurrent committers coalesce onto one group fsync — and recovery
// guarantees a torn batch is never surfaced partially. (Backend I/O
// errors mid-apply are the one non-atomic failure: the store state is
// whatever the error left, exactly as for single writes.)
func (s *Store) Apply(b *Batch) error { return s.ApplySpanned(b, nil) }

// ApplySpanned is Apply with an optional parent span: with a non-nil
// parent the admission check, the locked apply, and the group-fsync wait
// are recorded as child spans ("store.admit", "store.apply",
// "store.commit.wait"), so a slow checkpoint's capture shows where inside
// the store the time went. A nil parent records nothing and costs one
// branch per leg — the path every non-traced caller takes through Apply.
func (s *Store) ApplySpanned(b *Batch, parent *obs.Span) error {
	if b == nil || b.ops.Len() == 0 {
		return nil
	}
	var seq uint64
	err := s.sp.Admit(b.ops.Len(), parent, func() error {
		err := s.applyLocked(b)
		seq = s.seq
		return err
	})
	if err == nil && s.opts.Durability == core.DurCommit {
		leg := parent.Child("store.commit.wait")
		err = s.commitWait(seq)
		leg.End()
	}
	return err
}

// applyLocked validates and plans the whole batch, then appends every
// record. Planning reserves space up front: by the time the first old
// version is invalidated, the apply loop can no longer fail with ErrFull.
func (s *Store) applyLocked(b *Batch) error {
	if s.sp.Closed() {
		return errClosed
	}
	if err := s.validateLocked(b); err != nil {
		return err
	}
	size := s.recordSize()
	plan, err := s.sp.PrepareBatch(&b.ops, func(uint32, []byte, bool) int64 { return size })
	if err != nil {
		return err
	}
	last := len(plan) - 1
	for i := range plan {
		id, data, tomb := b.ops.At(i)
		stream, err := s.sp.UserAppend(id, &plan[i], size, tomb)
		if err != nil {
			return fmt.Errorf("store: batch op %d: %w", i, err)
		}
		flags := uint32(0)
		if tomb {
			flags = flagTombstone
		}
		if last > 0 {
			// Multi-record batches carry commit markers so recovery can
			// discard a torn batch wholesale. Single-record batches are
			// trivially atomic.
			flags |= flagBatch
			if i == last {
				flags |= flagBatchLast
			}
		}
		if err := s.appendUserLocked(stream, id, flags, uint32(i), data); err != nil {
			return err
		}
	}
	if last > 0 {
		s.batches++
	}
	return nil
}

// validateLocked checks the batch against the page table before anything
// is planned: every Delete must hit a page that exists at that point of the
// batch, and every Write must carry exactly one page.
func (s *Store) validateLocked(b *Batch) error {
	exists := make(map[uint32]bool)
	for i := 0; i < b.ops.Len(); i++ {
		id, data, tomb := b.ops.At(i)
		if !tomb {
			if len(data) != s.opts.PageSize {
				return fmt.Errorf("store: batch op %d: page data %d bytes, want %d", i, len(data), s.opts.PageSize)
			}
			exists[id] = true
			continue
		}
		e, known := exists[id]
		if !known {
			_, e = s.table[id]
		}
		if !e {
			return fmt.Errorf("store: batch op %d deletes page %d: %w", i, id, ErrNotFound)
		}
		exists[id] = false
	}
	return nil
}

// groupCommit coalesces concurrent DurCommit committers onto shared fsync
// rounds: the first committer to find no round in flight flushes the dirty
// segment set; everyone else piggybacks on the round's outcome and only
// starts another if their records are still not covered.
type groupCommit struct {
	mu      sync.Mutex
	durable uint64       // highest seq known flushed to storage
	cur     *commitRound // in-flight flush, nil when idle
	commits uint64       // DurCommit waits served
	rounds  uint64       // flush rounds run
	syncs   uint64       // per-segment fsync calls issued
}

type commitRound struct {
	done chan struct{}
	err  error
}

// commitWait blocks until every record up to target is durable,
// contributing to the group-commit statistics. Caller must not hold the
// store lock.
func (s *Store) commitWait(target uint64) error {
	t0 := time.Now()
	s.gcm.mu.Lock()
	s.gcm.commits++
	s.gcm.mu.Unlock()
	s.cCommits.Inc()
	err := s.waitDurable(target)
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// waitDurable is the group fsync: one goroutine runs a flush round over
// the dirty segments, concurrent callers wait on it and re-check. Caller
// must not hold the store lock (the flush snapshots under it).
func (s *Store) waitDurable(target uint64) error {
	g := &s.gcm
	g.mu.Lock()
	for g.durable < target {
		if r := g.cur; r != nil {
			// Piggyback on the in-flight round, then re-check: the round
			// may have started before our records were appended.
			g.mu.Unlock()
			<-r.done
			if r.err != nil {
				return r.err
			}
			g.mu.Lock()
			continue
		}
		r := &commitRound{done: make(chan struct{})}
		g.cur = r
		g.mu.Unlock()
		applied, synced, err := s.flushDirty()
		g.mu.Lock()
		g.rounds++
		g.syncs += uint64(synced)
		s.cRounds.Inc()
		s.cSyncs.Add(uint64(synced))
		s.trace.Emit(obs.EvCommitRound, int64(g.rounds), int64(g.syncs), int64(synced))
		if err == nil && applied > g.durable {
			g.durable = applied
			s.trace.Emit(obs.EvWatermark, int64(applied))
		}
		r.err = err
		g.cur = nil
		close(r.done)
		if err != nil {
			g.mu.Unlock()
			return err
		}
	}
	g.mu.Unlock()
	return nil
}

// flushDirty snapshots the dirty segment set and the applied seq under the
// store lock, fsyncs the segments with no lock held, then retires the
// entries that were not re-dirtied meanwhile. Everything appended before
// the snapshot is durable once it returns nil.
func (s *Store) flushDirty() (applied uint64, synced int, err error) {
	type entry struct {
		seg int32
		seq uint64
	}
	s.sp.Lock()
	if s.sp.Closed() {
		s.sp.Unlock()
		return 0, 0, errClosed
	}
	applied = s.seq
	segs := make([]entry, 0, len(s.dirty))
	for seg, seq := range s.dirty {
		segs = append(segs, entry{seg: seg, seq: seq})
	}
	s.sp.Unlock()
	for _, e := range segs {
		if err := s.syncSeg(e.seg); err != nil {
			return 0, synced, err
		}
		synced++
	}
	s.sp.Lock()
	for _, e := range segs {
		if s.dirty[e.seg] == e.seq {
			delete(s.dirty, e.seg)
		}
	}
	s.sp.Unlock()
	return applied, synced, nil
}

// syncAllDirtyLocked flushes every dirty segment under the write lock and
// publishes the durability point — the foreground-cleaning and Close
// variant of a group flush, where the caller already owns the lock.
func (s *Store) syncAllDirtyLocked() error {
	for seg := range s.dirty {
		if err := s.syncSeg(seg); err != nil {
			return err
		}
		delete(s.dirty, seg)
	}
	s.gcm.mu.Lock()
	if s.seq > s.gcm.durable {
		s.gcm.durable = s.seq
		s.trace.Emit(obs.EvWatermark, int64(s.seq))
	}
	s.gcm.mu.Unlock()
	return nil
}

// syncSeg fsyncs one segment through the backend, feeding the fsync
// latency histogram.
func (s *Store) syncSeg(seg int32) error {
	t0 := time.Now()
	err := s.be.sync(int(seg))
	s.hFsync.Record(uint64(time.Since(t0)))
	return err
}

// commitWatermarkLocked is the highest seq currently known fully durable:
// the group-commit durable point, or the last checkpoint's coverage.
// Caller holds the store lock (read or write); gcm.mu nests inside it.
func (s *Store) commitWatermarkLocked() uint64 {
	s.gcm.mu.Lock()
	d := s.gcm.durable
	s.gcm.mu.Unlock()
	return max(d, s.prunedSeq)
}

// Sync makes every write applied so far durable, regardless of the
// durability policy: the explicit flush for callers running DurNone or
// DurSeal who occasionally need a hard durability point. Concurrent Syncs
// and DurCommit committers share flush rounds.
func (s *Store) Sync() error {
	s.sp.RLock()
	if s.sp.Closed() {
		s.sp.RUnlock()
		return errClosed
	}
	target := s.seq
	s.sp.RUnlock()
	return s.waitDurable(target)
}
