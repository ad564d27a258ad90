package vlog

import (
	"fmt"
	"time"

	"repro/internal/segspace"
)

// Batch collects Puts and Deletes for one atomic Commit. Build it with
// NewBatch and the chainable Put/Delete, then hand it to Store.Commit. A
// Batch is not safe for concurrent use, but may be reused (Reset) once
// Commit returns; keys and values are copied into the batch at Put time,
// so callers may reuse their buffers immediately.
type Batch struct{ ops segspace.Ops[string] }

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Put adds a key/value write. The value is copied.
func (b *Batch) Put(key string, value []byte) *Batch { b.ops.Put(key, value); return b }

// Delete adds a key deletion. Deleting an absent key stays a no-op, as for
// the single-op Delete.
func (b *Batch) Delete(key string) *Batch { b.ops.Delete(key); return b }

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return b.ops.Len() }

// Reset empties the batch for reuse, keeping its allocations.
func (b *Batch) Reset() { b.ops.Reset() }

// Commit atomically applies a batch: one admission check, one lock hold,
// and all-or-nothing visibility. Space for every record is reserved before
// any current version is invalidated, so a batch that cannot fit fails
// with ErrFull (or ErrTooLarge) leaving the store exactly as it was.
// Entries apply in order, so a later Put/Delete of the same key supersedes
// an earlier one. The store is volatile, so "committed" means visible to
// every later Get until Close, at every Durability level. The commit
// histogram covers admission, planning, the apply, and retries.
func (s *Store) Commit(b *Batch) error {
	if b == nil || b.ops.Len() == 0 {
		return nil
	}
	for i := 0; i < b.ops.Len(); i++ {
		if key, v, del := b.ops.At(i); !del {
			if size := recSize(key, len(v)); size > s.opts.SegmentBytes {
				return fmt.Errorf("%w: batch op %d: %d > %d", ErrTooLarge, i, size, s.opts.SegmentBytes)
			}
		}
	}
	t0 := time.Now()
	err := s.sp.Admit(b.ops.Len(), nil, func() error { return s.commitLocked(b) })
	s.hCommit.Record(uint64(time.Since(t0)))
	return err
}

// commitLocked plans the whole batch, then applies every operation.
// Planning reserves space up front: by the time the first old version is
// invalidated, the apply loop can no longer fail with ErrFull.
func (s *Store) commitLocked(b *Batch) error {
	if s.sp.Closed() {
		return errClosed
	}
	plan, err := s.sp.PrepareBatch(&b.ops, func(key string, v []byte, del bool) int64 {
		if del {
			return 0 // a volatile deletion appends nothing
		}
		return int64(recSize(key, len(v)))
	})
	if err != nil {
		return err
	}
	for i := range plan {
		key, v, del := b.ops.At(i)
		if del {
			s.sp.Forget(key)
			s.invalidate(key)
			continue
		}
		stream, err := s.sp.UserAppend(key, &plan[i], int64(recSize(key, len(v))), false)
		if err != nil {
			return fmt.Errorf("vlog: batch op %d: %w", i, err)
		}
		s.appendUserLocked(stream, key, v)
	}
	if len(plan) > 1 {
		s.commits++
	}
	return nil
}
