package segspace

import (
	"fmt"
	"sort"

	"repro/internal/cleaner"
	"repro/internal/core"
)

// Cleaning runs the cleaner state machine's phases (select → relocate →
// release) back to back under the write lock in foreground mode, and
// interleaved with user operations when internal/cleaner drives the Target
// methods below: victims are marked core.SegCleaning under the lock, their
// records — then immutable — are loaded with no lock held, and copies are
// installed one chunk per lock hold, each re-checking that its record is
// still current. Every live record of a victim batch is relocated, and made
// durable by Hooks.Durable, before any victim is released for reuse, so at
// any instant every live record has at least one intact copy.

// cleanUntil runs foreground cycles until the free pool reaches target(),
// re-evaluated per cycle since the routed reserve grows as GC output
// touches new streams.
func (sp *Space[K, R]) cleanUntil(target func() int) error {
	guard := 0
	dry := 0
	for len(sp.free) < target() {
		n, net, err := sp.cycleLocked()
		if err != nil {
			return err
		}
		if n == 0 {
			return sp.cfg.ErrFull
		}
		// Cycles that only shuffle full segments reclaim nothing: live data
		// has (nearly) reached physical capacity.
		if net <= 0 {
			if dry++; dry >= 2 {
				return fmt.Errorf("%s: live data at physical capacity: %w", sp.cfg.Name, sp.cfg.ErrFull)
			}
		} else {
			dry = 0
		}
		if guard++; guard > 4*sp.cfg.Segments {
			return fmt.Errorf("%s: cleaning cannot reach %d free segments: %w", sp.cfg.Name, target(), sp.cfg.ErrFull)
		}
	}
	return nil
}

// CleanOnce runs a single cleaning cycle regardless of the low-water mark
// and returns the number of segments reclaimed. It takes the write lock.
func (sp *Space[K, R]) CleanOnce() (int, error) {
	sp.Lock()
	defer sp.Unlock()
	if sp.closed {
		return 0, sp.cfg.ErrClosed
	}
	n, _, err := sp.cycleLocked()
	return n, err
}

// cycleLocked runs one full cycle under the write lock and reports the
// victim count and the net bytes reclaimed (released minus relocated).
func (sp *Space[K, R]) cycleLocked() (victimCount int, netBytes int64, err error) {
	victims, cands, err := sp.selectLocked(sp.cfg.Batch)
	if err != nil || len(victims) == 0 {
		return 0, 0, err
	}
	_, moved, err := sp.relocate(cands, true)
	if err != nil {
		sp.abortLocked(victims)
		return 0, 0, err
	}
	released := sp.releaseLocked(victims)
	return len(victims), released - moved, nil
}

// relocate loads, sorts and installs the candidates, then runs the
// durability point. Unlocked, the load takes no lock and installs take it
// one Config.Chunk at a time, so user operations interleave.
func (sp *Space[K, R]) relocate(cands []Cand[R], locked bool) (int, int64, error) {
	if sp.hooks.Load != nil {
		if err := sp.hooks.Load(cands); err != nil {
			return 0, 0, err
		}
	}
	sp.sortForGC(cands)
	chunk := sp.cfg.Chunk
	if locked {
		chunk = len(cands)
	}
	installed, moved, err := cleaner.RelocateChunks(len(cands), chunk, func(lo, hi int) (int, int64, error) {
		if !locked {
			sp.Lock()
			defer sp.Unlock()
			if sp.closed {
				return 0, 0, sp.cfg.ErrClosed
			}
		}
		return sp.installLocked(cands[lo:hi])
	})
	if err == nil && sp.hooks.Durable != nil {
		err = sp.hooks.Durable(locked)
	}
	return installed, moved, err
}

// selectLocked asks the policy for up to max victims, marks them
// SegCleaning (freezing their records), and snapshots their live records.
func (sp *Space[K, R]) selectLocked(max int) ([]int32, []Cand[R], error) {
	view := core.View{Now: sp.Now, Segs: sp.Meta, TriggerStream: sp.trigger}
	victims := sp.cfg.Algorithm.Policy.Victims(view, max, nil)
	for _, v := range victims {
		if sp.Meta[v].State != core.SegSealed {
			return nil, nil, fmt.Errorf("%s: policy %s selected non-sealed segment %d", sp.cfg.Name, sp.cfg.Algorithm.Name, v)
		}
	}
	var cands []Cand[R]
	for _, v := range victims {
		m := &sp.Meta[v]
		m.State = core.SegCleaning
		// Emptiness-at-clean is measured now but credited (to the stats and
		// the victim-E histogram) only on release: an aborted victim was not
		// cleaned and will be re-selected.
		sp.pendingE[v] = m.Emptiness()
		sp.hooks.Live(v, func(r R) {
			cands = append(cands, Cand[R]{Seg: v, Up2: m.Up2, Rec: r})
		})
	}
	return victims, cands, nil
}

// sortForGC separates relocations by update frequency (§5.3) when the
// algorithm asks for it: coldest first by carried up2.
func (sp *Space[K, R]) sortForGC(cands []Cand[R]) {
	if sp.cfg.Algorithm.SortGC {
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].Up2 < cands[j].Up2 })
	}
}

// installLocked relocates the candidates still current; a relocated or
// dropped record no longer counts against its victim.
func (sp *Space[K, R]) installLocked(cands []Cand[R]) (installed int, bytes int64, err error) {
	for i := range cands {
		c := &cands[i]
		freed, moved, err := sp.hooks.Relocate(c)
		if err != nil {
			return installed, bytes, err
		}
		m := &sp.Meta[c.Seg]
		if freed > 0 {
			m.Live--
			m.Free += freed
		}
		if moved {
			installed++
			bytes += freed
			sp.gcRecords++
			sp.gcBytes += uint64(freed)
		}
	}
	return installed, bytes, nil
}

// releaseLocked returns victims to the free pool, credits their
// emptiness-at-clean, and reports the gross capacity bytes released.
func (sp *Space[K, R]) releaseLocked(victims []int32) (releasedBytes int64) {
	for _, v := range victims {
		if e, ok := sp.pendingE[v]; ok {
			sp.cleaned++
			sp.sumE += e
			sp.hVictimE.Record(uint64(e * 1000))
			delete(sp.pendingE, v)
		}
		m := &sp.Meta[v]
		releasedBytes += m.Capacity
		m.State = core.SegFree
		m.Live = 0
		m.Free = m.Capacity
		m.Up2 = 0
		sp.used[v] = 0
		if sp.hooks.Released != nil {
			sp.hooks.Released(v)
		}
		sp.free = append(sp.free, v)
	}
	sp.freeCount.Store(int64(len(sp.free)))
	return releasedBytes
}

// abortLocked reverts victims to sealed after a failed cycle so a later
// cycle can retry them.
func (sp *Space[K, R]) abortLocked(victims []int32) {
	for _, v := range victims {
		if sp.Meta[v].State == core.SegCleaning {
			sp.Meta[v].State = core.SegSealed
			delete(sp.pendingE, v)
			sp.cAborts.Inc()
		}
	}
}

// SelectVictims implements cleaner.Target. The cleaner runs one cycle at a
// time, so the candidates wait in sp.cands for Relocate.
func (sp *Space[K, R]) SelectVictims(max int) []int32 {
	sp.Lock()
	defer sp.Unlock()
	if sp.closed {
		return nil
	}
	victims, cands, err := sp.selectLocked(max)
	if err != nil {
		// A policy violating the sealed-victims contract is a bug; skip the
		// cycle rather than corrupt state.
		return nil
	}
	sp.cands = cands
	return victims
}

// Relocate implements cleaner.Target.
func (sp *Space[K, R]) Relocate(victims []int32) (int, int64, error) {
	cands := sp.cands
	sp.cands = nil
	return sp.relocate(cands, false)
}

// Release implements cleaner.Target.
func (sp *Space[K, R]) Release(victims []int32) int64 {
	sp.Lock()
	defer sp.Unlock()
	return sp.releaseLocked(victims)
}

// Abort implements cleaner.Target: it reverts victims after a failed
// relocation — but a victim whose every record was already relocated or
// dead holds nothing, and releasing it guarantees the cleaner makes
// progress even when the failure was the GC stream running out of space
// mid-batch (re-sealing everything would wedge: no free segments, no new
// garbage from blocked writers, every retry failing the same way). The
// durability point still runs before any drained victim can be reused.
func (sp *Space[K, R]) Abort(victims []int32) {
	sp.cands = nil
	sp.Lock()
	defer sp.Unlock()
	var drained []int32
	for _, v := range victims {
		if sp.Meta[v].State != core.SegCleaning {
			continue
		}
		if sp.Meta[v].Live == 0 {
			drained = append(drained, v)
		} else {
			sp.abortLocked([]int32{v})
		}
	}
	if len(drained) == 0 {
		return
	}
	if sp.hooks.Durable != nil {
		if err := sp.hooks.Durable(true); err != nil {
			// Without the durability point the drained victims must stay
			// frozen; re-seal them for a later cycle.
			sp.abortLocked(drained)
			return
		}
	}
	sp.releaseLocked(drained)
}
