package segspace

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// fakeEngine is a minimal engine over a Space: fixed 10-byte records keyed
// by int, four to a segment, with the record keys kept in memory.
type fakeEngine struct {
	sp       *Space[int, int]
	index    map[int][2]int32 // key → (segment, slot)
	slots    [][]int          // per segment: key of each appended record
	failNext bool             // make the next relocation fail
}

const recBytes = 10

var errFull = errors.New("fake: full")

func newFake(t *testing.T, alg core.Algorithm, background bool) (*fakeEngine, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	e := &fakeEngine{index: make(map[int][2]int32), slots: make([][]int, 24)}
	sp, err := New[int](Config{
		Name: "fake", ErrFull: errFull, ErrClosed: errors.New("fake: closed"),
		Segments: 24, SegmentBytes: 4 * recBytes,
		LowWater: 6, Batch: 2, Algorithm: alg,
		Background: background, Obs: reg, Chunk: 3,
	}, Hooks[int]{
		Live: func(seg int32, yield func(int)) {
			for slot, k := range e.slots[seg] {
				if e.index[k] == [2]int32{seg, int32(slot)} {
					yield(k)
				}
			}
		},
		Relocate: func(c *Cand[int]) (int64, bool, error) {
			if loc, ok := e.index[c.Rec]; !ok || loc[0] != c.Seg {
				return 0, false, nil
			}
			if e.failNext {
				e.failNext = false
				return 0, false, errors.New("fake: injected relocation failure")
			}
			stream, err := e.sp.ReserveGC(c.Up2, recBytes)
			if err != nil {
				return 0, false, err
			}
			return recBytes, true, e.append(stream, c.Rec, c.Up2)
		},
		Opened:   func(seg, _ int32) error { e.slots[seg] = e.slots[seg][:0]; return nil },
		Released: func(seg int32) { e.slots[seg] = nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	for seg := int32(23); seg >= 0; seg-- {
		sp.Free(seg)
	}
	e.sp = sp
	return e, reg
}

func (e *fakeEngine) append(stream int32, k int, carried float64) error {
	seg, off := e.sp.Tail(stream)
	if int(off) != len(e.slots[seg])*recBytes {
		return fmt.Errorf("tail offset %d, engine holds %d records", off, len(e.slots[seg]))
	}
	e.index[k] = [2]int32{seg, int32(len(e.slots[seg]))}
	e.slots[seg] = append(e.slots[seg], k)
	return e.sp.Appended(stream, recBytes, carried)
}

func (e *fakeEngine) put(k int) error {
	return e.sp.Admit(1, nil, func() error {
		stream, err := e.sp.UserAppend(k, nil, recBytes, false)
		if err != nil {
			return err
		}
		var carried float64
		if loc, ok := e.index[k]; ok {
			carried = e.sp.Invalidate(loc[0], recBytes)
		}
		return e.append(stream, k, carried)
	})
}

// check verifies the space's per-segment accounting against the index.
func (e *fakeEngine) check(t *testing.T) {
	t.Helper()
	e.sp.RLock()
	defer e.sp.RUnlock()
	live := make([]int32, len(e.sp.Meta))
	for _, loc := range e.index {
		live[loc[0]]++
	}
	for seg := range e.sp.Meta {
		m := &e.sp.Meta[seg]
		if m.State == core.SegFree {
			if live[seg] != 0 {
				t.Fatalf("free segment %d holds %d live records", seg, live[seg])
			}
			continue
		}
		if m.Live != live[seg] {
			t.Fatalf("segment %d: Meta.Live %d, index says %d", seg, m.Live, live[seg])
		}
		if used := m.Capacity - m.Free; used != int64(live[seg])*recBytes {
			t.Fatalf("segment %d: %d bytes in use, want %d", seg, used, live[seg]*recBytes)
		}
	}
}

func TestForegroundCleaningAccounting(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MDC(), core.Greedy(), core.MDCRouted()} {
		t.Run(alg.Name, func(t *testing.T) {
			e, reg := newFake(t, alg, false)
			r := rand.New(rand.NewPCG(1, 2))
			for i := 0; i < 3000; i++ {
				k := r.IntN(40)
				if r.Float64() < 0.8 {
					k = r.IntN(4)
				}
				if err := e.put(k); err != nil {
					t.Fatalf("put %d: %v", i, err)
				}
			}
			e.check(t)
			e.sp.RLock()
			u := e.sp.Usage()
			e.sp.RUnlock()
			snap := reg.Snapshot()
			if u.SegmentsCleaned == 0 {
				t.Fatal("workload never cleaned")
			}
			if h := snap.Histograms["fake.victim_e.permille"]; h.Count != u.SegmentsCleaned {
				t.Errorf("victim_e counted %d, %d segments cleaned", h.Count, u.SegmentsCleaned)
			}
			if n := snap.Counters["fake.victim_aborts"]; n != 0 {
				t.Errorf("%d victim aborts without a failure", n)
			}
			if u.GCBytes != u.GCRecords*recBytes {
				t.Errorf("GC bytes %d for %d records", u.GCBytes, u.GCRecords)
			}
		})
	}
}

// TestAbortCreditsOnlyReleasedVictims drives the cleaner.Target phases by
// hand: a failed relocation re-seals victims that still hold data (counted
// as aborts, never as cleaned), while victims it already drained are
// released and credited once.
func TestAbortCreditsOnlyReleasedVictims(t *testing.T) {
	e, reg := newFake(t, core.Greedy(), false)
	for k := 0; k < 40; k++ {
		if err := e.put(k); err != nil {
			t.Fatal(err)
		}
	}
	// Overwrite three of every four keys of the first segments so victims
	// hold one live record each.
	for k := 0; k < 40; k++ {
		if k%4 != 0 {
			if err := e.put(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	victims := e.sp.SelectVictims(2)
	if len(victims) != 2 {
		t.Fatalf("selected %v", victims)
	}
	e.failNext = true
	if _, _, err := e.sp.Relocate(victims); err == nil {
		t.Fatal("injected relocation failure not reported")
	}
	e.sp.Abort(victims) // both victims still hold a live record: re-sealed
	snap := reg.Snapshot()
	if n := snap.Counters["fake.victim_aborts"]; n != 2 {
		t.Fatalf("victim_aborts = %d, want 2", n)
	}
	for _, v := range victims {
		if st := e.sp.Meta[v].State; st != core.SegSealed {
			t.Fatalf("aborted victim %d is %v", v, st)
		}
	}

	victims = e.sp.SelectVictims(2)
	if _, _, err := e.sp.Relocate(victims); err != nil {
		t.Fatal(err)
	}
	// Every record moved, so Abort must release (not re-seal) both.
	e.sp.Abort(victims)
	e.check(t)
	e.sp.RLock()
	u := e.sp.Usage()
	e.sp.RUnlock()
	snap = reg.Snapshot()
	if u.SegmentsCleaned != 2 || snap.Histograms["fake.victim_e.permille"].Count != 2 {
		t.Errorf("cleaned %d, victim_e counted %d; want 2 and 2",
			u.SegmentsCleaned, snap.Histograms["fake.victim_e.permille"].Count)
	}
	if n := snap.Counters["fake.victim_aborts"]; n != 2 {
		t.Errorf("drained victims counted as aborts: %d", n)
	}
}

// TestPrepareBatchReservesExactly plans batches against a nearly full pool
// and applies them: the reservation must cover every segment the apply
// loop opens, so no planned UserAppend fails.
func TestPrepareBatchReservesExactly(t *testing.T) {
	for _, alg := range []core.Algorithm{core.MDC(), core.MDCRouted()} {
		t.Run(alg.Name, func(t *testing.T) {
			e, _ := newFake(t, alg, false)
			r := rand.New(rand.NewPCG(3, 4))
			for round := 0; round < 300; round++ {
				var ops Ops[int]
				for n := 1 + r.IntN(9); n > 0; n-- {
					ops.Put(r.IntN(30), nil)
				}
				err := e.sp.Admit(ops.Len(), nil, func() error {
					plan, err := e.sp.PrepareBatch(&ops, func(int, []byte, bool) int64 { return recBytes })
					if err != nil {
						return err
					}
					for i := range plan {
						k, _, _ := ops.At(i)
						stream, err := e.sp.UserAppend(k, &plan[i], recBytes, false)
						if err != nil {
							return err
						}
						var carried float64
						if loc, ok := e.index[k]; ok {
							carried = e.sp.Invalidate(loc[0], recBytes)
						}
						if err := e.append(stream, k, carried); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
			e.check(t)
		})
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Name: "fake", ErrFull: errFull, Segments: 24, SegmentBytes: 40, LowWater: 6, Batch: 2,
		Algorithm: core.MDC(), Obs: obs.New()}
	for name, mut := range map[string]func(*Config){
		"low water not above batch": func(c *Config) { c.Batch = 6 },
		"too few segments":          func(c *Config) { c.Segments = 7 },
		"exact-rate algorithm":      func(c *Config) { c.Algorithm = core.MDCOpt() },
		"routed without headroom":   func(c *Config) { c.Algorithm = core.MultiLog(); c.Segments = 20 },
	} {
		c := base
		mut(&c)
		if _, err := New[int, int](c, Hooks[int]{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := New[int, int](base, Hooks[int]{}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestBackgroundCleaningAccounting runs concurrent writers against the
// background cleaner, which drives the space through cleaner.Target.
func TestBackgroundCleaningAccounting(t *testing.T) {
	e, reg := newFake(t, core.MDC(), true)
	if err := e.sp.Start(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 5))
			for i := 0; i < 2000; i++ {
				if err := e.put(r.IntN(40)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.sp.StopCleaner()
	e.check(t)
	e.sp.RLock()
	u := e.sp.Usage()
	e.sp.RUnlock()
	if bg, st := e.sp.Cleaner(); !bg || st.Cycles == 0 {
		t.Fatalf("background cleaner ran no cycles (background %v)", bg)
	}
	if h := reg.Snapshot().Histograms["fake.victim_e.permille"]; h.Count != u.SegmentsCleaned {
		t.Errorf("victim_e counted %d, %d segments cleaned", h.Count, u.SegmentsCleaned)
	}
}
