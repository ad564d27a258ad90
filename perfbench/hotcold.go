package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/workload"
)

// The hot/cold workloads follow the paper's experiment: 90% of updates go
// to 10% of the data (workload.NewSkew(n, 0.9, seed)) at a sealed-region
// fill of 0.85, updated in batches of batchOps distinct items by clients
// that mix batches and point reads half and half.
const (
	skew       = 0.9
	fill       = 0.85
	batchOps   = 8
	writeShare = 0.5
)

// streams are one client's seeded choices: which items it updates, which
// it reads, and whether the next operation is an update or a read.
type streams struct {
	write, read *workload.HotCold
	mix         *rand.Rand
}

func newStreams(n int, seed int64, c, clients int) streams {
	return streams{
		write: workload.NewSkew(n/clients, skew, seed*16+int64(c)),
		read:  workload.NewSkew(n, skew, seed*16+8+int64(c)),
		mix:   rand.New(rand.NewPCG(uint64(seed), uint64(c))),
	}
}

// pick fills ids with batchOps distinct items of client c's share.
func (s streams) pick(c, clients int, ids []uint32) []uint32 {
	ids = ids[:0]
	for len(ids) < batchOps {
		x, _ := s.write.Next()
		id := x*uint32(clients) + uint32(c)
		dup := false
		for _, y := range ids {
			dup = dup || y == id
		}
		if !dup {
			ids = append(ids, id)
		}
	}
	return ids
}

// items is what the two hot/cold workloads share: the item versions, the
// clients' streams, and the load, warm pass, clients and final check,
// over an engine given as a batch writer and a point reader.
//
// Each client updates only its own share of the items (item clients*x+c
// for client c), so every item has one writer and its versions are acknowledged in
// the order they were issued; reads cover all items.
type items struct {
	n      int
	issued []atomic.Uint32 // highest version handed to a write
	acked  []atomic.Uint32 // highest version whose write returned
	cl     []streams       // one per client
	ids    [][]uint32
	vers   [][]uint32

	// write stores items ids, stamped at vers, in one atomic batch using
	// client c's scratch space, and returns the user bytes written.
	write func(c int, ids, vers []uint32) (int64, error)
	// read returns item id's current value using client c's scratch space.
	read func(c int, id uint32) ([]byte, error)
}

func newItems(n int, seed int64, clients int) *items {
	h := &items{n: n, issued: make([]atomic.Uint32, n), acked: make([]atomic.Uint32, n),
		cl: make([]streams, clients), ids: make([][]uint32, clients), vers: make([][]uint32, clients)}
	for c := range clients {
		h.cl[c] = newStreams(n, seed, c, clients)
	}
	return h
}

// load writes every item at version 1, then rewrites the data twice over
// with the clients' own update streams, so that cleaning has reached its
// steady state before timing starts.
func (h *items) load() error {
	var ids, vers []uint32
	for id := range uint32(h.n) {
		ids, vers = append(ids, id), append(vers, 1)
		h.issued[id].Store(1)
		h.acked[id].Store(1)
		if len(ids) == 256 || int(id) == h.n-1 {
			if _, err := h.write(0, ids, vers); err != nil {
				return fmt.Errorf("load: %w", err)
			}
			ids, vers = ids[:0], vers[:0]
		}
	}
	for i := range 2 * h.n / batchOps {
		if _, err := h.update(i % len(h.cl)); err != nil {
			return fmt.Errorf("warm pass: %w", err)
		}
	}
	return nil
}

// update writes one batch of client c's items at their next versions.
func (h *items) update(c int) (int64, error) {
	ids := h.cl[c].pick(c, len(h.cl), h.ids[c])
	vers := h.vers[c][:0]
	for _, id := range ids {
		vers = append(vers, h.issued[id].Add(1))
	}
	h.ids[c], h.vers[c] = ids, vers
	n, err := h.write(c, ids, vers)
	if err != nil {
		return 0, err
	}
	for i, id := range ids {
		h.acked[id].Store(vers[i])
	}
	return n, nil
}

// run drives the closed-loop clients until the clock ends, recording
// updates and reads under the span names names.
func (h *items) run(rec *recorder, names [2]string) {
	runClients(len(h.cl), func(c int) {
		loop(rec, h.cl[c].mix, names,
			func() (int64, error) { return h.update(c) },
			func() error {
				x, _ := h.cl[c].read.Next()
				lo := h.acked[x].Load()
				p, err := h.read(c, x)
				if err == nil {
					if why := checkStamp(p, x, lo, h.issued[x].Load()); why != "" {
						rec.mismatch("item %d: %s", x, why)
					}
				}
				return err
			})
	})
}

// checkAll checks that every item holds exactly its last acknowledged
// version.
func (h *items) checkAll(rec *recorder) {
	for id := range uint32(h.n) {
		p, err := h.read(0, id)
		if err != nil {
			rec.mismatch("item %d: %v", id, err)
			continue
		}
		a := h.acked[id].Load()
		if why := checkStamp(p, id, a, a); why != "" {
			rec.mismatch("item %d: %s", id, why)
		}
	}
}

// stamp writes an item's id and version at both ends of p, so a torn or
// misplaced value shows at either end.
func stamp(p []byte, id, ver uint32) {
	binary.LittleEndian.PutUint32(p, id)
	binary.LittleEndian.PutUint32(p[4:], ver)
	binary.LittleEndian.PutUint32(p[len(p)-8:], id)
	binary.LittleEndian.PutUint32(p[len(p)-4:], ver)
}

// checkStamp reports why p is not item id at a version in [lo, hi], or "".
func checkStamp(p []byte, id, lo, hi uint32) string {
	if len(p) < 16 {
		return fmt.Sprintf("value of %d bytes", len(p))
	}
	gid, ver := binary.LittleEndian.Uint32(p), binary.LittleEndian.Uint32(p[4:])
	switch {
	case gid != id:
		return fmt.Sprintf("holds item %d", gid)
	case binary.LittleEndian.Uint32(p[len(p)-8:]) != gid || binary.LittleEndian.Uint32(p[len(p)-4:]) != ver:
		return "head and tail stamps differ"
	case ver < lo || ver > hi:
		return fmt.Sprintf("version %d outside [%d, %d]", ver, lo, hi)
	case !allZero(p[8 : len(p)-8]):
		return "body is not zero"
	}
	return ""
}

// loop runs one closed-loop client until the clock ends; a traced run
// traces the second half of the time. Each iteration draws an update or a
// read from the client's mix, times it, and records it as "write" or
// "read" with a root span named by names.
func loop(rec *recorder, mix *rand.Rand, names [2]string, write func() (int64, error), read func() error) {
	st := [2]opStats{{}, {}}
	var sp []span
	for {
		s := time.Now()
		if rec.clk.over(s) {
			break
		}
		if rec.clk.pastHalf(s) {
			rec.traceFrom()
		}
		traced := rec.tracing.Load()
		class, name := "read", names[1]
		var n int64
		var err error
		if mix.Float64() < writeShare {
			class, name = "write", names[0]
			n, err = write()
		} else {
			err = read()
		}
		e := time.Now()
		i := 0
		if traced {
			i = 1
			sp = append(sp, span{Name: name, Op: rec.nextOp(), Parent: -1, Start: s.Sub(rec.clk.start), End: e.Sub(rec.clk.start)})
		}
		o := st[i].op(class)
		o.add(e.Sub(s), err)
		if err == nil {
			o.bytes += n
		}
	}
	rec.merge(false, st[0], nil)
	rec.merge(true, st[1], sp)
}

// runClients runs f for each of clients clients concurrently and waits
// for all.
func runClients(clients int, f func(c int)) {
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	wg.Wait()
}

// pagesBench drives the log-structured page store directly: 16,384 live 4
// KiB pages in files, background MDC. It runs at DurNone: with an fsync per
// sealed segment (DurSeal) the run moves ~200 MB/s through fsync and its
// throughput and tail latency follow whatever else shares the disk, while
// the cleaning work this workload exists to measure does not change.
type pagesBench struct {
	*items
	s          *store.Store
	opts       store.Options
	wbuf, rbuf [pagesClients][]byte
	batch      [pagesClients]*store.Batch
	closed     bool
}

// pagesClients is one: with the background cleaner beside them, two
// clients kept three goroutines runnable on a 2-vCPU host. They ran no
// more operations per second than one (11,600 against 11,500), and their
// write p99 was mostly time spent waiting for a CPU (5.5 ms against 1.8
// ms), which moved by a quarter between runs.
const pagesClients = 1

func setupPages(cfg config, dir string) (instance, error) {
	n, segPages := 16384, 128
	if cfg.tiny {
		n, segPages = 1024, 16
	}
	opts := store.Options{
		Dir:             dir,
		PageSize:        4096,
		SegmentPages:    segPages,
		CleanBatch:      8,
		FreeLowWater:    12,
		Algorithm:       core.MDC(),
		Durability:      core.DurNone,
		BackgroundClean: true,
	}
	opts.MaxSegments = int(math.Ceil(float64(n)/fill/float64(segPages))) + opts.FreeLowWater
	s, err := store.Open(opts)
	if err != nil {
		return nil, err
	}
	p := &pagesBench{items: newItems(n, cfg.seed, pagesClients), s: s, opts: opts}
	for c := range pagesClients {
		p.wbuf[c], p.rbuf[c] = make([]byte, opts.PageSize), make([]byte, opts.PageSize)
		p.batch[c] = store.NewBatch()
	}
	p.write, p.read = p.writePages, p.readPage
	if err := p.load(); err != nil {
		s.Close()
		return nil, fmt.Errorf("pages: %w", err)
	}
	return p, nil
}

func (p *pagesBench) writePages(c int, ids, vers []uint32) (int64, error) {
	b, buf := p.batch[c], p.wbuf[c]
	b.Reset()
	for i, id := range ids {
		stamp(buf, id, vers[i])
		b.Write(id, buf)
	}
	return int64(len(ids) * len(buf)), p.s.Apply(b)
}

func (p *pagesBench) readPage(c int, id uint32) ([]byte, error) {
	return p.rbuf[c], p.s.ReadPage(id, p.rbuf[c])
}

func (p *pagesBench) drive(rec *recorder) error {
	p.run(rec, [2]string{"store.apply", "store.read"})
	return nil
}

func (p *pagesBench) registry() *obs.Registry { return p.s.Obs() }

func (p *pagesBench) counters() counters { return storeCounters(p.s.Stats()) }

func (p *pagesBench) endState() (used, live float64, err error) {
	return storeUsed(p.s.Stats(), p.opts), float64(p.n * p.opts.PageSize), nil
}

func (p *pagesBench) layer(w window, v values) {
	for class, name := range map[string]string{"write": "store.apply", "read": "store.read"} {
		o := w.ops.op(class)
		v[name+".count"] = float64(o.n)
		v[name+".busy_ms"] = ms(o.busy)
		v[name+".p50_us"] = us(p50(o.lat))
	}
	storeLayer(w, v)
}

func (p *pagesBench) close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	return p.s.Close()
}

// verify closes the store, reopens it, and checks that every page holds
// exactly its last acknowledged version.
func (p *pagesBench) verify(rec *recorder) error {
	if err := p.close(); err != nil {
		return fmt.Errorf("pages: close: %w", err)
	}
	s, err := store.Open(p.opts)
	if err != nil {
		return fmt.Errorf("pages: reopen: %w", err)
	}
	p.s = s
	defer s.Close()
	if live := s.Stats().LivePages; live != p.n {
		rec.mismatch("pages: %d live pages after reopen, want %d", live, p.n)
	}
	p.checkAll(rec)
	return s.Close()
}

// kvBench drives the vlog key-value engine: 100,000 keys of 100-byte
// values, background MDC. The engine is volatile, so there is no reopen.
type kvBench struct {
	*items
	s      *vlog.Store
	opts   vlog.Options
	keys   []string
	valLen int
	wbuf   [kvClients][]byte
	batch  [kvClients]*vlog.Batch
	closed bool
}

// kvClients is two. About 1% of one client's commits wait out a cleaner
// cycle (about 1 ms against a median of 9 µs), so with one client the p99
// sat on the edge of those waits and moved by a third between runs; with
// two, more than 1% wait and the p99 is one of the waits.
const kvClients = 2

func setupKV(cfg config, dir string) (instance, error) {
	n, segBytes := 100_000, 128<<10
	if cfg.tiny {
		n, segBytes = 5000, 16<<10
	}
	const valLen, recHeader = 100, 6
	k := &kvBench{items: newItems(n, cfg.seed, kvClients), keys: make([]string, n), valLen: valLen}
	for i := range k.keys {
		k.keys[i] = fmt.Sprintf("k%08d", i)
	}
	liveBytes := n * (recHeader + len(k.keys[0]) + valLen)
	opts := vlog.Options{
		SegmentBytes:    segBytes,
		CleanBatch:      4,
		FreeLowWater:    6,
		Algorithm:       core.MDC(),
		BackgroundClean: true,
	}
	opts.MaxSegments = int(math.Ceil(float64(liveBytes)/fill/float64(segBytes))) + opts.FreeLowWater
	s, err := vlog.New(opts)
	if err != nil {
		return nil, err
	}
	k.s, k.opts = s, opts
	for c := range kvClients {
		k.wbuf[c] = make([]byte, valLen)
		k.batch[c] = vlog.NewBatch()
	}
	k.write, k.read = k.commit, k.get
	if err := k.load(); err != nil {
		s.Close()
		return nil, fmt.Errorf("kv: %w", err)
	}
	return k, nil
}

func (k *kvBench) commit(c int, ids, vers []uint32) (int64, error) {
	b, buf := k.batch[c], k.wbuf[c]
	b.Reset()
	var n int64
	for i, id := range ids {
		stamp(buf, id, vers[i])
		b.Put(k.keys[id], buf)
		n += int64(len(k.keys[id]) + len(buf))
	}
	return n, k.s.Commit(b)
}

func (k *kvBench) get(_ int, id uint32) ([]byte, error) {
	v, ok := k.s.Get(k.keys[id])
	if !ok {
		return nil, fmt.Errorf("key %s missing", k.keys[id])
	}
	return v, nil
}

func (k *kvBench) drive(rec *recorder) error {
	k.run(rec, [2]string{"vlog.commit", "vlog.get"})
	return nil
}

func (k *kvBench) registry() *obs.Registry { return k.s.Obs() }

// counters: the vlog lives in memory, so the bytes it writes to its
// medium are the record bytes it appends, user and relocated.
func (k *kvBench) counters() counters {
	st := k.s.Stats()
	return counters{
		"user_writes":                float64(st.UserBytes),
		"gc_writes":                  float64(st.GCBytes),
		"medium_bytes":               float64(st.UserBytes + st.GCBytes),
		"cleaner.cycles":             float64(st.Cleaner.Cycles),
		"cleaner.segments_reclaimed": float64(st.Cleaner.SegmentsReclaimed),
		"cleaner.bytes_relocated":    float64(st.Cleaner.BytesRelocated),
		"cleaner.writer_stall_ns":    float64(st.Cleaner.WriterStallTime),
		"cleaner.writer_delay_ns":    float64(st.Cleaner.WriterDelayTime),
		"mean_e":                     st.MeanEAtClean,
	}
}

func (k *kvBench) endState() (used, live float64, err error) {
	st := k.s.Stats()
	used = float64((k.opts.MaxSegments - st.FreeSegments) * k.opts.SegmentBytes)
	return used, float64(len(k.keys) * (len(k.keys[0]) + k.valLen)), nil
}

func (k *kvBench) layer(w window, v values) {
	commit, get := w.ops.op("write"), w.ops.op("read")
	v["vlog.commit.busy_ms"] = ms(commit.busy)
	v["vlog.commit.p50_us"] = us(p50(commit.lat))
	v["vlog.get.busy_ms"] = ms(get.busy)
	v["vlog.mean_e_at_clean"] = w.level("mean_e")
}

func (k *kvBench) close() error {
	if k.closed {
		return nil
	}
	k.closed = true
	return k.s.Close()
}

// verify checks the engine's invariants and that every key holds exactly
// its last acknowledged version.
func (k *kvBench) verify(rec *recorder) error {
	defer k.close()
	if err := k.s.CheckInvariants(); err != nil {
		rec.mismatch("kv: %v", err)
	}
	if n := k.s.Len(); n != len(k.keys) {
		rec.mismatch("kv: %d keys, want %d", n, len(k.keys))
	}
	k.checkAll(rec)
	return k.close()
}
