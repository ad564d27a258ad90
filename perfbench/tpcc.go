package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pagedb"
	"repro/internal/store"
	"repro/internal/tpcc"
)

// errStop ends the TPC-C engine's run when the timed phase is over: the
// engine stops at its first backend error, and Begin returns this one.
var errStop = errors.New("timed phase over")

// tpccSizes is the medium TPC-C configuration (2 warehouses, 200
// customers per district, 5000 items) with a checkpoint every 100
// transactions, the number of transactions the timed phase runs, and the
// length of the warm pass.
//
// The timed phase is a fixed amount of work, capped by the run's seconds:
// the database grows with every New-Order, so a phase of fixed length
// would end at a different size, fill and cleaning cost whenever
// throughput changed, and runs would not be comparable.
func tpccSizes(cfg config) (tc tpcc.Config, txs, warm int) {
	tc = tpcc.Config{Warehouses: 2, CustomersPerDistrict: 200, Items: 5000,
		InitialOrdersPerDistrict: 200, CheckpointEveryTx: 100, Seed: cfg.seed}
	txs, warm = 60000, 300
	if cfg.tiny {
		tc.Warehouses, tc.CustomersPerDistrict, tc.Items, tc.InitialOrdersPerDistrict = 1, 100, 2000, 100
		// Checkpoint often enough that a slow (-race) traced half still
		// holds the samples a checkpoint p50 needs.
		tc.CheckpointEveryTx = 20
		txs, warm = 3000, 50
	}
	return tc, txs, warm
}

// tpccOptions derives the store geometry the way `lsbench -exp tpcc -fill
// 0.8` does: capacity for the database grown by sizedFor transactions at a
// sealed-region fill of 0.8, a free-pool reserve that absorbs a whole
// checkpoint batch, and a node cache of 1/8 of the estimated data pages.
//
// The store runs at DurNone, so neither the WAL nor a checkpoint waits for
// fsync. At DurCommit every commit waits on the disk, and on a disk shared
// with other tenants throughput swung by a third between runs of the same
// seed; the engine's own costs, which changes to it move, drown in that.
func tpccOptions(dir string, tc tpcc.Config, sizedFor int) pagedb.Options {
	const pageSize, fill = 4096, 0.8
	segPages := 128
	est := tc.EstimateDataPages()
	if est < 2000 {
		segPages = 32
	}
	finalLive := (est + sizedFor*300/pageSize) * 2
	batchSegs := tc.CheckpointEveryTx*5/segPages + 1
	lowWater := batchSegs + 14
	maxSegs := max(int(float64(finalLive)/fill)/segPages+lowWater, lowWater+2*2+2)
	return pagedb.Options{
		Store: store.Options{
			Dir:             dir,
			PageSize:        pageSize,
			SegmentPages:    segPages,
			MaxSegments:     maxSegs,
			FreeLowWater:    lowWater,
			FreeEmergency:   batchSegs + 2,
			Algorithm:       core.MDC(),
			Durability:      core.DurNone,
			BackgroundClean: true,
		},
		CachePages: max(est/8, 128),
	}
}

// tpccBench drives TPC-C through pagedb and times it from outside: it
// hands the engine wrapped table, checkpoint and transaction constructors,
// so every Begin→Commit, every transactional Get/Put/Delete/Scan and every
// checkpoint passes through the benchmark's clock. Every stored row is
// stamped with its table, key and writing transaction, and every row read
// back is checked against its stamp and against the versions committed
// transactions wrote to it.
type tpccBench struct {
	db     *pagedb.DB
	opts   pagedb.Options
	eng    *tpcc.Engine
	closed bool
	seed   int64
	index  map[string]int // table name → position in tpcc.TableNames
	rowLen []atomic.Int32 // each table's row length, learned at load
	ver    atomic.Uint32  // last transaction version handed out
	rec    *recorder      // set for the timed phase only
	txs    int            // transactions in the timed phase
	begun  atomic.Int64   // transactions begun in the timed phase
	base   time.Time      // origin of the times in acks and pending

	committed versionSet // every row version the load or a commit wrote

	mu       sync.Mutex
	acks     chunks[ack]     // writes of committed transactions
	pending  chunks[readAck] // reads of versions not yet known committed
	setupBad []string

	height  int
	fetches float64 // pool fetches per Tree.Get, probed after the phase
}

// ack is one write of a committed transaction, with the times its Commit
// call began and returned (nanoseconds from tpccBench.base). The write took
// effect somewhere between the two.
type ack struct {
	table      uint8
	del        bool
	ver        uint32
	key        uint64
	start, end int64
}

// readAck is a read that returned a version not yet in the committed set:
// its writer may still have been inside Commit. at is when the read
// returned.
type readAck struct {
	table uint8
	ver   uint32
	key   uint64
	at    int64
}

// versionSet holds a hash of every (table, key, version) written by the
// load or a committed transaction, sharded so the clients rarely meet on
// a lock.
type versionSet struct {
	shards [16]struct {
		sync.RWMutex
		m map[uint64]struct{}
	}
}

func rowVersion(table int, key uint64, ver uint32) uint64 {
	h := uint64(rowTag(table, key))<<32 ^ key*0xFF51AFD7ED558CCD ^ uint64(ver)*0xC4CEB9FE1A85EC53
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	return h ^ h>>33
}

func (s *versionSet) add(table int, key uint64, ver uint32) {
	h := rowVersion(table, key, ver)
	sh := &s.shards[h%16]
	sh.Lock()
	if sh.m == nil {
		sh.m = map[uint64]struct{}{}
	}
	sh.m[h] = struct{}{}
	sh.Unlock()
}

func (s *versionSet) has(table int, key uint64, ver uint32) bool {
	h := rowVersion(table, key, ver)
	sh := &s.shards[h%16]
	sh.RLock()
	_, ok := sh.m[h]
	sh.RUnlock()
	return ok
}

func setupTPCC(cfg config, dir string) (instance, error) {
	tc, txs, warm := tpccSizes(cfg)
	opts := tpccOptions(dir, tc, txs+warm)
	db, err := pagedb.Open(opts)
	if err != nil {
		return nil, err
	}
	names := tpcc.TableNames()
	b := &tpccBench{db: db, opts: opts, seed: cfg.seed, txs: txs, base: time.Now(), index: map[string]int{}, rowLen: make([]atomic.Int32, len(names))}
	for i, n := range names {
		b.index[n] = i
	}
	tc.Obs = db.Obs()
	eng, err := tpcc.NewEngineOn(tc, tpcc.NewTxnBackend(b.table, b.checkpoint, b.begin))
	if err != nil {
		db.Close()
		return nil, err
	}
	b.eng = eng
	eng.UseTxns()
	eng.Run(warm)
	if err := eng.Err(); err != nil {
		db.Close()
		return nil, fmt.Errorf("tpcc warm pass: %w", err)
	}
	if err := b.checkpoint(); err != nil {
		db.Close()
		return nil, err
	}
	b.settle()
	if len(b.setupBad) > 0 {
		db.Close()
		return nil, fmt.Errorf("tpcc set-up read wrong rows: %v", b.setupBad)
	}
	return b, nil
}

func (b *tpccBench) registry() *obs.Registry { return b.db.Obs() }

func (b *tpccBench) close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	return b.db.Close()
}

// tpccWorkers is how many closed-loop TPC-C workers drive the database.
// With the background cleaner beside them, two workers on a 2-vCPU host
// ran fewer transactions per second than one (2,400 against 2,700), and
// their p99s were the other worker's waits for a checkpoint: a checkpoint
// every 100 transactions blocks about 1% of them, so the p99 sat on the
// edge between blocked and unblocked transactions and moved by half
// between runs.
const tpccWorkers = 1

// drive runs the TPC-C workers until they have begun the phase's
// transactions or the clock ends; a traced run traces from half the
// transactions or half the time, whichever comes first.
func (b *tpccBench) drive(rec *recorder) error {
	b.rec = rec
	err := b.eng.RunConcurrent(math.MaxInt32, tpccWorkers)
	if errors.Is(err, errStop) {
		return nil
	}
	if err == nil {
		return errors.New("tpcc: the engine ran out of transactions before the clock ended")
	}
	return err
}

// rowTag is the stamp identifying a row's table and key.
func rowTag(table int, key uint64) uint32 {
	h := key*0x9E3779B97F4A7C15 ^ uint64(table+1)*0xC2B2AE3D27D4EB4F
	return uint32(h >> 32)
}

// stamp returns the row the benchmark stores in place of the engine's
// padding: the same length, the table/key tag and the writing transaction's
// version in the first 8 bytes, zeros after.
func (b *tpccBench) stamp(table int, key uint64, pad []byte, ver uint32) []byte {
	b.rowLen[table].CompareAndSwap(0, int32(len(pad)))
	v := make([]byte, max(len(pad), 8))
	binary.LittleEndian.PutUint32(v, rowTag(table, key))
	binary.LittleEndian.PutUint32(v[4:], ver)
	return v
}

// checkRow reports why a row read back does not match its stamp, or "".
// The version is checked separately, by tpccBench.check.
func checkRow(v []byte, table int, key uint64, rowLen int) string {
	switch {
	case len(v) < 8 || (rowLen != 0 && len(v) != rowLen):
		return fmt.Sprintf("length %d, want %d", len(v), rowLen)
	case binary.LittleEndian.Uint32(v) != rowTag(table, key):
		return "stamp names another row"
	case !allZero(v[8:]):
		return "padding is not zero"
	}
	return ""
}

func allZero(p []byte) bool {
	for _, c := range p {
		if c != 0 {
			return false
		}
	}
	return true
}

// check verifies a row read back: its stamp must name the row, and its
// version must be one the load or a committed transaction wrote to it, or
// the reading transaction's own (own is nil outside a transaction). A
// version not yet committed is held until settle, as its writer may still
// be inside Commit.
func (b *tpccBench) check(table int, key uint64, v []byte, own *benchTxn) {
	if why := checkRow(v, table, key, int(b.rowLen[table].Load())); why != "" {
		b.bad("tpcc %s key %#x: %s", tpcc.TableNames()[table], key, why)
		return
	}
	ver := binary.LittleEndian.Uint32(v[4:])
	switch {
	case own != nil && ver == own.ver:
		if !own.wrote(table, key) {
			b.bad("tpcc %s key %#x: holds the reading transaction's version, which it did not write there", tpcc.TableNames()[table], key)
		}
	case !b.committed.has(table, key, ver):
		r := readAck{table: uint8(table), ver: ver, key: key, at: int64(time.Since(b.base))}
		b.mu.Lock()
		b.pending.add(r)
		b.mu.Unlock()
	}
}

// settle checks the reads check held back: each must have returned a
// version a committed transaction wrote to that row, whose Commit began
// before the read returned. A version that never committed, or was
// rolled back, fails.
func (b *tpccBench) settle() {
	b.mu.Lock()
	reads, acks := b.pending.all(), b.acks.all()
	b.pending = chunks[readAck]{}
	b.mu.Unlock()
	began := map[uint32]int64{}
	for _, a := range acks {
		began[a.ver] = a.start
	}
	names := tpcc.TableNames()
	for _, r := range reads {
		start, ok := began[r.ver]
		switch {
		case !ok || !b.committed.has(int(r.table), r.key, r.ver):
			b.bad("tpcc %s key %#x: read version %d, which no committed transaction wrote there", names[r.table], r.key, r.ver)
		case start > r.at:
			b.bad("tpcc %s key %#x: read version %d before its transaction began to commit", names[r.table], r.key, r.ver)
		}
	}
}

// bad records a wrong row: a verification failure in the timed phase, a
// set-up error before it.
func (b *tpccBench) bad(format string, args ...any) {
	if b.rec != nil {
		b.rec.mismatch(format, args...)
		return
	}
	b.mu.Lock()
	b.setupBad = append(b.setupBad, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// stampTable is a pagedb tree as the engine's load and non-transactional
// reads see it.
type stampTable struct {
	b *tpccBench
	i int
	t *pagedb.Tree
}

func (b *tpccBench) table(name string) (stampTable, error) {
	t, err := b.db.Tree(name)
	return stampTable{b: b, i: b.index[name], t: t}, err
}

func (s stampTable) Get(key uint64) ([]byte, bool, error) {
	v, ok, err := s.t.Get(key)
	if ok && err == nil {
		s.b.check(s.i, key, v, nil)
	}
	return v, ok, err
}

// Put is the load's write: version 0, committed once it returns.
func (s stampTable) Put(key uint64, value []byte) error {
	if err := s.t.Put(key, s.b.stamp(s.i, key, value, 0)); err != nil {
		return err
	}
	s.b.committed.add(s.i, key, 0)
	return nil
}

func (s stampTable) Delete(key uint64) (bool, error) { return s.t.Delete(key) }

func (s stampTable) Scan(from, to uint64, fn func(uint64, []byte) bool) error {
	return s.t.Scan(from, to, func(k uint64, v []byte) bool {
		s.b.check(s.i, k, v, nil)
		return fn(k, v)
	})
}

func (s stampTable) Len() int { return s.t.Len() }

// checkpoint is the engine's periodic db.Commit, timed.
func (b *tpccBench) checkpoint() error {
	s := time.Now()
	err := b.db.Commit()
	e := time.Now()
	if r := b.rec; r != nil && !r.clk.over(s) {
		st := opStats{}
		st.op("pagedb.checkpoint").add(e.Sub(s), err)
		traced := r.tracing.Load()
		var sp []span
		if traced {
			sp = []span{{Name: "pagedb.checkpoint", Op: r.nextOp(), Parent: -1, Start: s.Sub(r.clk.start), End: e.Sub(r.clk.start)}}
		}
		r.merge(traced, st, sp)
	}
	return err
}

// benchTxn is one TPC-C transaction's pagedb transaction, timed call by
// call. Its spans share one op id under a "tpcc.tx" root.
type benchTxn struct {
	b      *tpccBench
	x      *pagedb.Txn
	ver    uint32
	t0     time.Time
	op     uint64
	traced bool
	st     opStats // nil outside the timed phase
	spans  []span
	writes []ack
	wbytes int64
}

func (b *tpccBench) begin() (*benchTxn, error) {
	now := time.Now()
	r := b.rec
	if r != nil {
		n := b.begun.Add(1)
		if n > int64(b.txs) || r.clk.over(now) {
			return nil, errStop
		}
		if n > int64(b.txs/2) || r.clk.pastHalf(now) {
			r.traceFrom()
		}
	}
	x, err := b.db.Begin()
	if err != nil {
		return nil, err
	}
	t := &benchTxn{b: b, x: x, ver: b.ver.Add(1), t0: now}
	if r != nil {
		t.st = opStats{}
		t.op = r.nextOp()
		if t.traced = r.tracing.Load(); t.traced {
			t.spans = []span{{Name: "tpcc.tx", Op: t.op, Parent: -1, Start: now.Sub(r.clk.start)}}
		}
	}
	return t, nil
}

// note records one call that started at s.
func (t *benchTxn) note(name string, s time.Time, err error) {
	if t.st == nil {
		return
	}
	e := time.Now()
	d := e.Sub(s)
	if o := t.st.op(name); t.b.rec.trace {
		o.add(d, err)
	} else {
		o.count(d, err)
	}
	if err == nil && (name == "pagedb.get" || name == "pagedb.scan") {
		t.st.op("read").lat.add(int64(d)) // see Commit
	}
	if t.traced {
		c := t.b.rec.clk.start
		t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: 0, Start: s.Sub(c), End: e.Sub(c)})
	}
}

func (t *benchTxn) Get(table string, key uint64) ([]byte, bool, error) {
	s := time.Now()
	v, ok, err := t.x.Get(table, key)
	t.note("pagedb.get", s, err)
	if ok && err == nil {
		t.b.check(t.b.index[table], key, v, t)
	}
	return v, ok, err
}

func (t *benchTxn) Put(table string, key uint64, value []byte) error {
	i := t.b.index[table]
	v := t.b.stamp(i, key, value, t.ver)
	s := time.Now()
	err := t.x.Put(table, key, v)
	t.note("pagedb.put", s, err)
	if err == nil {
		t.writes = append(t.writes, ack{table: uint8(i), key: key, ver: t.ver})
		t.wbytes += int64(8 + len(v))
	}
	return err
}

func (t *benchTxn) Delete(table string, key uint64) (bool, error) {
	s := time.Now()
	ok, err := t.x.Delete(table, key)
	t.note("pagedb.delete", s, err)
	if err == nil {
		t.writes = append(t.writes, ack{table: uint8(t.b.index[table]), key: key, ver: t.ver, del: true})
		t.wbytes += 8
	}
	return ok, err
}

func (t *benchTxn) Scan(table string, from, to uint64, fn func(uint64, []byte) bool) error {
	i := t.b.index[table]
	s := time.Now()
	err := t.x.Scan(table, from, to, func(k uint64, v []byte) bool {
		t.b.check(i, k, v, t)
		return fn(k, v)
	})
	t.note("pagedb.scan", s, err)
	return err
}

// wrote reports whether the transaction's last write to a row put a value.
func (t *benchTxn) wrote(table int, key uint64) bool {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if w := t.writes[i]; int(w.table) == table && w.key == key {
			return !w.del
		}
	}
	return false
}

// Commit commits the transaction and records it as a write when it wrote
// anything, as a read otherwise. A write's latency is its Begin→Commit
// time. Read latency is sampled from the Get and Scan calls of every
// transaction instead (note), the path from the B+-tree through the buffer
// pool that the read-only transactions are made of: read-only
// transactions are 8% of the TPC-C mix, about 4,800 a run, and over ten
// seeds of the same code the interquartile range of their p99 was 25-35%
// of its median; that of the ~500,000 calls' p99 was 6-7%.
func (t *benchTxn) Commit() error {
	s := time.Now()
	err := t.x.Commit()
	e := time.Now()
	b := t.b
	if err == nil && len(t.writes) > 0 {
		for _, w := range t.writes {
			if !w.del {
				b.committed.add(int(w.table), w.key, w.ver)
			}
		}
		start, end := int64(s.Sub(b.base)), int64(e.Sub(b.base))
		b.mu.Lock()
		for _, w := range t.writes {
			w.start, w.end = start, end
			b.acks.add(w)
		}
		b.mu.Unlock()
	}
	if t.st == nil {
		return err
	}
	class := "read"
	if len(t.writes) > 0 {
		class = "write"
		t.note("pagedb.txn_commit", s, err)
	}
	o := t.st.op(class)
	if class == "write" {
		o.add(e.Sub(t.t0), err)
	} else {
		o.count(e.Sub(t.t0), err)
	}
	if err == nil {
		o.bytes += t.wbytes
	}
	if t.traced {
		t.spans[0].End = e.Sub(b.rec.clk.start)
	}
	b.rec.merge(t.traced, t.st, t.spans)
	return err
}

// Rollback abandons the transaction. Only the end of the timed phase
// rolls back, so an abandoned transaction is not counted.
func (t *benchTxn) Rollback() error { return t.x.Rollback() }

func (b *tpccBench) counters() counters {
	st := b.db.Stats()
	c := storeCounters(st.Store)
	p := st.Pool
	for k, v := range map[string]uint64{
		"pool.hits": p.Hits, "pool.misses": p.Misses, "pool.fused_hits": p.FusedHits,
		"pool.evictions": p.Evictions, "pool.dirty_evictions": p.DirtyEvictions,
		"pool.grows": p.Grows, "pool.writeback_errors": p.WriteBackErrors,
		"pagedb.faults":           st.Faults,
		"pagedb.staged_evictions": st.StagedEvictions, "pagedb.committed_pages": st.CommittedPages,
		"wal.truncations": st.WAL.Truncations,
	} {
		c[k] = float64(v)
	}
	return c
}

// storeCounters are the page store's counters every store-backed workload
// reports.
func storeCounters(ss store.Stats) counters {
	return counters{
		"user_writes":                float64(ss.UserWrites),
		"gc_writes":                  float64(ss.GCWrites),
		"medium_bytes":               float64(procFields("/proc/self/io")["wchar"]),
		"cleaner.cycles":             float64(ss.Cleaner.Cycles),
		"cleaner.segments_reclaimed": float64(ss.Cleaner.SegmentsReclaimed),
		"cleaner.bytes_relocated":    float64(ss.Cleaner.BytesRelocated),
		"cleaner.writer_stall_ns":    float64(ss.Cleaner.WriterStallTime),
		"cleaner.writer_delay_ns":    float64(ss.Cleaner.WriterDelayTime),
		"mean_e":                     ss.MeanEAtClean,
		"store.fill_factor":          ss.FillFactor,
		"store.sealed_segments":      float64(ss.SealedSegments),
	}
}

// storeLayer adds the page store's per-layer metrics over a window.
func storeLayer(w window, v values) {
	v["store.fill_factor"] = w.level("store.fill_factor")
	v["store.sealed_segments"] = w.level("store.sealed_segments")
}

// storeUsed is the bytes held by the store's non-free segments.
func storeUsed(ss store.Stats, o store.Options) float64 {
	return float64((o.MaxSegments - ss.FreeSegments) * o.SegmentPages * o.PageSize)
}

// endState measures the database at the end of the timed phase: space
// held against live row bytes, tree height, and how many pool fetches a
// Tree.Get costs, probed on random keys of the largest table.
func (b *tpccBench) endState() (used, live float64, err error) {
	used = storeUsed(b.db.Stats().Store, b.opts.Store)
	var largest *pagedb.Tree
	for _, name := range b.db.TreeNames() {
		t, err := b.db.Tree(name)
		if err != nil {
			return 0, 0, err
		}
		if err := t.Scan(0, math.MaxUint64, func(_ uint64, v []byte) bool {
			live += float64(8 + len(v))
			return true
		}); err != nil {
			return 0, 0, err
		}
		b.height = max(b.height, t.Height())
		if largest == nil || t.Len() > largest.Len() {
			largest = t
		}
	}
	var keys []uint64
	if err := largest.Scan(0, math.MaxUint64, func(k uint64, _ []byte) bool {
		keys = append(keys, k)
		return true
	}); err != nil {
		return 0, 0, err
	}
	r := rand.New(rand.NewPCG(uint64(b.seed), 7))
	const gets = 2000
	p0 := b.db.Stats().Pool
	var buf []byte
	for range gets {
		if buf, _, err = largest.GetInto(keys[r.IntN(len(keys))], buf); err != nil {
			return 0, 0, err
		}
	}
	p1 := b.db.Stats().Pool
	b.fetches = float64(p1.Hits+p1.Misses-p0.Hits-p0.Misses) / gets
	return used, live, nil
}

func (b *tpccBench) layer(w window, v values) {
	commit := w.ops.op("pagedb.txn_commit")
	v["pagedb.txn_commit.count"] = float64(commit.n)
	v["pagedb.txn_commit.busy_ms"] = ms(commit.busy)
	v["pagedb.txn_commit.p50_us"] = us(p50(commit.lat))
	v["pagedb.txn_commit.failed"] = float64(commit.failed)
	get, scan := w.ops.op("pagedb.get"), w.ops.op("pagedb.scan")
	put, del := w.ops.op("pagedb.put"), w.ops.op("pagedb.delete")
	v["pagedb.txn_read.busy_ms"] = ms(get.busy + scan.busy)
	v["pagedb.txn_write.busy_ms"] = ms(put.busy + del.busy)
	v["pagedb.get.busy_ms"] = ms(get.busy)
	v["pagedb.scan.busy_ms"] = ms(scan.busy)
	ck := w.ops.op("pagedb.checkpoint")
	v["pagedb.checkpoint.count"] = float64(ck.n)
	v["pagedb.checkpoint.busy_share"] = ck.busy.Seconds() / w.elapsed.Seconds()
	v["pagedb.checkpoint.p50_ms"] = ms(p50(ck.lat))
	v["pagedb.checkpoint.max_ms"] = ms(ck.lat.max())
	v["pagedb.checkpoint.pages_per"] = ratio(w.delta("pagedb.committed_pages"), float64(ck.n))
	v["pagedb.faults_per_txn"] = ratio(w.delta("pagedb.faults"), w.done())
	v["pagedb.staged_evictions"] = w.delta("pagedb.staged_evictions")
	v["btree.height"] = float64(b.height)
	v["btree.fetches_per_get"] = b.fetches
	hits, misses := w.delta("pool.hits"), w.delta("pool.misses")
	v["bufferpool.hit_ratio"] = ratio(hits, hits+misses)
	v["bufferpool.fused_hit_share"] = ratio(w.delta("pool.fused_hits"), hits)
	v["bufferpool.evictions"] = w.delta("pool.evictions")
	v["bufferpool.dirty_evictions"] = w.delta("pool.dirty_evictions")
	v["bufferpool.grows"] = w.delta("pool.grows")
	v["bufferpool.writeback_errors"] = w.delta("pool.writeback_errors")
	v["wal.truncations"] = w.delta("wal.truncations")
	storeLayer(w, v)
}

// p50 is the median of a latency list, or 0 when it has too few samples.
func p50(l latency) time.Duration {
	d, _, _ := l.quantile(0.5)
	return d
}

// verify checks the database after the timed phase: tree invariants and
// pin balance, every row read during the phase, every acknowledged write,
// then the same again after a close and reopen, which must also yield
// exactly the same rows.
func (b *tpccBench) verify(rec *recorder) error {
	defer b.close()
	b.rec = rec
	b.settle()
	if err := b.db.CheckPinBalance(); err != nil {
		rec.mismatch("tpcc: %v", err)
	}
	if err := checkTrees(b.db, rec); err != nil {
		return err
	}
	if err := b.checkAcks(b.db); err != nil {
		return err
	}
	before, err := b.digest(b.db)
	if err != nil {
		return err
	}
	b.settle()
	if err := b.close(); err != nil {
		return fmt.Errorf("tpcc: close: %w", err)
	}
	db, err := pagedb.Open(b.opts)
	if err != nil {
		return fmt.Errorf("tpcc: reopen: %w", err)
	}
	defer db.Close()
	after, err := b.digest(db)
	if err != nil {
		return err
	}
	b.settle()
	if after != before {
		rec.mismatch("tpcc: reopened database differs: %+v, before close %+v", after, before)
	}
	if err := checkTrees(db, rec); err != nil {
		return err
	}
	if err := b.checkAcks(db); err != nil {
		return err
	}
	return db.Close()
}

func checkTrees(db *pagedb.DB, rec *recorder) error {
	for _, name := range db.TreeNames() {
		t, err := db.Tree(name)
		if err != nil {
			return err
		}
		if err := t.CheckInvariants(); err != nil {
			rec.mismatch("tpcc tree %s: %v", name, err)
		}
	}
	return nil
}

// checkAcks confirms that every row a committed transaction wrote holds
// what one of its latest writes left there. A write is superseded when
// another commit to the same row began after it returned; the row must
// hold the version of a write that is not superseded, or be gone if such
// a write deleted it. Commits whose calls overlapped may have applied in
// either order, so each of them is allowed.
func (b *tpccBench) checkAcks(db *pagedb.DB) error {
	type rowKey struct {
		table uint8
		key   uint64
	}
	rows := map[rowKey][]ack{}
	for _, a := range b.acks.all() {
		k := rowKey{a.table, a.key}
		w := rows[k]
		// A transaction's later write to a row replaces its earlier one.
		if n := len(w); n > 0 && w[n-1].ver == a.ver {
			w[n-1] = a
			continue
		}
		rows[k] = append(w, a)
	}
	names := tpcc.TableNames()
	trees := make([]*pagedb.Tree, len(names))
	for i, n := range names {
		var err error
		if trees[i], err = db.Tree(n); err != nil {
			return err
		}
	}
	for k, ws := range rows {
		var lastStart int64
		for _, w := range ws {
			lastStart = max(lastStart, w.start)
		}
		v, ok, err := trees[k.table].Get(k.key)
		if err != nil {
			return err
		}
		var ver uint32
		if ok && len(v) >= 8 {
			ver = binary.LittleEndian.Uint32(v[4:])
		}
		// held: some write left the row as it is; current: one that did
		// is not superseded.
		held, current := false, false
		for _, w := range ws {
			if ok && !w.del && w.ver == ver || !ok && w.del {
				held = true
				current = current || w.end >= lastStart
			}
		}
		switch {
		case !held && !ok:
			b.bad("tpcc %s key %#x: acknowledged write lost", names[k.table], k.key)
		case !held:
			b.bad("tpcc %s key %#x: holds version %d, which no committed transaction wrote there", names[k.table], k.key, ver)
		case !current && !ok:
			b.bad("tpcc %s key %#x: gone, but a later commit wrote it", names[k.table], k.key)
		case !current:
			b.bad("tpcc %s key %#x: holds version %d, which a later commit replaced", names[k.table], k.key, ver)
		}
	}
	return nil
}

// digest summarizes every table's rows, checking each row's stamp and
// version on the way (settle completes the version check).
type digest struct {
	Rows  int
	Bytes int
	Hash  uint64
}

func (b *tpccBench) digest(db *pagedb.DB) (digest, error) {
	var d digest
	h := fnv.New64a()
	var kb [8]byte
	for i, name := range tpcc.TableNames() {
		t, err := db.Tree(name)
		if err != nil {
			return d, err
		}
		if err := t.Scan(0, math.MaxUint64, func(k uint64, v []byte) bool {
			b.check(i, k, v, nil)
			binary.LittleEndian.PutUint64(kb[:], k)
			h.Write([]byte(name))
			h.Write(kb[:])
			h.Write(v)
			d.Rows++
			d.Bytes += len(v)
			return true
		}); err != nil {
			return d, err
		}
	}
	d.Hash = h.Sum64()
	return d, nil
}
