package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload"
	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

const (
	// poolTxns is the YCSB input pool. The closed loops submit stream index
	// i as pool[i%poolTxns]: a fresh stream of a 330k txn/s run would need
	// gigabytes at ≈1.6 KB per transaction. The pool is far larger than any
	// window plus two batches, so an entry is reused only long after its
	// previous outcome resolved and its batch left the engine.
	poolTxns = 16384
	// chunkTxns is the TPC-C generation and client-side decode granularity.
	// TPC-C inputs are kept wire-encoded (≈10× smaller than *txn.Txn) and
	// decoded chunk by chunk into one reused arena just before submission;
	// the reference regenerates with the same chunking because the
	// generator advances its delivery window once per NextBatch call.
	chunkTxns = 16
	// refBatch is the serial reference's batch size; serial-equivalence
	// makes the final state independent of batch boundaries.
	refBatch = 4096
)

// ycsbConfig is the YCSB mix every YCSB workload runs: 64Ki records, 8 ops,
// zipf θ=0.6, 50% reads, 25% read-modify-writes, 25% blind updates.
func ycsbConfig(w *workloadSpec, seed uint64) ycsb.Config {
	cfg := ycsb.Config{
		Records: 1 << 16, OpsPerTxn: 8, ReadRatio: 0.5, RMWRatio: 0.25, Theta: 0.6,
		Partitions: w.partitions, Seed: seed,
	}
	if w.multiPart > 0 {
		cfg.MultiPartitionRatio = w.multiPart
		cfg.MultiPartitionCount = 2
	}
	return cfg
}

// tpccConfig is the scaled-down TPC-C the serving experiments use (E18/E19).
func tpccConfig(seed uint64) tpcc.Config {
	return tpcc.Config{
		Warehouses: 2, Partitions: 2, Items: 2000, CustomersPerDistrict: 300,
		InitialOrdersPerDistrict: 100, Seed: seed,
	}
}

// newGen builds a fresh generator for the workload: the inputs, the stack's
// schema and initial load, and the serial reference each get their own.
func newGen(w *workloadSpec, seed uint64) (workload.Generator, error) {
	if w.tpcc {
		return tpcc.New(tpccConfig(seed))
	}
	return ycsb.New(ycsbConfig(w, seed))
}

// inputs is one run's pre-generated transaction stream.
type inputs struct {
	w    *workloadSpec
	seed uint64
	gen  workload.Generator // the generator the stream came from

	pool []*txn.Txn // YCSB: stream index i is pool[i%len(pool)]

	chunks [][]byte // TPC-C: AppendBatch encodings of chunkTxns transactions
	total  int      // TPC-C stream length (open loop: rate × run time)
	arena  *txn.Arena
	cur    []*txn.Txn
	curIdx int

	// probe is what throwaway set-ups submit. It comes from a second
	// generator on the run's own seed: a TPC-C transaction from another
	// seed can read order lines that this seed's initial load never wrote.
	// It is never one of the stream's own objects.
	probe *txn.Txn

	genTime   time.Duration
	heapBytes uint64
}

func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// makeInputs generates the stream for one run. openTxns is the TPC-C stream
// length; YCSB streams are unbounded over the pool.
func makeInputs(w *workloadSpec, seed uint64, openTxns int) (*inputs, error) {
	in := &inputs{w: w, seed: seed, curIdx: -1}
	before := heapLive()
	start := time.Now()
	gen, _, err := loadedGen(w, seed)
	if err != nil {
		return nil, err
	}
	in.gen = gen
	if w.tpcc {
		in.total = openTxns
		for n := 0; n < openTxns; n += chunkTxns {
			in.chunks = append(in.chunks, txn.AppendBatch(nil, gen.NextBatch(min(chunkTxns, openTxns-n))))
		}
		in.arena = &txn.Arena{}
	} else {
		gen.(*ycsb.Workload).SetArena(&txn.Arena{})
		in.pool = workload.GenStream(gen, poolTxns, 1024)
	}
	pg, _, err := loadedGen(w, seed)
	if err != nil {
		return nil, err
	}
	in.probe = pg.NextBatch(1)[0]
	in.genTime = time.Since(start)
	if after := heapLive(); after > before {
		in.heapBytes = after - before
	}
	return in, nil
}

// txnAt returns stream transaction i, ready to submit. Stream indices are
// requested in increasing order from one goroutine.
func (in *inputs) txnAt(i int) (*txn.Txn, error) {
	if in.pool != nil {
		t := in.pool[i%len(in.pool)]
		t.Reset()
		return t, nil
	}
	if c := i / chunkTxns; c != in.curIdx {
		in.arena.Reset()
		txns, _, err := txn.DecodeBatchArena(in.chunks[c], in.arena)
		if err != nil {
			return nil, fmt.Errorf("decode input chunk %d: %w", c, err)
		}
		in.cur, in.curIdx = txns, c
	}
	return in.cur[i%chunkTxns], nil
}

// sample returns up to n stream transactions for the codec timings.
func (in *inputs) sample(n int) ([]*txn.Txn, error) {
	if in.pool != nil {
		return in.pool[:min(n, len(in.pool))], nil
	}
	var out []*txn.Txn
	for c := 0; c < len(in.chunks) && len(out) < n; c++ {
		txns, _, err := txn.DecodeBatch(in.chunks[c])
		if err != nil {
			return nil, err
		}
		out = append(out, txns...)
	}
	return out[:min(n, len(out))], nil
}

// reference is the serial reference execution of one stream prefix.
type reference struct {
	hash     uint64
	aborts   int
	mismatch int // stream indices whose verdict differs from the run's
	// tpccErr is the TPC-C consistency check of the reference's own final
	// state; the gate reports it next to a serving-path failure.
	tpccErr error
}

// loadedGen builds a generator and loads a fresh store from it. A stream
// must come from a generator that has loaded: TPC-C's Load seeds the
// generator's shadow of the initial orders, which later transactions and
// the consistency check read.
func loadedGen(w *workloadSpec, seed uint64) (workload.Generator, *storage.Store, error) {
	gen, err := newGen(w, seed)
	if err != nil {
		return nil, nil, err
	}
	store, err := storage.Open(gen.StoreConfig(w.partitions))
	if err != nil {
		return nil, nil, err
	}
	if err := gen.Load(store); err != nil {
		return nil, nil, err
	}
	return gen, store, nil
}

// serialEngine opens and loads a fresh store for the workload and puts the
// serial reference engine (one planner, one executor) over it.
func serialEngine(w *workloadSpec, seed uint64) (workload.Generator, *storage.Store, *core.Engine, error) {
	gen, store, err := loadedGen(w, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	eng, err := core.New(store, core.Config{Planners: 1, Executors: 1})
	if err != nil {
		return nil, nil, nil, err
	}
	return gen, store, eng, nil
}

// runReference executes stream indices [0, len(verdicts)) serially and
// compares each verdict with the run's.
func (in *inputs) runReference(verdicts []byte) (*reference, error) {
	gen, store, eng, err := serialEngine(in.w, in.seed)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	ref := &reference{}
	check := func(base int, txns []*txn.Txn) {
		for k, t := range txns {
			want := verdictCommitted
			if t.Aborted() {
				want = verdictAborted
				ref.aborts++
			}
			if verdicts[base+k] != want {
				ref.mismatch++
			}
		}
	}
	n := len(verdicts)
	if in.pool != nil {
		for i := 0; i < n; {
			j := i % len(in.pool)
			b := in.pool[j : j+min(refBatch, len(in.pool)-j, n-i)]
			for _, t := range b {
				t.Reset()
			}
			if err := eng.ExecBatch(b); err != nil {
				return nil, fmt.Errorf("reference batch at %d: %w", i, err)
			}
			check(i, b)
			i += len(b)
		}
	} else {
		arena := &txn.Arena{}
		gen.(*tpcc.Workload).SetArena(arena)
		batch := make([]*txn.Txn, 0, refBatch)
		for i := 0; i < n; {
			arena.Reset()
			batch = batch[:0]
			for len(batch)+chunkTxns <= refBatch && i+len(batch) < n {
				batch = append(batch, gen.NextBatch(min(chunkTxns, n-i-len(batch)))...)
			}
			if err := eng.ExecBatch(batch); err != nil {
				return nil, fmt.Errorf("reference batch at %d: %w", i, err)
			}
			check(i, batch)
			i += len(batch)
		}
	}
	ref.hash = store.StateHash()
	if tg, ok := gen.(*tpcc.Workload); ok {
		ref.tpccErr = tg.CheckConsistency(store)
	}
	return ref, nil
}

// recoverHash replays a WAL directory through a fresh serial engine on a
// freshly loaded store and returns the recovered state hash.
func recoverHash(w *workloadSpec, seed uint64, dir string) (uint64, wal.RecoveryInfo, error) {
	gen, store, eng, err := serialEngine(w, seed)
	if err != nil {
		return 0, wal.RecoveryInfo{}, err
	}
	defer eng.Close()
	info, err := wal.RecoverFrom(dir, nil, nil, gen.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng.ExecBatch(txns)
	})
	if err != nil {
		return 0, info, err
	}
	return store.StateHash(), info, nil
}
