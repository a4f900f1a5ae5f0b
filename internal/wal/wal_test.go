package wal

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload/ycsb"
)

func ycsbCfg(parts int) ycsb.Config {
	return ycsb.Config{
		Records: 512, OpsPerTxn: 6, ReadRatio: 0.2, RMWRatio: 0.5,
		Theta: 0.9, AbortRatio: 0.05, Partitions: parts, Seed: 616,
	}
}

// batchRecords encodes n YCSB batches as consecutive records from epoch 0
// and returns the stream and each frame's end offset.
func batchRecords(n, batchSize int) ([]byte, []int) {
	gen := ycsb.MustNew(ycsbCfg(2))
	var stream []byte
	var ends []int
	for e := 0; e < n; e++ {
		txns := gen.NextBatch(batchSize)
		stream = appendRecord(stream, uint64(e), func(b []byte) []byte { return txn.AppendBatch(b, txns) })
		ends = append(ends, len(stream))
	}
	return stream, ends
}

// TestCrashRecoveryReproducesState logs a run through the Writer, "crashes"
// (the writer is never closed), and replays the log into a fresh store
// through an engine with different thread counts: determinism alone must
// reproduce the live store's state.
func TestCrashRecoveryReproducesState(t *testing.T) {
	const parts, nBatches, batchSize = 4, 5, 100
	dir := t.TempDir()
	w, err := Open(dir, Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	gen := ycsb.MustNew(ycsbCfg(parts))
	store := storage.MustOpen(gen.StoreConfig(parts))
	if err := gen.Load(store); err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(store, core.Config{Planners: 2, Executors: 2, Logger: w})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for b := 0; b < nBatches; b++ {
		if err := eng.ExecBatch(gen.NextBatch(batchSize)); err != nil {
			t.Fatal(err)
		}
	}
	want := store.StateHash()

	gen2 := ycsb.MustNew(ycsbCfg(parts))
	store2 := storage.MustOpen(gen2.StoreConfig(parts))
	if err := gen2.Load(store2); err != nil {
		t.Fatal(err)
	}
	eng2, err := core.New(store2, core.Config{Planners: 1, Executors: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	info, err := RecoverFrom(dir, nil, store2, gen2.Registry(), func(_ uint64, txns []*txn.Txn) error {
		return eng2.ExecBatch(txns)
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Batches != nBatches {
		t.Errorf("replayed %d batches, want %d", info.Batches, nBatches)
	}
	if got := store2.StateHash(); got != want {
		t.Errorf("recovered state %x != original %x", got, want)
	}
}

// TestTornTailStopsCleanly cuts the final record mid-payload and checks the
// scan yields the intact prefix and reports the torn tail.
func TestTornTailStopsCleanly(t *testing.T) {
	data, ends := batchRecords(3, 10)
	recs, size, torn, err := scanRecords(bytes.NewReader(data[:len(data)-7]), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if recs != 2 || size != int64(ends[1]) || !torn {
		t.Errorf("torn log: %d records, %d bytes, torn=%v; want 2, %d, true", recs, size, torn, ends[1])
	}
}

// TestCorruptPayloadDetected flips a payload byte and checks the CRC catches
// it.
func TestCorruptPayloadDetected(t *testing.T) {
	data, _ := batchRecords(1, 5)
	data[len(data)-1] ^= 0xFF
	recs, _, torn, err := scanRecords(bytes.NewReader(data), 0, nil)
	if recs != 0 || !torn || err != nil {
		t.Errorf("corrupt payload: %d records, torn=%v, err=%v; want 0, true, nil", recs, torn, err)
	}
}

// TestEmptyLog scans nothing and ends cleanly.
func TestEmptyLog(t *testing.T) {
	recs, size, torn, err := scanRecords(bytes.NewReader(nil), 0, nil)
	if recs != 0 || size != 0 || torn || err != nil {
		t.Errorf("empty log: %d records, %d bytes, torn=%v, err=%v", recs, size, torn, err)
	}
}

// TestHostileHeaderClamped: a header declaring a huge payload length must
// read as a torn tail, not allocate the claimed size.
func TestHostileHeaderClamped(t *testing.T) {
	header := func(n uint32) []byte {
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[:], magic)
		binary.LittleEndian.PutUint32(hdr[12:], n)
		return hdr[:]
	}
	scan := func(data []byte) (torn bool, allocated uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, _, torn, err := scanRecords(bytes.NewReader(data), 0, nil)
		runtime.ReadMemStats(&after)
		if recs != 0 || err != nil {
			t.Fatalf("hostile header: %d records, err=%v", recs, err)
		}
		return torn, after.TotalAlloc - before.TotalAlloc
	}
	for _, n := range []uint32{MaxRecordBytes + 1, 0xFFFFFFF0} {
		if torn, _ := scan(append(header(n), "tiny"...)); !torn {
			t.Errorf("hostile length %#x: not reported torn", n)
		}
	}
	// Within the cap but beyond the stream: chunked reading stops at the
	// delivered bytes, torn, no up-front allocation of the full claim.
	torn, allocated := scan(append(header(MaxRecordBytes), "short"...))
	if !torn {
		t.Error("truncated max-length record: not reported torn")
	}
	if allocated > 1<<20 {
		t.Errorf("truncated max-length record allocated %d bytes", allocated)
	}
}

// TestLogAppendsWithoutAllocating pins the write path's allocation budget:
// LogBatch encodes the batch in place into the Writer's frame buffer and
// LogRaw copies the payload into it, so neither allocates once the buffer
// has grown.
func TestLogAppendsWithoutAllocating(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	txns := ycsb.MustNew(ycsbCfg(2)).NextBatch(20)
	payload := txn.AppendBatch(nil, txns)
	var epoch uint64
	if n := testing.AllocsPerRun(50, func() {
		if err := w.LogBatch(epoch, txns); err != nil {
			t.Fatal(err)
		}
		epoch++
	}); n != 0 {
		t.Errorf("LogBatch: %.1f allocs per call, want 0", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := w.LogRaw(epoch, payload); err != nil {
			t.Fatal(err)
		}
		epoch++
	}); n != 0 {
		t.Errorf("LogRaw: %.1f allocs per call, want 0", n)
	}
}
