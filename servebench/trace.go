package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
)

// The traced run wraps the public interfaces each layer is driven through —
// the engine handed to serve.New, the batch logger, the WAL filesystem and
// the cluster transport — and records a span at every call. Spans stay in
// memory and are written out when the run ends. A batch is keyed by its
// formed-batch sequence number, which is the WAL epoch, the engine's call
// order and the Outcome.Batch every request reports, so request spans link
// to their batch without any hook inside the program.

// span is one recorded interval: a name, an id unique within the name, the
// id of the span that caused it (0 for none) and its ends.
type span struct {
	name       string
	id, parent uint64
	start, end time.Time
}

// batchRec is everything the wrappers saw of one formed batch.
type batchRec struct {
	n                int
	first            time.Time // first call into the logger or the engine
	logStart, logEnd time.Time // BatchLogger.LogBatch
	call, done       time.Time // engine call, and the moment the engine reported it complete
	fsNs             time.Duration
	writeNs, syncNs  time.Duration
	syncs            int
	bytes            int
}

type tracer struct {
	layer string // "core" or "dist": the engine layer's metric prefix

	mu       sync.Mutex
	batches  []batchRec // index = batch sequence; [0] collects work outside any batch
	calls    uint64     // engine calls so far; the latest call's sequence
	inflight uint64     // pipelined engines: submitted batch not yet seen complete
	logging  uint64     // batch whose LogBatch is running (parent of FS spans)
	spans    []span     // FS, transport and scrape spans
}

func newTracer(w *workloadSpec) *tracer {
	return &tracer{layer: w.engineLayer(), batches: make([]batchRec, 1, 1<<14)}
}

func (tc *tracer) batch(seq uint64) *batchRec {
	for uint64(len(tc.batches)) <= seq {
		tc.batches = append(tc.batches, batchRec{})
	}
	return &tc.batches[seq]
}

func (tc *tracer) record(name string, parent uint64, start, end time.Time) {
	tc.mu.Lock()
	tc.spans = append(tc.spans, span{name: name, id: uint64(len(tc.spans)) + 1, parent: parent, start: start, end: end})
	tc.mu.Unlock()
}

// engine wraps the engine the former drives; a nil tracer returns it as is.
func (tc *tracer) engine(e engine.Engine) engine.Engine {
	if tc == nil {
		return e
	}
	te := &tracedEngine{Engine: e, tc: tc}
	if p, ok := e.(engine.Pipeliner); ok && p.Pipelined() {
		return &tracedPipe{tracedEngine: te, p: p}
	}
	return te
}

func (tc *tracer) logger(l serve.BatchLogger) serve.BatchLogger {
	if tc == nil {
		return l
	}
	return &tracedLogger{l: l, tc: tc}
}

func (tc *tracer) fs() wal.FS {
	if tc == nil {
		return nil
	}
	return tracedFS{FS: wal.OSFS, tc: tc}
}

func (tc *tracer) transport(lb *cluster.LoopbackTCP) cluster.Transport {
	if tc == nil {
		return lb
	}
	return &tracedTransport{LoopbackTCP: lb, tc: tc}
}

func (tc *tracer) gathered(start, end time.Time) {
	if tc != nil {
		tc.record("obs.gather", 0, start, end)
	}
}

func (tc *tracer) engineCall(n int) uint64 {
	now := time.Now()
	tc.mu.Lock()
	defer tc.mu.Unlock()
	tc.calls++
	b := tc.batch(tc.calls)
	if b.first.IsZero() {
		b.first = now
	}
	b.call, b.n = now, n
	return tc.calls
}

func (tc *tracer) engineDone(seq uint64) {
	now := time.Now()
	tc.mu.Lock()
	tc.batch(seq).done = now
	tc.mu.Unlock()
}

// submitted records a pipelined Submit's return: the previous batch has
// committed, and seq now executes in the background.
func (tc *tracer) submitted(seq uint64) {
	now := time.Now()
	tc.mu.Lock()
	if tc.inflight != 0 {
		tc.batch(tc.inflight).done = now
	}
	tc.inflight = seq
	tc.mu.Unlock()
}

// drained records a Drain, or a TryDrain that found the engine idle.
func (tc *tracer) drained() {
	now := time.Now()
	tc.mu.Lock()
	if tc.inflight != 0 {
		tc.batch(tc.inflight).done = now
		tc.inflight = 0
	}
	tc.mu.Unlock()
}

type tracedEngine struct {
	engine.Engine
	tc *tracer
}

func (e *tracedEngine) ExecBatch(txns []*txn.Txn) error {
	seq := e.tc.engineCall(len(txns))
	err := e.Engine.ExecBatch(txns)
	e.tc.engineDone(seq)
	return err
}

// tracedPipe keeps the pipelined driver visible to serve.New.
type tracedPipe struct {
	*tracedEngine
	p engine.Pipeliner
}

func (e *tracedPipe) Submit(txns []*txn.Txn) error {
	seq := e.tc.engineCall(len(txns))
	err := e.p.Submit(txns)
	e.tc.submitted(seq)
	return err
}

func (e *tracedPipe) Drain() error {
	err := e.p.Drain()
	e.tc.drained()
	return err
}

func (e *tracedPipe) TryDrain() (bool, error) {
	done, err := e.p.TryDrain()
	if done {
		e.tc.drained()
	}
	return done, err
}

func (e *tracedPipe) Pipelined() bool { return true }

type tracedLogger struct {
	l  serve.BatchLogger
	tc *tracer
}

func (l *tracedLogger) LogBatch(epoch uint64, txns []*txn.Txn) error {
	tc := l.tc
	start := time.Now()
	tc.mu.Lock()
	b := tc.batch(epoch)
	if b.first.IsZero() {
		b.first = start
	}
	b.logStart, b.n = start, len(txns)
	tc.logging = epoch
	tc.mu.Unlock()
	err := l.l.LogBatch(epoch, txns)
	end := time.Now()
	tc.mu.Lock()
	tc.batch(epoch).logEnd = end
	tc.logging = 0
	tc.mu.Unlock()
	return err
}

type tracedFS struct {
	wal.FS
	tc *tracer
}

func (f tracedFS) Create(path string) (wal.File, error) {
	h, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, tc: f.tc}, nil
}

type tracedFile struct {
	wal.File
	tc *tracer
}

func (f *tracedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.tc.fsOp("wal.write", start, time.Now(), n)
	return n, err
}

func (f *tracedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tc.fsOp("wal.sync", start, time.Now(), -1)
	return err
}

// fsOp charges one leader-WAL write (n >= 0 bytes) or fsync (n < 0) to the
// batch whose LogBatch is running.
func (tc *tracer) fsOp(name string, start, end time.Time, n int) {
	d := end.Sub(start)
	tc.mu.Lock()
	b := tc.batch(tc.logging)
	b.fsNs += d
	if n >= 0 {
		b.writeNs += d
		b.bytes += n
	} else {
		b.syncs++
		b.syncNs += d
	}
	tc.spans = append(tc.spans, span{name: name, id: uint64(len(tc.spans)) + 1, parent: tc.logging, start: start, end: end})
	tc.mu.Unlock()
}

type tracedTransport struct {
	*cluster.LoopbackTCP
	tc *tracer
}

func (t *tracedTransport) Send(m cluster.Msg) error {
	start := time.Now()
	err := t.LoopbackTCP.Send(m)
	t.tc.record("cluster.send", 0, start, time.Now())
	return err
}

// layerInputs is what the per-layer metrics are computed from besides the
// tracer: the run's recorder, the stack and the inputs.
type layerInputs struct {
	w     *workloadSpec
	r     *recorder
	st    *stack
	in    *inputs
	loads []time.Duration // storage load per set-up
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes every per-layer metric over the measured window. A
// layer the workload does not run reports 0.
func (tc *tracer) layerMetrics(li layerInputs) (map[string]float64, error) {
	r, st := li.r, li.st
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()

	// serve: batches, forming and resolving as the load goroutine saw them.
	// Σ_i (first_b − sent_i) over a batch's requests is n·first_b − Σ sent_i.
	var form, resolve time.Duration
	var batches, reqs, nForm, nResolve int64
	for seq, a := range r.aggs {
		if a.n == 0 {
			continue
		}
		batches++
		reqs += a.n
		if seq >= len(tc.batches) {
			continue
		}
		b := &tc.batches[seq]
		if !b.first.IsZero() {
			form += time.Duration(a.n)*b.first.Sub(r.base) - a.sent
			nForm += a.n
		}
		if !b.done.IsZero() {
			resolve += a.seen - time.Duration(a.n)*b.done.Sub(r.base)
			nResolve += a.n
		}
	}
	m["serve.batches"] = float64(batches)
	m["serve.txn_per_batch"] = div(float64(reqs), float64(batches))
	m["serve.form_us"] = div(us(form), float64(nForm))
	m["serve.resolve_us"] = div(us(resolve), float64(nResolve))
	if li.w.durable {
		m["serve.port_us"] = div(us(r.port), float64(reqs))
	}

	// Batches whose first call fell inside the window.
	var nb, ntx, syncs, bytes int
	var execSum, logSum, ackSum, writeSum, syncSum time.Duration
	var prevDone time.Time
	for seq := 1; seq < len(tc.batches); seq++ {
		b := &tc.batches[seq]
		start := b.call
		if prevDone.After(start) {
			start = prevDone // pipelined: batch k executes once k-1 is done
		}
		prevDone = b.done
		if !r.inWindow(b.first) || b.done.IsZero() {
			continue
		}
		nb++
		ntx += b.n
		execSum += b.done.Sub(start)
		if !b.logStart.IsZero() {
			logSum += b.logEnd.Sub(b.logStart)
			ackSum += b.logEnd.Sub(b.logStart) - b.fsNs
		}
		syncs += b.syncs
		bytes += b.bytes
		writeSum += b.writeNs
		syncSum += b.syncNs
	}
	window := r.end.at.Sub(r.start.at)
	m[tc.layer+".exec_batch_us"] = div(us(execSum), float64(nb))
	m[tc.layer+".busy_frac"] = div(float64(execSum), float64(window))

	processed := float64(r.committed + r.aborted)
	m["core.plan_ns_per_txn"] = div(float64(r.end.planNs-r.start.planNs), processed)
	m["core.exec_ns_per_txn"] = div(float64(r.end.execNs-r.start.execNs), processed)
	committed, aborted := st.stats.Committed.Load(), st.stats.UserAborts.Load()
	m["core.abort_ratio"] = div(float64(aborted), float64(committed+aborted))
	m["core.retries"] = float64(st.stats.Retries.Load())

	if li.w.durable {
		m["wal.log_batch_us"] = div(us(logSum), float64(nb))
		m["wal.write_us"] = div(us(writeSum), float64(nb))
		m["wal.sync_us"] = div(us(syncSum), float64(syncs))
		m["wal.syncs_per_batch"] = div(float64(syncs), float64(nb))
		m["wal.bytes_per_txn"] = div(float64(bytes), float64(ntx))
		m["repl.ack_wait_us"] = div(us(ackSum), float64(nb))
		ls := st.leader.Stats()
		m["repl.degraded"] = float64(ls.Degraded + ls.Shed)
	}
	if st.tr != nil {
		m["cluster.msgs_per_batch"] = div(float64(r.end.msgs-r.start.msgs), float64(nb))
		m["cluster.bytes_per_txn"] = div(float64(r.end.bytes-r.start.bytes), processed)
	}
	var sendSum, gatherSum time.Duration
	var sends, gathers int
	for _, s := range tc.spans {
		if !r.inWindow(s.start) {
			continue
		}
		switch s.name {
		case "cluster.send":
			sendSum += s.end.Sub(s.start)
			sends++
		case "obs.gather":
			gatherSum += s.end.Sub(s.start)
			gathers++
		}
	}
	m["cluster.send_us"] = div(us(sendSum), float64(sends))
	m["obs.gather_us"] = div(us(gatherSum), float64(gathers))
	m["obs.gather_allocs"] = gatherAllocs(st.reg)

	enc, dec, err := codecTimes(li.in)
	if err != nil {
		return nil, err
	}
	m["txn.encode_ns"], m["txn.decode_ns"] = enc, dec

	loads := append([]time.Duration(nil), li.loads...)
	sort.Slice(loads, func(i, j int) bool { return loads[i] < loads[j] })
	m["storage.load_s"] = loads[len(loads)/2].Seconds()
	if len(r.late) > 0 {
		m["load.gen_late_p90_ms"] = ms(percentile(sortedDurations(r.late), 90))
	}
	return m, nil
}

// gatherAllocs is the heap allocations one full scrape of the registry
// makes, measured on the idle stack after the window.
func gatherAllocs(reg *obs.Registry) float64 {
	const n = 5
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		_ = reg.Gather()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// codecTimes times txn.AppendTxn and txn.DecodeTxn over the workload's own
// inputs, outside the run: the median of three passes, in ns per
// transaction.
func codecTimes(in *inputs) (enc, dec float64, err error) {
	sample, err := in.sample(2048)
	if err != nil {
		return 0, 0, err
	}
	wire := make([][]byte, len(sample))
	for i, t := range sample {
		wire[i] = txn.AppendTxn(nil, t)
	}
	var encs, decs []float64
	buf := make([]byte, 0, 1<<12)
	for pass := 0; pass < 3; pass++ {
		start := time.Now()
		for _, t := range sample {
			buf = txn.AppendTxn(buf[:0], t)
		}
		encs = append(encs, float64(time.Since(start))/float64(len(sample)))
		start = time.Now()
		for _, b := range wire {
			if _, _, err := txn.DecodeTxn(b); err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(start))/float64(len(sample)))
	}
	sort.Float64s(encs)
	sort.Float64s(decs)
	return encs[1], decs[1], nil
}

// maxRequestSpans caps the request spans kept and written out; batch and
// layer spans are always written whole.
const maxRequestSpans = 100000

// writeSpans writes every recorded span as tab-separated
// name, id, parent, start_ns, end_ns (nanoseconds since the first
// submission): one serve.batch span per formed batch, its wal.log_batch and
// <layer>.exec children, the FS, transport and scrape spans, and the first
// maxRequestSpans request spans of the window (id = stream index, parent =
// batch).
func (tc *tracer) writeSpans(path string, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	base := r.firstSubmit
	line := func(name string, id, parent uint64, start, end time.Time) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", name, id, parent, start.Sub(base).Nanoseconds(), end.Sub(base).Nanoseconds())
	}
	fmt.Fprintln(w, "name\tid\tparent\tstart_ns\tend_ns")
	tc.mu.Lock()
	var prevDone time.Time
	for seq := 1; seq < len(tc.batches); seq++ {
		b := &tc.batches[seq]
		id := uint64(seq)
		line("serve.batch", id, 0, b.first, b.done)
		if !b.logStart.IsZero() {
			line("wal.log_batch", id, id, b.logStart, b.logEnd)
		}
		start := b.call
		if prevDone.After(start) {
			start = prevDone
		}
		prevDone = b.done
		line(tc.layer+".exec", id, id, start, b.done)
	}
	for _, s := range tc.spans {
		line(s.name, s.id, s.parent, s.start, s.end)
	}
	tc.mu.Unlock()
	for _, q := range r.reqs {
		line("request", uint64(q.idx), q.batch, r.base.Add(q.due), r.base.Add(q.seen))
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
