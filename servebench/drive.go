package main

import (
	"context"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/exploratory-systems/qotp/internal/serve"
)

// Per-stream-index verdicts, compared against the serial reference.
const (
	verdictNone byte = iota // never resolved
	verdictCommitted
	verdictAborted
	verdictFailed // refused or resolved with an error
)

// slices is how many equal slices the measured window is cut into (100 ms
// each at 10 s). lat_p90_ms is the lower quartile over the slices of each
// slice's exact p90. On a 2-CPU host shared with other tenants, CPU steal
// comes in bursts that cover part of a run's slices, often more than half
// of them, and the p90 of the slices they cover rises most: in runs with
// 5-11% steal the median slice p90 of ycsb-closed-32 rose 22-45% and the
// lower quartile 9-15%, and over 25 runs of tpcc-open-durable the
// run-to-run spread was 0.21 for the median and 0.14 for the lower
// quartile. A change to the program's own tail that reaches most slices
// still shows. The other figures are whole-window ratios, whose spread
// slicing did not reduce, so a cost that recurs in few slices (a GC cycle,
// the once-a-second scrape) still counts.
const slices = 100

// edge is a resource snapshot at one end of the window.
type edge struct {
	at             time.Time
	cpu            time.Duration // process user+sys
	mallocs        uint64
	planNs, execNs uint64 // engine Stats
	msgs, bytes    uint64 // cluster transport counters
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (st *stack) edge() edge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e := edge{
		at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs,
		planNs: st.stats.PlanNs.Load(), execNs: st.stats.ExecNs.Load(),
	}
	if st.tr != nil {
		e.msgs, e.bytes = st.tr.Messages(), st.tr.Bytes()
	}
	return e
}

// reqSpan is one request span for the trace file: stream index, due and
// outcome-seen instants (offsets from the recorder's base) and the batch
// it rode in.
type reqSpan struct {
	idx       int
	due, seen time.Duration
	batch     uint64
}

// batchAgg sums what the load goroutine saw of one batch's window requests
// (traced runs only): the count and the send and seen instants (offsets
// from the recorder's base). Sums instead of per-request records keep the
// traced load goroutine as cheap as the untraced one.
type batchAgg struct {
	n          int64
	sent, seen time.Duration
}

// recorder accumulates one run's measurements. The window is cut at
// bounds[0] < … < bounds[slices]; outcomes seen inside it contribute
// samples to their slice, the rest are only checked against the
// reference. Submission-side fields belong to the sending goroutine,
// outcome-side fields to the goroutine that sees outcomes (the same one in
// the closed loop).
type recorder struct {
	traced      bool
	base        time.Time // origin of the request spans' offsets
	firstSubmit time.Time // first accepted submission: the end of set-up
	verdicts    []byte    // indexed by stream position
	start, end  edge      // snapshots at the window's ends, taken by the sending goroutine

	// Submission side.
	attempted, refused int64           // window submissions, and those refused
	late               []time.Duration // open loop: send instant minus due instant

	// Outcome side. The closed loop appends bounds as it passes them; the
	// open loop fixes them before it starts.
	bounds             []time.Time
	lat                [slices][]time.Duration // per slice, from submit (closed loop) or due time (open loop)
	committed, aborted int64
	failed             int64         // window outcomes resolved with an error
	aggs               []batchAgg    // indexed by Outcome.Batch
	port               time.Duration // Σ client-seen minus server-reported latency
	reqs               []reqSpan     // the first maxRequestSpans window requests
}

// sliceOf returns the window slice instant t falls in, or -1 outside the
// window.
func (r *recorder) sliceOf(t time.Time) int {
	n := len(r.bounds)
	if n == 0 || t.Before(r.bounds[0]) {
		return -1
	}
	k := sort.Search(n, func(i int) bool { return t.Before(r.bounds[i]) }) - 1
	if k >= slices {
		return -1
	}
	return k
}

func (r *recorder) inWindow(t time.Time) bool { return r.sliceOf(t) >= 0 }

// outcome records one resolved request.
func (r *recorder) outcome(idx int, due, sent, seen time.Time, out serve.Outcome) {
	v := verdictFailed
	switch {
	case out.Err != nil:
	case out.Committed:
		v = verdictCommitted
	default:
		v = verdictAborted
	}
	r.verdicts[idx] = v
	k := r.sliceOf(seen)
	if k < 0 {
		return
	}
	switch v {
	case verdictCommitted:
		r.committed++
	case verdictAborted:
		r.aborted++
	default:
		r.failed++
		return
	}
	r.lat[k] = append(r.lat[k], seen.Sub(due))
	if r.traced {
		for uint64(len(r.aggs)) <= out.Batch {
			r.aggs = append(r.aggs, batchAgg{})
		}
		a := &r.aggs[out.Batch]
		a.n++
		a.sent += sent.Sub(r.base)
		a.seen += seen.Sub(r.base)
		r.port += seen.Sub(sent) - out.Latency
		if len(r.reqs) < maxRequestSpans {
			r.reqs = append(r.reqs, reqSpan{idx: idx, due: due.Sub(r.base), seen: seen.Sub(r.base), batch: out.Batch})
		}
	}
}

// latencies returns every window latency sample, sorted.
func (r *recorder) latencies() []time.Duration {
	var all []time.Duration
	for _, l := range r.lat {
		all = append(all, l...)
	}
	return sortedDurations(all)
}

// ownBytes is the heap the recorder itself holds, excluded from the
// system's live-heap figure.
func (r *recorder) ownBytes() uint64 {
	const durSize, aggSize, spanSize = 8, 24, 32
	n := uint64(cap(r.verdicts)) + durSize*uint64(cap(r.late)) + aggSize*uint64(cap(r.aggs)) + spanSize*uint64(cap(r.reqs))
	for _, l := range r.lat {
		n += durSize * uint64(cap(l))
	}
	return n
}

func resolved(f *serve.Future) bool {
	select {
	case <-f.Done():
		return true
	default:
		return false
	}
}

type pending struct {
	fut  *serve.Future
	idx  int
	sent time.Time
}

// runClosed is the closed loop: one goroutine keeps `outstanding`
// submissions in flight, replacing each as its outcome is seen. Outcomes
// resolve batch-at-a-time in submission order, so it waits on the oldest
// and then collects every later one already resolved at the same instant.
// The window opens warmup after the first accepted submission and lasts
// window; then submission stops and the tail drains.
func runClosed(ctx context.Context, st *stack, in *inputs, outstanding int, warmup, window time.Duration, r *recorder) error {
	ring := make([]pending, outstanding)
	head, n, next := 0, 0, 0
	var opensAt time.Time
	sliceLen := window / slices
	for {
		for n < outstanding && len(r.bounds) <= slices {
			t, err := in.txnAt(next)
			if err != nil {
				return err
			}
			sent := time.Now()
			fut, err := st.submit(ctx, t)
			r.verdicts = append(r.verdicts, verdictNone)
			windowed := r.inWindow(sent)
			if windowed {
				r.attempted++
			}
			if err != nil {
				r.verdicts[next] = verdictFailed
				if windowed {
					r.refused++
				}
				next++
				continue
			}
			if r.firstSubmit.IsZero() {
				r.firstSubmit = time.Now()
				opensAt = r.firstSubmit.Add(warmup)
			}
			ring[(head+n)%outstanding] = pending{fut: fut, idx: next, sent: sent}
			n++
			next++
		}
		if n == 0 {
			return nil
		}
		<-ring[head].fut.Done()
		seen := time.Now()
		for n > 0 && resolved(ring[head].fut) {
			p := &ring[head]
			r.outcome(p.idx, p.sent, p.sent, seen, p.fut.Outcome())
			p.fut = nil
			head = (head + 1) % outstanding
			n--
		}
		// Cut the next slice boundary once it has passed; outcomes collected
		// above were seen before it.
		if k := len(r.bounds); k <= slices && !opensAt.IsZero() && !seen.Before(opensAt.Add(time.Duration(k)*sliceLen)) {
			switch k {
			case 0:
				r.start = st.edge()
				r.bounds = append(r.bounds, r.start.at)
			case slices:
				r.end = st.edge()
				r.bounds = append(r.bounds, r.end.at)
			default:
				r.bounds = append(r.bounds, time.Now())
			}
		}
	}
}

type openReq struct {
	fut       *serve.Future
	idx       int
	due, sent time.Time
}

// runOpen is the open loop: one goroutine sends stream transaction i at
// due time start+i/rate regardless of completions, sleeping only while
// ahead of schedule, and one collector goroutine waits the outcomes in
// submission order (the order one TCP connection answers in). Latency runs
// from each request's due time, so a stalled sender charges its lateness
// to every request it delays. The window is fixed in due time: it opens
// warmup after the first due instant and lasts window.
func runOpen(ctx context.Context, st *stack, in *inputs, rate int, warmup, window time.Duration, r *recorder) error {
	total := in.total
	r.verdicts = make([]byte, total)
	period := time.Second / time.Duration(rate)
	start := time.Now()
	for k := 0; k <= slices; k++ {
		r.bounds = append(r.bounds, start.Add(warmup+time.Duration(k)*window/slices))
	}
	// Buffered for the whole stream: the sender must never wait on the
	// collector, whatever backlog the server builds.
	reqs := make(chan openReq, total)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for q := range reqs {
			<-q.fut.Done()
			r.outcome(q.idx, q.due, q.sent, time.Now(), q.fut.Outcome())
		}
	}()
	var sendErr error
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * period)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if r.start.at.IsZero() && !due.Before(r.bounds[0]) {
			r.start = st.edge()
		}
		t, err := in.txnAt(i)
		if err != nil {
			sendErr = err
			break
		}
		sent := time.Now()
		windowed := !due.Before(r.bounds[0])
		if windowed {
			r.attempted++
			r.late = append(r.late, sent.Sub(due))
		}
		fut, err := st.submit(ctx, t)
		if err != nil {
			r.verdicts[i] = verdictFailed
			if windowed {
				r.refused++
			}
			continue
		}
		if r.firstSubmit.IsZero() {
			r.firstSubmit = time.Now()
		}
		reqs <- openReq{fut: fut, idx: i, due: due, sent: sent}
	}
	if d := time.Until(r.bounds[slices]); d > 0 && sendErr == nil {
		time.Sleep(d)
	}
	r.end = st.edge()
	close(reqs)
	<-done
	return sendErr
}
