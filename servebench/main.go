// Command servebench is the repository's serving-path benchmark. It drives
// the public layer APIs — serve, core, dist, wal, repl, cluster, txn and
// obs — from outside, the way a client and an operator meet them, on four
// workloads that each load a different layer, and checks every run against
// a serial reference execution of the same inputs.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload ycsb-closed-32 --seed 42 --seconds 10 --trace 0
//
// Human-readable report lines come first; the last line of standard output
// is one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones listed in BENCHMARK.json,
// measured with tracing off. With --trace 1 the run is made twice, untraced
// and then with every layer's interface wrapped in span recorders; the
// metrics are the per-layer ones, the difference between the two runs is
// printed as the tracing overhead, and the spans are written to
// .bench_build/trace/.
//
// The load comes from one goroutine (plus one outcome collector in the open
// loop) and the engines run one planner and two executors, so on a 2-CPU
// host the figures measure the program rather than the scheduler.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/exploratory-systems/qotp/internal/workload/tpcc"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name        string
	tpcc        bool    // TPC-C instead of YCSB
	engine      string  // quecc, quecc-pipe or quecc-d
	partitions  int     // store partitions
	outstanding int     // closed loop: submissions kept in flight
	rate        int     // open loop: offered txn/s (outstanding == 0)
	maxBatch    int     // serve.Config.MaxBatch (0 = the default 512)
	durable     bool    // TCP client port, WAL and k=1 replication
	multiPart   float64 // YCSB fraction of transactions spanning 2 partitions
}

func (w *workloadSpec) engineLayer() string {
	if w.engine == "quecc-d" {
		return "dist"
	}
	return "core"
}

// The workloads, and why each is here (BENCHMARK.json repeats the reasons):
//
//   - ycsb-closed-32: batches are cut by the former's timer with at most 32
//     in them, so the former (serve) and obs overhead show and core does
//     little.
//   - ycsb-closed-2048: batches are cut by size, so the timer is bypassed
//     and core plan/exec on the pipelined engine is the bottleneck; a former
//     change predicts no change here.
//   - tpcc-open-durable: the only workload through the client port, the txn
//     codec, wal, repl and the replication mesh; write-heavy TPC-C with
//     about 0.46% logic aborts at a fixed offered 5,000 txn/s. At 10,000
//     txn/s CPU steal from other tenants of a 2-CPU host tipped some runs
//     into a growing backlog (p90 4 → 38 ms), so half that rate is offered.
//   - ycsb-dist2-closed-256: QueCC-D on two nodes over loopback TCP, the only
//     workload that runs dist and the engine mesh.
var workloads = []*workloadSpec{
	{name: "ycsb-closed-32", engine: "quecc", partitions: 4, outstanding: 32},
	{name: "ycsb-closed-2048", engine: "quecc-pipe", partitions: 4, outstanding: 2048, maxBatch: 1024},
	{name: "tpcc-open-durable", tpcc: true, engine: "quecc", partitions: 2, rate: 5000, durable: true},
	{name: "ycsb-dist2-closed-256", engine: "quecc-d", partitions: 4, outstanding: 256, multiPart: 0.2},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off over the window.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_tps", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p90_ms", "ms"},
	{"cpu_us_per_txn", "us"},
	{"allocs_per_txn", "count"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per layer.
var perLayer = []metricDef{
	{"serve.batches", "count"},
	{"serve.txn_per_batch", "count"},
	{"serve.form_us", "us"},
	{"serve.resolve_us", "us"},
	{"serve.port_us", "us"},
	{"core.exec_batch_us", "us"},
	{"core.busy_frac", "ratio"},
	{"core.plan_ns_per_txn", "ns"},
	{"core.exec_ns_per_txn", "ns"},
	{"core.abort_ratio", "ratio"},
	{"core.retries", "count"},
	{"wal.log_batch_us", "us"},
	{"wal.write_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.syncs_per_batch", "count"},
	{"wal.bytes_per_txn", "B"},
	{"repl.ack_wait_us", "us"},
	{"repl.degraded", "count"},
	{"cluster.msgs_per_batch", "count"},
	{"cluster.bytes_per_txn", "B"},
	{"cluster.send_us", "us"},
	{"dist.exec_batch_us", "us"},
	{"dist.busy_frac", "ratio"},
	{"txn.encode_ns", "ns"},
	{"txn.decode_ns", "ns"},
	{"obs.gather_us", "us"},
	{"obs.gather_allocs", "count"},
	{"storage.load_s", "s"},
	{"load.gen_late_p90_ms", "ms"},
	{"trace.tput_overhead_pct", "%"},
	{"trace.p50_overhead_pct", "%"},
}

// options is one invocation's settings.
type options struct {
	seed     uint64
	warmup   time.Duration
	window   time.Duration
	setups   int    // set-ups per run; setup_s is their median
	tmpDir   string // WAL directories ("" = os.TempDir)
	traceDir string // span files ("" = none written)
	out      io.Writer
}

// runResult is one measured run.
type runResult struct {
	problems          []string // correctness-gate failures
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64 // traced runs only
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", 42, "input seed")
	seconds := flag.Int("seconds", 10, "measured window in seconds (1..60)")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: servebench --workload <%s> [--seed n] [--seconds 1..60] [--trace 0|1]\n", workloadNames())
		os.Exit(2)
	}
	opt := options{
		seed: *seed, warmup: time.Second, window: time.Duration(*seconds) * time.Second,
		setups: 9, traceDir: filepath.Join(".bench_build", "trace"), out: os.Stdout,
	}
	res, err := run(context.Background(), w, opt, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	line, err := resultLine(res, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(line)
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += "|"
		}
		s += w.name
	}
	return s
}

// run measures the workload once untraced and, when traced is set, once
// more traced, and merges the two into the reported result.
func run(ctx context.Context, w *workloadSpec, opt options, traced bool) (*runResult, error) {
	fmt.Fprintf(opt.out, "host: nproc=%d GOMAXPROCS=%d go=%s timer_floor_us=%.1f\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), us(timerFloor()))
	fmt.Fprintf(opt.out, "workload: %s seed=%d warmup=%v window=%v\n", w.name, opt.seed, opt.warmup, opt.window)
	plain, err := runOnce(ctx, w, opt, false)
	if err != nil {
		return nil, err
	}
	if !traced {
		return plain, nil
	}
	tr, err := runOnce(ctx, w, opt, true)
	if err != nil {
		return nil, err
	}
	overhead := func(name string, higherBetter bool) float64 {
		base := plain.e2e[name]
		d := div(tr.e2e[name]-base, base) * 100
		if higherBetter {
			d = -d
		}
		return d
	}
	tr.layer["trace.tput_overhead_pct"] = overhead("throughput_tps", true)
	tr.layer["trace.p50_overhead_pct"] = overhead("lat_p50_ms", false)
	fmt.Fprintln(opt.out, "tracing overhead (traced vs untraced, positive = traced is worse):")
	for _, d := range endToEnd {
		fmt.Fprintf(opt.out, "  %-16s untraced %12.4f traced %12.4f  %+.1f%%\n", d.name,
			plain.e2e[d.name], tr.e2e[d.name], overhead(d.name, d.name == "throughput_tps"))
	}
	fmt.Fprintln(opt.out, "per-layer (traced run):")
	for _, d := range perLayer {
		fmt.Fprintf(opt.out, "  %-26s %14.4f %s\n", d.name, tr.layer[d.name], d.unit)
	}
	tr.problems = append(plain.problems, tr.problems...)
	tr.attempted += plain.attempted
	tr.failed += plain.failed
	return tr, nil
}

// timerFloor is the median time a 50µs sleep actually takes: the shortest
// interval a timer-driven batch former can wait on this host.
func timerFloor() time.Duration {
	var ds []time.Duration
	for i := 0; i < 21; i++ {
		start := time.Now()
		time.Sleep(50 * time.Microsecond)
		ds = append(ds, time.Since(start))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile is the exact nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runOnce generates the inputs, sets the stack up opt.setups times (the
// last set-up is the measured one), drives the window, computes the
// metrics and applies the correctness gate.
func runOnce(ctx context.Context, w *workloadSpec, opt options, traced bool) (*runResult, error) {
	mode := "untraced"
	if traced {
		mode = "traced"
	}
	openTxns := 0
	if w.outstanding == 0 {
		openTxns = int((opt.warmup + opt.window).Seconds() * float64(w.rate))
	}
	in, err := makeInputs(w, opt.seed, openTxns)
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	fmt.Fprintf(opt.out, "[%s] inputs: gen_s=%.4f heap_mb=%.2f (excluded from setup_s and heap_live_mb)\n",
		mode, in.genTime.Seconds(), float64(in.heapBytes)/1e6)
	base := heapLive()

	var setups, loads []time.Duration
	for k := 0; k < opt.setups-1; k++ {
		runtime.GC() // every set-up starts from a collected heap, like a fresh process
		start := time.Now()
		st, err := buildStack(w, opt.seed, nil, opt.tmpDir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		fut, err := st.submit(ctx, in.probe)
		if err == nil {
			setups = append(setups, time.Since(start))
			loads = append(loads, st.load)
			if out := fut.Outcome(); out.Err != nil {
				err = out.Err
			}
		}
		err = errors.Join(err, st.close())
		if st.dir != "" {
			err = errors.Join(err, os.RemoveAll(st.dir))
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
		in.probe.Reset()
	}

	var tc *tracer
	if traced {
		tc = newTracer(w)
	}
	r := &recorder{traced: traced, base: time.Now()}
	runtime.GC()
	start := time.Now()
	st, err := buildStack(w, opt.seed, tc, opt.tmpDir)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		_ = st.close()
		if st.dir != "" {
			_ = os.RemoveAll(st.dir)
		}
	}()
	loads = append(loads, st.load)
	stopScrape := scrape(st, tc)
	if w.outstanding > 0 {
		err = runClosed(ctx, st, in, w.outstanding, opt.warmup, opt.window, r)
	} else {
		err = runOpen(ctx, st, in, w.rate, opt.warmup, opt.window, r)
	}
	stopScrape()
	if err != nil {
		return nil, fmt.Errorf("drive: %w", err)
	}
	if r.firstSubmit.IsZero() || r.start.at.IsZero() || r.end.at.IsZero() {
		return nil, fmt.Errorf("drive: no accepted submission or no measured window")
	}
	setups = append(setups, r.firstSubmit.Sub(start))

	res := &runResult{attempted: r.attempted, failed: r.refused + r.failed, e2e: map[string]float64{}}
	// Measured before the recorder's samples are copied for sorting.
	res.e2e["heap_live_mb"] = (float64(heapLive()) - float64(base) - float64(r.ownBytes())) / 1e6
	window := r.end.at.Sub(r.start.at)
	processed := float64(r.committed + r.aborted)
	lat := r.latencies()
	var p90s []time.Duration
	for _, l := range r.lat {
		if len(l) > 0 {
			p90s = append(p90s, percentile(sortedDurations(l), 90))
		}
	}
	if len(p90s) == 0 {
		return nil, fmt.Errorf("drive: no outcome seen inside the measured window")
	}
	p90s = sortedDurations(p90s)
	res.e2e["setup_s"] = sortedDurations(setups)[len(setups)/2].Seconds()
	res.e2e["throughput_tps"] = float64(r.committed) / window.Seconds()
	res.e2e["lat_p50_ms"] = ms(percentile(lat, 50))
	res.e2e["lat_p90_ms"] = ms(percentile(p90s, 25))
	res.e2e["cpu_us_per_txn"] = div(us(r.end.cpu-r.start.cpu), processed)
	res.e2e["allocs_per_txn"] = div(float64(r.end.mallocs-r.start.mallocs), processed)
	if traced {
		if res.layer, err = tc.layerMetrics(layerInputs{w: w, r: r, st: st, in: in, loads: loads}); err != nil {
			return nil, err
		}
	}
	fmt.Fprintf(opt.out, "[%s] setup_s runs:", mode)
	for _, d := range setups {
		fmt.Fprintf(opt.out, " %.4f", d.Seconds())
	}
	fmt.Fprintln(opt.out)
	fmt.Fprintf(opt.out, "[%s] window=%.3fs committed=%d aborted=%d attempted=%d refused=%d failed=%d failed_ratio=%.6f\n",
		mode, window.Seconds(), r.committed, r.aborted, r.attempted, r.refused, r.failed,
		div(float64(r.refused+r.failed), float64(r.attempted)))
	fmt.Fprintf(opt.out, "[%s] whole-window latency: samples=%d p50=%.4fms p90=%.4fms p99=%.4fms (exact, from sorted samples; p99 not gated)\n",
		mode, len(lat), ms(percentile(lat, 50)), ms(percentile(lat, 90)), ms(percentile(lat, 99)))
	fmt.Fprintf(opt.out, "[%s] p90 of the %d slices with samples: min=%.4fms lower_quartile=%.4fms median=%.4fms max=%.4fms\n",
		mode, len(p90s), ms(p90s[0]), ms(percentile(p90s, 25)), ms(percentile(p90s, 50)), ms(p90s[len(p90s)-1]))
	if len(r.late) > 0 {
		late := sortedDurations(r.late)
		fmt.Fprintf(opt.out, "[%s] generator lateness: p50=%.4fms p90=%.4fms max=%.4fms\n",
			mode, ms(percentile(late, 50)), ms(percentile(late, 90)), ms(late[len(late)-1]))
	}
	for _, d := range endToEnd {
		fmt.Fprintf(opt.out, "[%s] %-16s %14.4f %s\n", mode, d.name, res.e2e[d.name], d.unit)
	}

	res.problems, err = gate(w, opt, in, st, r)
	if err != nil {
		return nil, err
	}
	for _, p := range res.problems {
		fmt.Fprintf(opt.out, "[%s] CORRECTNESS FAILURE: %s\n", mode, p)
	}
	if len(res.problems) == 0 {
		fmt.Fprintf(opt.out, "[%s] correctness: state hash, %d verdicts and engine counters match the serial reference\n", mode, len(r.verdicts))
	}
	if traced && opt.traceDir != "" {
		path := filepath.Join(opt.traceDir, fmt.Sprintf("%s-seed%d.tsv", w.name, opt.seed))
		if err := tc.writeSpans(path, r); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(opt.out, "[%s] spans written to %s\n", mode, path)
	}
	return res, nil
}

// scrape calls Gather once a second on the stack's registry, like an
// operator's scraper, until the returned stop function is called.
func scrape(st *stack, tc *tracer) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				start := time.Now()
				_ = st.reg.Gather()
				tc.gathered(start, time.Now())
			}
		}
	}()
	return func() { close(quit); <-done }
}

// gate is the correctness check of one run: the final state and every
// verdict must equal the serial reference over the same stream, the engine
// must report no retries and the reference's abort count, TPC-C must pass
// its consistency conditions, and on the durable workload the leader's and
// the standby's logs must each recover the reference state with no
// degraded commit. It closes the stack.
func gate(w *workloadSpec, opt options, in *inputs, st *stack, r *recorder) ([]string, error) {
	var problems []string
	fail := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	if err := st.closeServer(); err != nil {
		fail("closing the server: %v", err)
	}
	hash := st.hash()
	var tpccErr error
	if w.tpcc {
		tpccErr = in.gen.(*tpcc.Workload).CheckConsistency(st.store)
	}
	if st.leader != nil {
		if ls := st.leader.Stats(); ls.Degraded+ls.Shed != 0 {
			fail("replication degraded %d times and shed %d followers", ls.Degraded, ls.Shed)
		}
	}
	committed, aborted, retries := st.stats.Committed.Load(), st.stats.UserAborts.Load(), st.stats.Retries.Load()
	if err := st.close(); err != nil {
		fail("closing the stack: %v", err)
	}
	ref, err := in.runReference(r.verdicts)
	if err != nil {
		return nil, fmt.Errorf("serial reference: %w", err)
	}
	// A consistency failure the serial reference shares lies in the
	// workload or the check, not in the serving path; the run fails either
	// way, and the message says which.
	switch {
	case tpccErr != nil && ref.tpccErr != nil:
		fail("TPC-C consistency: %v (the serial reference fails it too: %v)", tpccErr, ref.tpccErr)
	case tpccErr != nil:
		fail("TPC-C consistency: %v (the serial reference passes)", tpccErr)
	}
	if hash != ref.hash {
		fail("state hash %x != serial reference %x", hash, ref.hash)
	}
	if ref.mismatch != 0 {
		fail("%d of %d verdicts differ from the serial reference", ref.mismatch, len(r.verdicts))
	}
	// The speculative engine re-executes the victims of a logic abort's
	// cascade and counts them as retries, so retries are expected exactly
	// when the stream has logic aborts; without any, a retry is a bug.
	if retries != 0 && ref.aborts == 0 {
		fail("engine reported %d retries on a stream without logic aborts", retries)
	}
	if aborted != uint64(ref.aborts) || committed+aborted != uint64(len(r.verdicts)) {
		fail("engine committed %d and aborted %d; the reference executed %d with %d aborts",
			committed, aborted, len(r.verdicts), ref.aborts)
	}
	if st.dir != "" {
		for _, sub := range []string{"leader", "standby"} {
			got, info, err := recoverHash(w, opt.seed, filepath.Join(st.dir, sub))
			switch {
			case err != nil:
				fail("recovering the %s log: %v", sub, err)
			case got != ref.hash:
				fail("%s log recovers state %x after %d batches, want %x", sub, got, info.NextEpoch, ref.hash)
			}
		}
	}
	return problems, nil
}

// resultLine renders the result object printed as the last output line.
func resultLine(res *runResult, traced bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	return string(b), err
}
