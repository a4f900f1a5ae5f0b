package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/dist"
	"github.com/exploratory-systems/qotp/internal/engine"
	"github.com/exploratory-systems/qotp/internal/metrics"
	"github.com/exploratory-systems/qotp/internal/obs"
	"github.com/exploratory-systems/qotp/internal/repl"
	"github.com/exploratory-systems/qotp/internal/serve"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/wal"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// stack is one assembled serving path: engine, optional WAL + replication,
// the batch former, and the client handle the load goroutine submits
// through. Every layer shares one obs registry, as in qotpd.
type stack struct {
	submit func(context.Context, *txn.Txn) (*serve.Future, error)
	reg    *obs.Registry
	stats  *metrics.Stats // the engine's counters
	hash   func() uint64  // state fingerprint; valid once the server is closed
	store  *storage.Store // centralized engines only
	tr     cluster.Transport
	leader *repl.Leader
	dir    string // WAL root (leader/ and standby/), durable workloads only
	load   time.Duration

	closers []func() error // released in reverse order by close
}

func (s *stack) push(f func() error) { s.closers = append(s.closers, f) }

// closeServer stops the client port and drains the former: afterwards every
// accepted transaction has executed and the engine is idle.
func (s *stack) closeServer() error {
	var errs []error
	for len(s.closers) > 0 {
		f := s.closers[len(s.closers)-1]
		s.closers = s.closers[:len(s.closers)-1]
		if f == nil {
			break // the server marker: engine-side closers remain
		}
		errs = append(errs, f())
	}
	return errors.Join(errs...)
}

// close releases everything still open, in reverse order of acquisition,
// and drops the stack's references to the engine and its stores so the
// reference execution that follows does not hold two databases at once.
func (s *stack) close() error {
	err := s.closeServer()
	for len(s.closers) > 0 {
		f := s.closers[len(s.closers)-1]
		s.closers = s.closers[:len(s.closers)-1]
		if f != nil {
			err = errors.Join(err, f())
		}
	}
	s.submit, s.hash, s.store, s.stats = nil, nil, nil, nil
	return err
}

// buildStack assembles the workload's serving path. tc, when non-nil, wraps
// the engine, the batch logger, the WAL filesystem and the cluster
// transport in span recorders. tmpDir holds the WAL directories.
func buildStack(w *workloadSpec, seed uint64, tc *tracer, tmpDir string) (_ *stack, err error) {
	st := &stack{reg: obs.New()}
	defer func() {
		if err != nil {
			_ = st.close()
			if st.dir != "" {
				_ = os.RemoveAll(st.dir)
			}
		}
	}()
	gen, err := newGen(w, seed)
	if err != nil {
		return nil, err
	}
	var eng engine.Engine
	switch w.engine {
	case "quecc", "quecc-pipe":
		start := time.Now()
		store, err := storage.Open(gen.StoreConfig(w.partitions))
		if err != nil {
			return nil, err
		}
		if err := gen.Load(store); err != nil {
			return nil, err
		}
		st.load = time.Since(start)
		ce, err := core.New(store, core.Config{Planners: 1, Executors: 2, Pipeline: w.engine == "quecc-pipe"})
		if err != nil {
			return nil, err
		}
		st.push(func() error { ce.Close(); return nil })
		st.store, st.stats, eng = store, ce.Stats(), ce
		st.hash = store.StateHash
	case "quecc-d":
		// The engine mesh: two nodes over loopback TCP, node 0 leads.
		lb, err := cluster.StartLoopbackTCPOpts(2, cluster.TCPOptions{Metrics: st.reg, MetricsMesh: "engine"})
		if err != nil {
			return nil, err
		}
		st.push(func() error { lb.Close(); return nil })
		st.tr = tc.transport(lb)
		// NewQueCCD loads every node's store from the generator; it is the
		// distributed stack's storage load. One executor per node and one
		// planner on the leader.
		start := time.Now()
		qd, err := dist.NewQueCCD(st.tr, gen, w.partitions, 1)
		if err != nil {
			return nil, err
		}
		st.load = time.Since(start)
		st.push(func() error { qd.Close(); return nil })
		st.stats, eng = qd.Stats(), qd
		tables := tableIDs(gen, w.partitions)
		st.hash = func() uint64 { return dist.ClusterStateHash(qd.Stores(), tables) }
	default:
		return nil, fmt.Errorf("unknown engine %q", w.engine)
	}
	obs.CollectStats(st.reg, "qotp_engine", st.stats)

	cfg := serve.Config{MaxBatch: w.maxBatch, Block: true, Metrics: st.reg}
	if w.durable {
		if err := st.startReplication(tc, tmpDir); err != nil {
			return nil, err
		}
		cfg.WAL = tc.logger(st.leader)
	}
	srv, err := serve.New(tc.engine(eng), cfg)
	if err != nil {
		return nil, err
	}
	st.push(nil) // everything pushed after this belongs to the serving front
	st.push(srv.Close)
	if !w.durable {
		st.submit = srv.Session().Submit
		return st, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	port := serve.ServeTCP(lis, srv, gen.Registry())
	st.push(func() error { port.Close(); return nil })
	rc, err := serve.DialTCP(port.Addr().String())
	if err != nil {
		return nil, err
	}
	st.push(rc.Close)
	st.submit = rc.Submit
	return st, nil
}

// startReplication opens the durable path: a group-synced WAL on the leader
// streamed with k=1 acks to one log-only standby over a loopback TCP mesh.
func (st *stack) startReplication(tc *tracer, tmpDir string) error {
	dir, err := os.MkdirTemp(tmpDir, "servebench-wal-")
	if err != nil {
		return err
	}
	st.dir = dir
	lb, err := cluster.StartLoopbackTCPOpts(2, cluster.TCPOptions{Metrics: st.reg, MetricsMesh: "repl"})
	if err != nil {
		return err
	}
	st.push(func() error { lb.Close(); return nil })
	st.tr = tc.transport(lb)
	fo, err := repl.StartFollower(st.tr, 1, 0, repl.FollowerOptions{
		Dir:     filepath.Join(dir, "standby"),
		WAL:     wal.Options{Sync: wal.SyncGroup, Metrics: st.reg},
		Metrics: st.reg,
	})
	if err != nil {
		return err
	}
	st.push(fo.Close)
	ldr, err := repl.OpenLeader(filepath.Join(dir, "leader"), st.tr, 0, []int{1}, repl.Options{
		Ack: repl.AckWaitK, WaitFor: 1,
		WAL:     wal.Options{Sync: wal.SyncGroup, Metrics: st.reg, FS: tc.fs()},
		Metrics: st.reg,
	})
	if err != nil {
		return err
	}
	st.push(ldr.Close)
	st.leader = ldr
	return ldr.WaitCaughtUp(10 * time.Second)
}

func tableIDs(gen workload.Generator, partitions int) []storage.TableID {
	var ids []storage.TableID
	for _, ts := range gen.StoreConfig(partitions).Tables {
		ids = append(ids, ts.ID)
	}
	return ids
}
