package dist

import (
	"encoding/binary"
	"testing"

	"github.com/exploratory-systems/qotp/internal/cluster"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
	"github.com/exploratory-systems/qotp/internal/workload"
)

// H-Store-D runs two-phase commit inline (hstore.go): participants prepare
// by executing their fragments under an undo log and vote, the coordinator
// decides abort on any abort vote and commit on a unanimous one, and
// participants roll back or keep their writes accordingly. These tests pin
// that protocol on hand-built transactions over 4 partitions on 2 nodes:
// keys 0 and 2 live on node 0 (the coordinator), keys 1 and 3 on node 1.

const (
	twoPCParts, twoPCNodes = 4, 2
	opTwoPCAdd             = workload.OpBaseTest + 0x20 // value += Arg(0)
	opTwoPCCheck           = workload.OpBaseTest + 0x21 // abort if value < Arg(0)
)

// twoPCGen serves the batches a test queues, over one table of counters
// that all start at 0.
type twoPCGen struct{ testDepGen }

func (g *twoPCGen) Name() string { return "twopc" }
func (g *twoPCGen) Registry() txn.Registry {
	return txn.Registry{
		opTwoPCAdd: func(c *txn.FragCtx) error {
			binary.LittleEndian.PutUint64(c.Val, binary.LittleEndian.Uint64(c.Val)+c.Arg(0))
			return nil
		},
		opTwoPCCheck: func(c *txn.FragCtx) error {
			if binary.LittleEndian.Uint64(c.Val) < c.Arg(0) {
				return txn.ErrAbort
			}
			return nil
		},
	}
}

func addFrag(key storage.Key, n uint64) txn.Fragment {
	return txn.Fragment{Table: testDepTable, Key: key, Access: txn.ReadModifyWrite, Op: opTwoPCAdd, Args: []uint64{n}}
}

func checkFrag(key storage.Key, floor uint64) txn.Fragment {
	return txn.Fragment{Table: testDepTable, Key: key, Access: txn.Read, Abortable: true, Op: opTwoPCCheck, Args: []uint64{floor}}
}

// twoPCCluster is an H-Store-D engine over an in-process transport.
type twoPCCluster struct {
	t   *testing.T
	tr  *cluster.ChanTransport
	gen *twoPCGen
	eng *HStoreD
}

func newTwoPCCluster(t *testing.T) *twoPCCluster {
	t.Helper()
	tr := cluster.NewChanTransport(twoPCNodes, 0)
	gen := &twoPCGen{}
	eng, err := NewHStoreD(tr, gen, twoPCParts, 1)
	if err != nil {
		tr.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		eng.Close()
		tr.Close()
	})
	return &twoPCCluster{t: t, tr: tr, gen: gen, eng: eng}
}

// exec runs one batch and returns the transport messages it cost.
func (c *twoPCCluster) exec(batch ...*txn.Txn) uint64 {
	c.t.Helper()
	for _, bt := range batch {
		if err := c.gen.Registry().Resolve(bt); err != nil {
			c.t.Fatal(err)
		}
	}
	c.gen.batch = batch
	pre := c.tr.Messages()
	if err := c.eng.ExecBatch(c.gen.NextBatch(len(batch))); err != nil {
		c.t.Fatal(err)
	}
	return c.tr.Messages() - pre
}

// want checks each key's counter on the node that owns it.
func (c *twoPCCluster) want(vals map[storage.Key]uint64) {
	c.t.Helper()
	for k, v := range vals {
		owner := cluster.PartitionOwner(int(k)%twoPCParts, twoPCNodes)
		rec := c.eng.Stores()[owner].Table(testDepTable).Get(k)
		if got := binary.LittleEndian.Uint64(rec.Val); got != v {
			c.t.Errorf("key %d on node %d = %d, want %d", k, owner, got, v)
		}
	}
}

func (c *twoPCCluster) userAborts() uint64 { return c.eng.Stats().Snap(1).UserAborts }

// TestUnanimousCommit: when every participant votes commit, the decision is
// commit and each participant keeps its prepared writes. One remote
// participant costs exactly one 2PC round: exec, vote, decision, ack.
func TestUnanimousCommit(t *testing.T) {
	c := newTwoPCCluster(t)
	t1 := depTxn(1, checkFrag(1, 0), addFrag(0, 5), addFrag(1, 7))
	if msgs := c.exec(t1); msgs != 4 {
		t.Errorf("%d messages for one two-node commit, want 4", msgs)
	}
	if t1.Aborted() || c.userAborts() != 0 {
		t.Errorf("unanimous commit aborted (txn %v, %d user aborts)", t1.Aborted(), c.userAborts())
	}
	c.want(map[storage.Key]uint64{0: 5, 1: 7})
}

// TestEarlyAbort: a single-home transaction whose check fails decides
// alone. Its participant rolls back at once and its vote completes the
// transaction, with no decision round, whether the failing check runs
// before or after the transaction's writes.
func TestEarlyAbort(t *testing.T) {
	c := newTwoPCCluster(t)
	checkFirst := depTxn(1, checkFrag(1, 1), addFrag(3, 9))
	writeFirst := depTxn(2, addFrag(3, 9), checkFrag(1, 1))
	if msgs := c.exec(checkFirst, writeFirst); msgs != 4 {
		t.Errorf("%d messages for two single-home aborts, want 4 (exec + vote each)", msgs)
	}
	if !checkFirst.Aborted() || !writeFirst.Aborted() || c.userAborts() != 2 {
		t.Errorf("aborted: %v %v, %d user aborts; want both, 2", checkFirst.Aborted(), writeFirst.Aborted(), c.userAborts())
	}
	c.want(map[storage.Key]uint64{1: 0, 3: 0})
}

// TestAbortAmongCommits: one abort vote among commit votes aborts the whole
// transaction. The participant that voted commit rolls back its prepared
// writes on the decision, while the batch's other transactions, before and
// after it on the same records, commit.
func TestAbortAmongCommits(t *testing.T) {
	c := newTwoPCCluster(t)
	before := depTxn(1, addFrag(0, 5), addFrag(1, 7))
	aborted := depTxn(2, addFrag(0, 100), checkFrag(1, 1000), addFrag(1, 100))
	after := depTxn(3, addFrag(0, 1), addFrag(1, 1), addFrag(2, 3))
	c.exec(before, aborted, after)
	if before.Aborted() || !aborted.Aborted() || after.Aborted() || c.userAborts() != 1 {
		t.Errorf("aborted: %v %v %v, %d user aborts; want only the middle one", before.Aborted(), aborted.Aborted(), after.Aborted(), c.userAborts())
	}
	c.want(map[storage.Key]uint64{0: 6, 1: 8, 2: 3})
}

// TestCommitNoRollback: a commit decision leaves the prepared writes in
// place for good. A later batch's checks on both nodes read exactly the
// committed values, and its own commit builds on them.
func TestCommitNoRollback(t *testing.T) {
	c := newTwoPCCluster(t)
	c.exec(depTxn(1, addFrag(0, 5), addFrag(1, 5)))
	t2 := depTxn(2, checkFrag(0, 5), checkFrag(1, 5), addFrag(0, 1), addFrag(1, 1))
	c.exec(t2)
	if t2.Aborted() || c.userAborts() != 0 {
		t.Errorf("committed writes were rolled back: txn aborted %v, %d user aborts", t2.Aborted(), c.userAborts())
	}
	c.want(map[storage.Key]uint64{0: 6, 1: 6})
}
