package tpcc

import (
	"testing"

	"github.com/exploratory-systems/qotp/internal/core"
	"github.com/exploratory-systems/qotp/internal/storage"
	"github.com/exploratory-systems/qotp/internal/txn"
)

func testConfig(w int) Config {
	return Config{
		Warehouses: w, Items: 200, CustomersPerDistrict: 60,
		InitialOrdersPerDistrict: 30, Seed: 42,
	}
}

func loadStore(t *testing.T, g *Workload) *storage.Store {
	t.Helper()
	s := storage.MustOpen(g.StoreConfig(g.cfg.Partitions))
	if err := g.Load(s); err != nil {
		t.Fatalf("load: %v", err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Warehouses: 2, Partitions: 3}); err == nil {
		t.Error("expected error when Partitions != Warehouses")
	}
	g, err := New(Config{})
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if g.cfg.Warehouses != 1 || g.cfg.Partitions != 1 {
		t.Errorf("defaults: W=%d P=%d, want 1/1", g.cfg.Warehouses, g.cfg.Partitions)
	}
}

func TestLoadCardinalities(t *testing.T) {
	g := MustNew(testConfig(2))
	s := loadStore(t, g)
	cfg := g.cfg
	wantCustomers := cfg.Warehouses * districtsPerWarehouse * cfg.CustomersPerDistrict
	if got := s.Table(TableCustomer).Len(); got != wantCustomers {
		t.Errorf("customers = %d, want %d", got, wantCustomers)
	}
	wantStock := cfg.Warehouses * cfg.Items
	if got := s.Table(TableStock).Len(); got != wantStock {
		t.Errorf("stock = %d, want %d", got, wantStock)
	}
	if got := s.Table(TableItem).Len(); got != wantStock {
		t.Errorf("items = %d, want %d (replicated per warehouse)", got, wantStock)
	}
	wantOrders := cfg.Warehouses * districtsPerWarehouse * cfg.InitialOrdersPerDistrict
	if got := s.Table(TableOrders).Len(); got != wantOrders {
		t.Errorf("orders = %d, want %d", got, wantOrders)
	}
	if got := s.Table(TableDistrict).Len(); got != cfg.Warehouses*districtsPerWarehouse {
		t.Errorf("districts = %d", got)
	}
}

func TestFreshLoadIsConsistent(t *testing.T) {
	g := MustNew(testConfig(2))
	s := loadStore(t, g)
	if err := g.CheckConsistency(s); err != nil {
		t.Errorf("fresh load inconsistent: %v", err)
	}
}

func TestKeysPartitionByWarehouse(t *testing.T) {
	g := MustNew(testConfig(4))
	p := g.cfg.Partitions
	for w := 1; w <= 4; w++ {
		keys := []storage.Key{
			g.keyWarehouse(w),
			g.keyDistrict(w, 7),
			g.keyCustomer(w, 3, 55),
			g.keyStock(w, 99),
			g.keyItem(w, 123),
			g.keyOrder(w, 9, 1234),
			g.keyOrderLine(w, 9, 1234, 11),
			g.keyHistory(w, 777),
		}
		for i, k := range keys {
			if int(uint64(k)%uint64(p)) != w-1 {
				t.Errorf("key class %d of warehouse %d maps to partition %d, want %d", i, w, uint64(k)%uint64(p), w-1)
			}
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	// Keys must be unique within each table (tables are separate key
	// spaces).
	g := MustNew(testConfig(2))
	perTable := map[string]map[storage.Key]bool{}
	check := func(table string, k storage.Key) {
		t.Helper()
		m := perTable[table]
		if m == nil {
			m = make(map[storage.Key]bool)
			perTable[table] = m
		}
		if m[k] {
			t.Fatalf("key collision in %s: %d", table, k)
		}
		m[k] = true
	}
	for w := 1; w <= 2; w++ {
		for d := 1; d <= districtsPerWarehouse; d++ {
			check("district", g.keyDistrict(w, d))
			for c := 1; c <= 10; c++ {
				check("customer", g.keyCustomer(w, d, c))
			}
			for o := uint64(1); o <= 5; o++ {
				check("orders", g.keyOrder(w, d, o))
				for ol := 1; ol <= maxOrderLines; ol++ {
					check("orderline", g.keyOrderLine(w, d, o, ol))
				}
			}
		}
	}
}

func TestBatchDeterminism(t *testing.T) {
	g1 := MustNew(testConfig(2))
	g2 := MustNew(testConfig(2))
	b1 := g1.NextBatch(300)
	b2 := g2.NextBatch(300)
	if len(b1) != len(b2) {
		t.Fatalf("batch sizes differ: %d vs %d", len(b1), len(b2))
	}
	for i := range b1 {
		e1 := txn.AppendTxn(nil, b1[i])
		e2 := txn.AppendTxn(nil, b2[i])
		if string(e1) != string(e2) {
			t.Fatalf("txn %d differs between identically seeded generators", i)
		}
	}
}

func TestMixProportions(t *testing.T) {
	g := MustNew(testConfig(1))
	counts := map[uint8]int{}
	const n = 20000
	for _, tx := range g.NextBatch(n) {
		counts[tx.Profile]++
	}
	checks := []struct {
		profile uint8
		want    float64
		name    string
	}{
		{ProfileNewOrder, 0.45, "NewOrder"},
		{ProfilePayment, 0.43, "Payment"},
		{ProfileOrderStatus, 0.04, "OrderStatus"},
		{ProfileDelivery, 0.04, "Delivery"},
		{ProfileStockLevel, 0.04, "StockLevel"},
	}
	for _, c := range checks {
		got := float64(counts[c.profile]) / n
		if got < c.want-0.02 || got > c.want+0.02 {
			t.Errorf("%s fraction %.3f, want %.2f±0.02", c.name, got, c.want)
		}
	}
}

func TestNewOrderStructure(t *testing.T) {
	g := MustNew(testConfig(1))
	var no *txn.Txn
	for i := 0; i < 100 && no == nil; i++ {
		if tx := g.NextBatch(1)[0]; tx.Profile == ProfileNewOrder {
			no = tx
		}
	}
	if no == nil {
		t.Fatal("no NewOrder generated in 100 txns")
	}
	if err := txn.Validate(no); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// Abortable item reads must precede all writes (conservative rule).
	lastAbortable, firstWrite := -1, len(no.Frags)
	inserts := 0
	for i := range no.Frags {
		f := &no.Frags[i]
		if f.Abortable && i > lastAbortable {
			lastAbortable = i
		}
		if f.Access.IsWrite() && i < firstWrite {
			firstWrite = i
		}
		if f.Access == txn.Insert {
			inserts++
		}
	}
	if lastAbortable > firstWrite {
		t.Errorf("abortable fragment at %d after first write at %d", lastAbortable, firstWrite)
	}
	if inserts < 2+minOrderLines {
		t.Errorf("NewOrder has %d inserts, want >= %d (orders+neworder+lines)", inserts, 2+minOrderLines)
	}
}

func TestDeliveryEventuallyDelivers(t *testing.T) {
	g := MustNew(testConfig(1))
	// Generate several batches; later batches must contain real deliveries
	// (RMW on order lines), not just district reads.
	realDelivery := false
	for b := 0; b < 20 && !realDelivery; b++ {
		for _, tx := range g.NextBatch(200) {
			if tx.Profile == ProfileDelivery && len(tx.Frags) > 1 {
				realDelivery = true
				break
			}
		}
	}
	if !realDelivery {
		t.Error("no delivery transaction ever delivered an order")
	}
}

func TestStockLevelReadsEarlierBatchesOnly(t *testing.T) {
	g := MustNew(testConfig(1))
	g.NextBatch(500) // create some orders
	batch := g.NextBatch(500)
	for _, tx := range batch {
		if tx.Profile != ProfileStockLevel {
			continue
		}
		for i := range tx.Frags {
			if tx.Frags[i].Access.IsWrite() {
				t.Fatalf("stock-level txn contains a write fragment")
			}
		}
	}
}

// TestGenerationAllocsPerTxn pins the generator's hot-path allocation budget:
// with an arena, steady-state TPC-C generation must stay below 5 heap
// allocations per transaction (the ring-buffer shadow state replaced the
// ~20 allocs/txn the oid-keyed bookkeeping maps used to cost). Rings and
// scratch slices grow amortized, so a warmup drives them to steady state
// before measuring.
func TestGenerationAllocsPerTxn(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	g := MustNew(testConfig(2))
	arenas := [2]*txn.Arena{{}, {}}
	batch := 0
	gen := func() {
		a := arenas[batch%2]
		batch++
		a.Reset()
		g.SetArena(a)
		g.NextBatch(500)
	}
	for i := 0; i < 20; i++ { // warmup: rings, arenas and scratch reach size
		gen()
	}
	perBatch := testing.AllocsPerRun(10, gen)
	if perTxn := perBatch / 500; perTxn >= 5 {
		t.Errorf("TPC-C generation costs %.1f allocs/txn, want < 5", perTxn)
	}
}

// TestDeliveryFirstInStreamStampsDate pins delivery dates to a non-zero
// virtual timestamp. On these seeds a Delivery is the stream's first
// transaction; stamping it with the transaction counter (0 there) left its
// order lines looking undelivered and failed the consistency check.
func TestDeliveryFirstInStreamStampsDate(t *testing.T) {
	for _, seed := range []uint64{7, 22, 66} {
		cfg := testConfig(2)
		cfg.Seed = seed
		g := MustNew(cfg)
		s := loadStore(t, g)
		eng, err := core.New(s, core.Config{Planners: 1, Executors: 1})
		if err != nil {
			t.Fatal(err)
		}
		for b := 0; b < 3; b++ {
			if err := eng.ExecBatch(g.NextBatch(100)); err != nil {
				t.Fatal(err)
			}
		}
		eng.Close()
		if err := g.CheckConsistency(s); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
