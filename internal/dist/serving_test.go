package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paw/internal/blockstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/serve"
	"paw/internal/workload"
)

// servingFixture is a worker fleet shared by one or more masters, so the
// differential tests can point a binary-transport master and a gob-transport
// master at the exact same data.
type servingFixture struct {
	data    *dataset.Dataset
	layout  *layout.Layout
	store   *blockstore.Store
	place   map[layout.ID]int
	addrs   []string
	workers []*Worker
}

func startServingWorkers(t *testing.T, nWorkers int) *servingFixture {
	t.Helper()
	data := dataset.TPCHLike(12000, 1)
	dom := data.Domain()
	hist := workload.Uniform(dom, workload.Defaults(25, 2))
	l := core.Build(data, data.Sample(1500, 3), dom, hist, core.Params{MinRows: 5})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
	place := placement.RoundRobin(l, nWorkers)
	perWorker := make([][]layout.ID, nWorkers)
	for id, w := range place {
		perWorker[w] = append(perWorker[w], id)
	}
	f := &servingFixture{data: data, layout: l, store: store, place: place}
	for w := 0; w < nWorkers; w++ {
		wk := NewWorker(store, perWorker[w])
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		f.workers = append(f.workers, wk)
		f.addrs = append(f.addrs, addr)
	}
	t.Cleanup(func() {
		for _, wk := range f.workers {
			wk.Close()
		}
	})
	return f
}

// startServingMaster wires a master over the fixture's workers with the
// given transport and serving config, starts its client listener, and
// registers cleanup.
func (f *servingFixture) startServingMaster(t *testing.T, cfg Config) (*Master, string) {
	t.Helper()
	rm, err := router.NewMaster(f.layout, f.data.Names())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(rm, f.addrs, f.place)
	if err != nil {
		t.Fatal(err)
	}
	m.Configure(cfg)
	addr, err := m.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, addr
}

// servingTestConfig is fastChaosConfig plus explicit serving knobs; caches
// stay off so every query exercises the full scatter path.
func servingTestConfig(transport Transport) Config {
	cfg := fastChaosConfig(1)
	cfg.Transport = transport
	return cfg
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var servingStatements = []string{
	"SELECT * FROM t WHERE l_quantity >= 10 AND l_quantity <= 20",
	"SELECT * FROM t WHERE l_shipdate BETWEEN 100 AND 800",
	"SELECT * FROM t WHERE l_quantity <= 5 OR l_quantity >= 45",
	"SELECT * FROM t",
}

// TestDifferentialBinaryVsGob is the acceptance oracle for the binary
// protocol: a binary-transport master serving a MuxClient and a gob-
// transport master serving a legacy Client — over the very same workers and
// data — must return byte-identical query results for clean queries, SQL
// failures, and partial results with a dead worker.
func TestDifferentialBinaryVsGob(t *testing.T) {
	f := startServingWorkers(t, 3)
	_, binAddr := f.startServingMaster(t, servingTestConfig(TransportBinary))
	_, gobAddr := f.startServingMaster(t, servingTestConfig(TransportGob))

	binCl, err := DialMux(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer binCl.Close()
	gobCl, err := Dial(gobAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer gobCl.Close()

	for _, sql := range servingStatements {
		bresp, berr := binCl.Query(sql)
		gresp, gerr := gobCl.Query(sql)
		if berr != nil || gerr != nil {
			t.Fatalf("%q: binary err=%v, gob err=%v", sql, berr, gerr)
		}
		if !bytes.Equal(gobBytes(t, bresp), gobBytes(t, gresp)) {
			t.Errorf("%q: responses differ:\n  binary: %+v\n  gob:    %+v", sql, bresp, gresp)
		}
		if bresp.Rows == 0 && sql == "SELECT * FROM t" {
			t.Errorf("%q: zero rows", sql)
		}
	}

	// Failure case: an invalid statement must produce the identical error
	// text through both protocol stacks.
	const badSQL = "SELECT * FROM t WHERE nosuchcol >= 1"
	_, berr := binCl.Query(badSQL)
	_, gerr := gobCl.Query(badSQL)
	if berr == nil || gerr == nil {
		t.Fatalf("bad SQL: binary err=%v, gob err=%v", berr, gerr)
	}
	if berr.Error() != gerr.Error() {
		t.Errorf("error text differs:\n  binary: %v\n  gob:    %v", berr, gerr)
	}

	// Partial-results case: kill one worker (no replicas); both stacks must
	// report the identical surviving aggregate and failed-partition list.
	f.workers[1].Close()
	binCl.SetAllowPartial(true)
	gobCl.SetAllowPartial(true)
	const sql = "SELECT * FROM t"
	bresp, berr := binCl.Query(sql)
	gresp, gerr := gobCl.Query(sql)
	if berr != nil || gerr != nil {
		t.Fatalf("partial: binary err=%v, gob err=%v", berr, gerr)
	}
	if !bresp.Partial || len(bresp.FailedPartitions) == 0 {
		t.Fatalf("partial: binary response not partial: %+v", bresp)
	}
	if !bytes.Equal(gobBytes(t, bresp), gobBytes(t, gresp)) {
		t.Errorf("partial responses differ:\n  binary: %+v\n  gob:    %+v", bresp, gresp)
	}
}

// TestGobCleanExpiryKeepsConnection is the regression test for the legacy
// transport's connection churn: a call whose deadline expires while queued
// behind another exchange on the connection mutex never touched the stream,
// so the master must keep the connection — no redial — and the next query
// must reuse it.
func TestGobCleanExpiryKeepsConnection(t *testing.T) {
	f := startServingWorkers(t, 1)
	cfg := servingTestConfig(TransportGob)
	cfg.QueryTimeout = 0
	m, _ := f.startServingMaster(t, cfg)
	reg := obs.New()
	m.SetMetrics(reg)

	if _, err := m.Query(servingStatements[0]); err != nil {
		t.Fatal(err) // establishes the worker connection
	}
	m.mu.Lock()
	link := m.links[0].(*gobLink)
	m.mu.Unlock()

	// Simulate an exchange in flight: hold the connection mutex so the next
	// call queues on it past its deadline.
	link.c.mu.Lock()
	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		_, err := m.QueryContext(ctx, servingStatements[1])
		errc <- err
	}()
	time.Sleep(150 * time.Millisecond) // deadline passes while queued
	link.c.mu.Unlock()
	if err := <-errc; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query: err=%v, want deadline exceeded", err)
	}

	snap := reg.Snapshot()
	if got := snap.Counter(MetricRedials); got != 0 {
		t.Errorf("redials = %d, want 0 (clean expiry must keep the connection)", got)
	}
	if got := snap.Counter(MetricCleanExpiries); got < 1 {
		t.Errorf("clean expiries = %d, want >= 1", got)
	}

	// The kept connection serves the next query.
	if _, err := m.Query(servingStatements[2]); err != nil {
		t.Fatalf("query after clean expiry: %v", err)
	}
	m.mu.Lock()
	same := m.links[0] == workerLink(link)
	m.mu.Unlock()
	if !same {
		t.Error("connection was replaced despite the clean expiry")
	}
	if got := reg.Snapshot().Counter(MetricRedials); got != 0 {
		t.Errorf("redials after reuse = %d, want 0", got)
	}
}

// TestMuxClientConcurrentCorrectness: N goroutine clients multiplexing mixed
// queries over binary connections must each get responses byte-identical to
// serial execution, and tearing everything down must return the process to
// its goroutine baseline.
func TestMuxClientConcurrentCorrectness(t *testing.T) {
	base := runtime.NumGoroutine()
	f := startServingWorkers(t, 3)
	m, addr := f.startServingMaster(t, servingTestConfig(TransportBinary))

	// Serial ground truth, computed on the master directly.
	want := make(map[string][]byte, len(servingStatements))
	for _, sql := range servingStatements {
		resp, err := m.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = gobBytes(t, resp)
	}

	const clients, rounds = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	closers := make([]*MuxClient, clients)
	for i := range closers {
		cl, err := DialMux(addr)
		if err != nil {
			t.Fatal(err)
		}
		closers[i] = cl
	}
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := closers[g]
			for i := 0; i < rounds; i++ {
				sql := servingStatements[(g+i)%len(servingStatements)]
				resp, err := cl.Query(sql)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", g, err)
					return
				}
				if !bytes.Equal(gobBytes(t, resp), want[sql]) {
					errs <- fmt.Errorf("client %d: %q diverged from serial execution: %+v", g, sql, resp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Leak check: clients, master and workers down -> goroutine baseline.
	for _, cl := range closers {
		cl.Close()
	}
	m.Close()
	for _, wk := range f.workers {
		wk.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base+2 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResultCacheHitMissInvalidate: repeated SQL hits the result cache, an
// invalidation empties it, and the cached response is identical to the
// recomputed one.
func TestResultCacheHitMissInvalidate(t *testing.T) {
	f := startServingWorkers(t, 2)
	cfg := servingTestConfig(TransportBinary)
	cfg.PlanCacheSize = 64
	cfg.ResultCacheSize = 64
	m, _ := f.startServingMaster(t, cfg)
	reg := obs.New()
	m.SetMetrics(reg)

	sql := servingStatements[0]
	first, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	second, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached response differs: %+v vs %+v", first, second)
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 1 {
		t.Errorf("result hits = %d, want 1", got)
	}
	if got := snap.Counter(MetricResultCacheMisses); got != 1 {
		t.Errorf("result misses = %d, want 1", got)
	}

	m.InvalidateCaches()
	third, err := m.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, third) {
		t.Fatalf("response after invalidation differs: %+v vs %+v", first, third)
	}
	snap = reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 1 {
		t.Errorf("result hits after invalidation = %d, want 1 (must recompute)", got)
	}
	if got := snap.Counter(MetricCacheInvalidations); got != 1 {
		t.Errorf("invalidations = %d, want 1", got)
	}
}

// TestPlanCacheServesRepeatedSQL: with the result cache off, repeated SQL
// still routes once — the descriptor cache serves the plan.
func TestPlanCacheServesRepeatedSQL(t *testing.T) {
	f := startServingWorkers(t, 2)
	cfg := servingTestConfig(TransportBinary)
	cfg.PlanCacheSize = 64
	cfg.ResultCacheSize = 0
	m, _ := f.startServingMaster(t, cfg)
	reg := obs.New()
	m.SetMetrics(reg)

	sql := servingStatements[1]
	for i := 0; i < 3; i++ {
		if _, err := m.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricPlanCacheMisses); got != 1 {
		t.Errorf("plan misses = %d, want 1", got)
	}
	if got := snap.Counter(MetricPlanCacheHits); got != 2 {
		t.Errorf("plan hits = %d, want 2", got)
	}
}

// TestPartialResultsNotCached: a partial response (dead worker, AllowPartial)
// must never be served from the result cache — each query re-scatters so a
// recovered worker is observed immediately.
func TestPartialResultsNotCached(t *testing.T) {
	f := startServingWorkers(t, 2)
	cfg := servingTestConfig(TransportBinary)
	cfg.ResultCacheSize = 64
	cfg.AllowPartial = true
	m, _ := f.startServingMaster(t, cfg)
	reg := obs.New()
	m.SetMetrics(reg)

	f.workers[0].Close()
	sql := "SELECT * FROM t"
	for i := 0; i < 2; i++ {
		resp, err := m.Query(sql)
		if err != nil {
			t.Fatalf("partial query %d: %v", i, err)
		}
		if !resp.Partial {
			t.Fatalf("query %d not partial: %+v", i, resp)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counter(MetricResultCacheHits); got != 0 {
		t.Errorf("result hits = %d, want 0 (partials are uncacheable)", got)
	}
	if got := snap.Counter(MetricResultCacheMisses); got != 2 {
		t.Errorf("result misses = %d, want 2", got)
	}
}

// TestWorkerScanSharing: concurrent identical scans on one worker coalesce
// into a single kernel pass whose stats fan out to every waiter.
func TestWorkerScanSharing(t *testing.T) {
	data := dataset.Uniform(6000, 2, 3)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 300})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
	ids := make([]layout.ID, 0, len(l.Parts))
	for _, p := range l.Parts {
		ids = append(ids, p.ID)
	}

	wk := NewWorker(store, ids)
	var kernelScans atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	wk.scanHook = func(layout.ID) {
		if kernelScans.Add(1) == 1 {
			close(started)
			<-release
		}
	}
	reg := obs.New()
	wk.SetMetrics(reg)
	addr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	link, err := dialMuxLink(context.Background(), time.Time{}, addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer link.close()

	req := ScanRequest{Query: data.Domain(), IDs: ids[:1]}
	const concurrent = 8
	var wg sync.WaitGroup
	resps := make([]ScanResponse, concurrent)
	errs := make([]error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			errs[i] = link.scan(context.Background(), time.Time{}, &r, &resps[i])
		}(i)
	}
	<-started
	// Give the remaining requests time to attach to the in-flight scan.
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(resps[i], resps[0]) {
			t.Fatalf("scan %d diverged: %+v vs %+v", i, resps[i], resps[0])
		}
	}
	if resps[0].Rows == 0 {
		t.Fatal("shared scan returned no rows")
	}
	if got := kernelScans.Load(); got != 1 {
		t.Fatalf("kernel scans = %d, want 1 (the rest must share)", got)
	}
	if got := reg.Snapshot().Counter(MetricWorkerSharedScans); got != concurrent-1 {
		t.Errorf("shared-scan counter = %d, want %d", got, concurrent-1)
	}
}

// TestAdmissionShedsOverWire: with the tier saturated and no queue space,
// a networked client's query is shed with the typed overload error, which
// survives the wire round trip as serve.ErrOverloaded.
func TestAdmissionShedsOverWire(t *testing.T) {
	data := dataset.Uniform(6000, 2, 3)
	rows := make([]int, data.NumRows())
	for i := range rows {
		rows[i] = i
	}
	hist := workload.Uniform(data.Domain(), workload.Defaults(10, 5))
	l := core.Build(data, rows, data.Domain(), hist, core.Params{MinRows: 300})
	store := blockstore.Materialize(l, data, blockstore.Config{GroupRows: 512})
	ids := make([]layout.ID, 0, len(l.Parts))
	for _, p := range l.Parts {
		ids = append(ids, p.ID)
	}
	wk := NewWorker(store, ids)
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	wk.scanHook = func(layout.ID) {
		once.Do(func() { close(started) })
		<-release
	}
	waddr, err := wk.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wk.Close()

	place := make(map[layout.ID]int, len(ids))
	for _, id := range ids {
		place[id] = 0
	}
	rm, err := router.NewMaster(l, data.Names())
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(rm, []string{waddr}, place)
	if err != nil {
		t.Fatal(err)
	}
	cfg := servingTestConfig(TransportBinary)
	cfg.MaxInflightQueries = 1
	m.Configure(cfg)
	m.admission = serve.NewAdmission(1, 0) // no queue: saturate -> shed
	reg := obs.New()
	m.SetMetrics(reg)
	maddr, err := m.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	hogDone := make(chan error, 1)
	go func() {
		_, err := m.Query("SELECT * FROM t")
		hogDone <- err
	}()
	<-started // the hog holds the only slot, blocked in its scan

	cl, err := DialMux(maddr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Query("SELECT * FROM t WHERE a0 >= 0")
	if !errors.Is(err, serve.ErrOverloaded) {
		t.Fatalf("saturated query: err=%v, want serve.ErrOverloaded", err)
	}
	if got := reg.Snapshot().Counter(MetricQueriesShed); got < 1 {
		t.Errorf("sheds = %d, want >= 1", got)
	}

	close(release)
	if err := <-hogDone; err != nil {
		t.Fatalf("hog query: %v", err)
	}
	// With the slot free the client is admitted again.
	if _, err := cl.Query("SELECT * FROM t"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
}
