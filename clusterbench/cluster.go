package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"paw/internal/blockstore"
	"paw/internal/colstore"
	"paw/internal/core"
	"paw/internal/dataset"
	"paw/internal/dist"
	"paw/internal/geom"
	"paw/internal/layout"
	"paw/internal/obs"
	"paw/internal/placement"
	"paw/internal/router"
	"paw/internal/workload"
)

// groupRows is the row-group size of the materialised partitions.
const groupRows = colstore.DefaultGroupRows

// setupTimes are the wall times of the public set-up calls.
type setupTimes struct {
	gen, build, materialize, start time.Duration
}

// cluster is one workload's data, layout and running in-process cluster.
type cluster struct {
	data   *dataset.Dataset
	hist   workload.Workload
	delta  float64
	layout *layout.Layout
	store  *blockstore.Store
	place  placement.Assignment

	workers   []*dist.Worker
	addrs     []string
	workerReg *obs.Registry
	master    *dist.Master
	masterReg *obs.Registry
	clients   []*dist.MuxClient
	times     setupTimes
}

// makeData generates the workload's table, normalized to [0,1] per
// dimension so δ and γ are fractions of every dimension's length.
func makeData(kind string, rows int) *dataset.Dataset {
	if kind == "osm" {
		return dataset.OSMLike(rows, 12, dataSeed).Normalize()
	}
	return dataset.TPCHLike(rows, dataSeed).Project(4).Normalize()
}

// makeHist generates the fixed historical workload QH the layout is built
// for.
func makeHist(kind string, domain geom.Box) workload.Workload {
	p := workload.Defaults(histQueries, histSeed)
	if kind == "osm" {
		p.MaxRangeFrac = 0.30
		return workload.Skewed(domain, p)
	}
	return workload.Uniform(domain, p)
}

// startCluster generates the data, builds and materialises the layout,
// starts the workers and the master and dials the clients. The caller
// closes the cluster.
func startCluster(kind string, rows int) (*cluster, error) {
	c := &cluster{}
	t0 := time.Now()
	c.data = makeData(kind, rows)
	c.times.gen = time.Since(t0)

	// The paper's protocol: build on a 10% sample with bmin set so the
	// table spans about 600 minimum-size partitions.
	t0 = time.Now()
	domain := c.data.Domain()
	c.hist = makeHist(kind, domain)
	c.delta = deltaFrac * (domain.Hi[0] - domain.Lo[0])
	sample := rows / 10
	minRows := sample / 600
	if minRows < 2 {
		minRows = 2
	}
	c.layout = core.Build(c.data, c.data.Sample(sample, dataSeed+1), domain, c.hist,
		core.Params{MinRows: minRows, Delta: c.delta})
	c.times.build = time.Since(t0)

	t0 = time.Now()
	c.store = blockstore.Materialize(c.layout, c.data, blockstore.Config{GroupRows: groupRows})
	c.times.materialize = time.Since(t0)

	t0 = time.Now()
	if err := c.start(); err != nil {
		c.close()
		return nil, err
	}
	c.times.start = time.Since(t0)
	return c, nil
}

// start launches the workers and the master and dials the clients.
func (c *cluster) start() error {
	c.place = placement.RoundRobin(c.layout, numWorkers)
	perWorker := make([][]layout.ID, numWorkers)
	for id, w := range c.place {
		perWorker[w] = append(perWorker[w], id)
	}
	c.workerReg = obs.New()
	for w := 0; w < numWorkers; w++ {
		sort.Slice(perWorker[w], func(i, j int) bool { return perWorker[w][i] < perWorker[w][j] })
		wk := dist.NewWorker(c.store, perWorker[w])
		wk.SetMetrics(c.workerReg)
		addr, err := wk.Start("127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("start worker %d: %w", w, err)
		}
		c.workers = append(c.workers, wk)
		c.addrs = append(c.addrs, addr)
	}
	m, reg, err := c.newMaster()
	if err != nil {
		return err
	}
	c.master, c.masterReg = m, reg
	addr, err := m.Start("127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("start master: %w", err)
	}
	for i := 0; i < numClients; i++ {
		cl, err := dist.DialMux(addr)
		if err != nil {
			return fmt.Errorf("dial master: %w", err)
		}
		c.clients = append(c.clients, cl)
	}
	return nil
}

// newMaster builds a master over the running workers with the default
// configuration and its own metrics registry. It is not started: the
// traced pass queries a second one in-process.
func (c *cluster) newMaster() (*dist.Master, *obs.Registry, error) {
	rm, err := router.NewMaster(c.layout, c.data.Names())
	if err != nil {
		return nil, nil, fmt.Errorf("router: %w", err)
	}
	m, err := dist.NewMaster(rm, c.addrs, c.place)
	if err != nil {
		return nil, nil, fmt.Errorf("master: %w", err)
	}
	m.Configure(dist.DefaultConfig())
	reg := obs.New()
	m.SetMetrics(reg)
	return m, reg, nil
}

// workerCallTimers returns the master's per-worker call timers.
func workerCallTimers(reg *obs.Registry) []*obs.Timer {
	ts := make([]*obs.Timer, numWorkers)
	for i := range ts {
		ts[i] = reg.Timer(obs.Label(dist.MetricWorkerCallNs, "worker", strconv.Itoa(i)))
	}
	return ts
}

// close stops the clients, the master and the workers, in that order.
func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	if c.master != nil {
		c.master.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
}
