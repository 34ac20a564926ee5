package main

import (
	"net/http"
	"runtime"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/server"
)

// readMixObjects is EXPERIMENTS.md's ROADS scale.
const readMixObjects = 1_000_000

// readMixPools sizes the query pools, and so the request mix by count:
// 50% window, 15% disk, 10% exact, 10% count, 10% kNN, 5% wide. The
// extents are per-dimension fractions of the data space (0.1% is the
// paper's default query).
var readMixPools = []poolSpec{
	{opWindow, 1000, 0.001},
	{opWide, 100, 0.01},
	{opExact, 200, 0.001},
	{opDisk, 300, 0.001},
	{opKNN, 200, 0},
	{opCount, 200, 0.05},
}

// closedClients is the closed-loop client count of read_mix and
// write_durable: one per CPU, at most 2.
func closedClients() int { return min(2, runtime.NumCPU()) }

// checkStatic verifies a read response on a static index exactly; mbr
// looks up an object's MBR for the kNN distance check.
func checkStatic(c *client, q *query, mbr func(uint32) (geom.Rect, bool)) func([]byte) (int, string) {
	return func(b []byte) (int, string) {
		switch q.op {
		case opCount:
			return checkCountRange(b, q.want.n, q.want.n)
		case opKNN:
			return checkKNN(b, q.center, q.want.dists, mbr, false, &c.nbs)
		}
		return checkStaticRange(b, q.want, &c.ids)
	}
}

// readMix serves 1M ROADS-like linestrings with exact geometries from a
// static index to closed-loop clients running the full read mix.
func readMix(cfg config) (*report, error) {
	rep := newReport()
	ds := datagen.RealLikeDataset(datagen.Roads, cfg.scaled(readMixObjects), dataSeed)
	pools := buildPools(cfg, ds, ds.Entries, readMixPools)
	mbr := func(id uint32) (geom.Rect, bool) {
		if int(id) < ds.Len() {
			return ds.Entries[id].Rect, true
		}
		return geom.Rect{}, false
	}
	check := func(c *client, q *query) func([]byte) (int, string) { return checkStatic(c, q, mbr) }

	heap0 := heapAfterGC()
	var idx *twolayer.Index
	var h http.Handler
	setup, err := timedSetup(9, func() (func(), error) {
		start := time.Now()
		idx = twolayer.BuildGeoms(ds.Geoms, baseOptions)
		sc := serverConfig()
		sc.Index = idx
		sc.BuildDuration = time.Since(start)
		h = server.New(sc).Handler()
		return func() { idx, h = nil, nil }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.vals["setup_s"] = setup
	rep.vals["heap_bytes_per_object"] = float64(heapAfterGC()-heap0) / float64(ds.Len())

	requests := deck(pools, [numOps]int{}, cfg.seed)
	spec := phaseSpec{clients: closedClients(), step: func(c *client) {
		q := c.next(requests, closedClients())
		c.do(q.op, q.path, q.body[btoi(c.traced)], time.Time{}, check(c, q))
	}}
	eng := func() engSnap { return engSnap{path: idx.QueryPathStats()} }

	un := runPhase(cfg, h, eng, false, cfg.phaseLen(), spec)
	tally(rep, un)
	classMetrics(rep, un, true, cfg.phaseLen())
	if !cfg.trace {
		return rep, nil
	}
	counterMetrics(rep, un)
	tr := runPhase(cfg, h, eng, true, cfg.phaseLen(), spec)
	tally(rep, tr)
	traceMetrics(rep, tr)
	rep.vals["trace.overhead_frac"] = ratio(primaryOps(tr, true), primaryOps(un, true))
	if _, err := writeSpans(cfg, tr.all()); err != nil {
		return nil, err
	}

	// The server answers each request on a fresh instrumented view; so do
	// the direct calls.
	view := func() searcher { v, _ := idx.Instrumented(); return v }
	steps := readReplay(pools, view, check)
	directNS := replay(rep, h, steps, steps)
	directMetrics(rep, pools, idx, directNS)
	knn := sample(pools[opKNN])
	_, bytes := perCall(len(knn), func(i int) { idx.ReadView().KNN(knn[i].center, knnK) })
	rep.vals["knn.alloc_bytes_per_query"] = bytes
	return rep, nil
}
