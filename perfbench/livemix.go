package main

import (
	"net/http"
	"slices"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/server"
)

const (
	liveMixObjects = 200_000
	liveMixShards  = 2
	// liveMixWriteRate is the open-loop mutation rate, about a fifth of
	// what a closed-loop writer reaches beside a reader.
	liveMixWriteRate = 20.0
)

// liveMixPools and liveMixCopies set the reader's mix. It gives each
// class about the same share of the reader's time, so a change to any
// one of the three kernels moves the workload's figures. The shares by
// count are in inverse proportion to each class's p50 on this workload
// when the benchmark was added (window 31 µs, count 76 µs, kNN 9.4 ms):
// 304 windows and 124 counts per kNN request.
var liveMixPools = []poolSpec{
	{opWindow, 1024, 0.001},
	{opCount, 1024, 0.05},
	{opKNN, 256, 0},
}

// liveMixCopies is how many times the reader's deck holds each pooled
// query of a class.
var liveMixCopies = [numOps]int{opWindow: 76, opCount: 31, opKNN: 1}

// liveShardedMix serves a 2-shard live engine to one closed-loop reader
// while one writer sends mutations on a fixed schedule.
func liveShardedMix(cfg config) (*report, error) {
	rep := newReport()
	ds := datagen.RealLikeDataset(datagen.Roads, cfg.scaled(liveMixObjects), dataSeed)
	rects := make([]geom.Rect, ds.Len())
	for i, e := range ds.Entries {
		rects[i] = e.Rect
	}
	pools := buildPools(cfg, ds, ds.Entries, liveMixPools)

	// The writer's whole plan is fixed up front, so readers can tell a
	// concurrently inserted object from a wrong answer.
	replayN := max(cfg.scaled(replayPerClass), 4)
	order := zOrder(ds.Entries)
	plan := newWriterPlan(ds, order, cfg.seed*7, uint32(ds.Len()), 1)
	muts := make([]mutation, int(2*liveMixWriteRate*cfg.seconds)+16)
	inserted := map[uint32]geom.Rect{}
	for i := range muts {
		muts[i] = plan.next()
		plan.ack(muts[i])
		if muts[i].op == opInsert {
			inserted[muts[i].id] = muts[i].rect
		}
	}
	for _, op := range []opKind{opWindow, opCount} {
		for i := range pools[op] {
			q := &pools[op][i]
			for _, r := range inserted {
				if r.Intersects(*q.q.Window) {
					q.extra++
				}
			}
		}
	}
	mbr := func(id uint32) (geom.Rect, bool) {
		if int(id) < ds.Len() {
			return ds.Entries[id].Rect, true
		}
		r, ok := inserted[id]
		return r, ok
	}
	check := func(c *client, q *query) func([]byte) (int, string) {
		return func(b []byte) (int, string) {
			switch q.op {
			case opCount:
				return checkCountRange(b, q.want.n, q.want.n+q.extra)
			case opKNN:
				return checkKNN(b, q.center, q.want.dists, mbr, true, &c.nbs)
			}
			return checkLiveRange(b, q, ds.Len(), inserted, &c.ids)
		}
	}

	heap0 := heapAfterGC()
	var sl *twolayer.ShardedLive
	var h http.Handler
	setup, err := timedSetup(25, func() (func(), error) {
		start := time.Now()
		sh := twolayer.BuildShardedRects(rects, baseOptions, twolayer.ShardedOptions{Shards: liveMixShards})
		sl = twolayer.ShardedLiveFrom(sh, twolayer.LiveOptions{})
		sc := serverConfig()
		sc.ShardedLive = sl
		sc.BuildDuration = time.Since(start)
		h = server.New(sc).Handler()
		return sl.Close, nil
	})
	if err != nil {
		return nil, err
	}
	defer sl.Close()
	rep.vals["setup_s"] = setup
	rep.vals["heap_bytes_per_object"] = float64(heapAfterGC()-heap0) / float64(ds.Len())

	// acked records what the engine acknowledged; its own inserts (for
	// the replay) take IDs above the plan's.
	acked := newWriterPlan(ds, order, cfg.seed*7+1, uint32(ds.Len()+len(muts)), 1)
	next := 0
	requests := deck(pools, liveMixCopies, cfg.seed)
	spec := phaseSpec{
		clients: 1,
		step: func(c *client) {
			q := c.next(requests, 1)
			c.do(q.op, q.path, q.body[btoi(c.traced)], time.Time{}, check(c, q))
		},
		rate: liveMixWriteRate,
		open: func(c *client, due time.Time) {
			if next == len(muts) {
				return
			}
			m := muts[next]
			next++
			if c.do(m.op, m.path(), m.body(), due, m.check) {
				acked.ack(m)
			}
		},
	}
	eng := func() engSnap {
		return engSnap{path: sl.Snapshot().QueryPathStats(), live: sl.Stats(), shard: sl.ShardStats()}
	}

	un := runPhase(cfg, h, eng, false, cfg.phaseLen(), spec)
	tally(rep, un)
	classMetrics(rep, un, true, cfg.phaseLen())
	if cfg.trace {
		counterMetrics(rep, un)
		tr := runPhase(cfg, h, eng, true, cfg.phaseLen(), spec)
		tally(rep, tr)
		traceMetrics(rep, tr)
		rep.vals["trace.overhead_frac"] = ratio(primaryOps(tr, true), primaryOps(un, true))
		if _, err := writeSpans(cfg, tr.all()); err != nil {
			return nil, err
		}
		snap := func() searcher { return sl.Snapshot() }
		reads := readReplay(pools, snap, check)
		served, direct := slices.Clone(reads), slices.Clone(reads)
		for i := 0; i < replayN; i++ {
			served = append(served, insertStep(acked, sl))
			direct = append(direct, insertStep(acked, sl))
		}
		directNS := replay(rep, h, served, direct)
		publishAlloc(rep, acked, sl, sl.Stats)
		s := sl.Snapshot()
		directMetrics(rep, pools, s, directNS)
		knn := sample(pools[opKNN])
		_, bytes := perCall(len(knn), func(i int) { s.KNN(knn[i].center, knnK) })
		rep.vals["knn.alloc_bytes_per_query"] = bytes
		rep.vals["shard.merge_us"] = mergeTime(s, pools) / 1e3
	}

	want := liveSet(ds.Entries, acked)
	if cfg.corrupt {
		delete(want, 0)
	}
	checkObjectSet(rep, sl.Snapshot(), want, "live engine after the run")
	var ws []geom.Rect
	for _, q := range pools[opCount] {
		ws = append(ws, *q.q.Window)
	}
	checkCounts(rep, h, want, ws)
	return rep, nil
}

// mergeTime is the median, over the pooled reads, of a sharded call's
// wall time minus its longest per-shard span: the scatter-gather
// overhead outside the shards' own scans, in ns.
func mergeTime(s *twolayer.Sharded, pools [numOps][]query) float64 {
	var out []float64
	var buf []hit
	for op := opWindow; op <= opCount; op++ {
		qs := sample(pools[op])
		for i := range qs {
			v := s.Traced()
			start := time.Now()
			directCall(v, &qs[i], &buf)
			el := float64(time.Since(start))
			longest := int64(0)
			for _, sp := range v.Spans {
				longest = max(longest, sp.ElapsedUS)
			}
			if len(v.Spans) > 0 {
				out = append(out, el-float64(longest)*1e3)
			}
		}
	}
	return medianF(out)
}
