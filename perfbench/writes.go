package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/server"
)

// writeDurableObjects and writeDurableGrid size the durable store.
const (
	writeDurableObjects = 200_000
	writeDurableGrid    = 512
)

// writeDurable serves a durable live index to closed-loop writers (one
// per CPU, at most two) sending single inserts and deletes, then times
// the reopen of the store and checks that it recovered exactly the
// acknowledged objects.
func writeDurable(cfg config) (*report, error) {
	rep := newReport()
	ds := datagen.RealLikeDataset(datagen.Roads, cfg.scaled(writeDurableObjects), dataSeed)
	rects := make([]geom.Rect, ds.Len())
	for i, e := range ds.Entries {
		rects[i] = e.Rect
	}
	opts := baseOptions
	opts.GridSize = writeDurableGrid
	tmpRoot := filepath.Join(cfg.workDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(tmpRoot, "write_durable-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	durOpts := func(dir string, seed *twolayer.Index) twolayer.DurableOptions {
		return twolayer.DurableOptions{
			Dir: dir, Fsync: twolayer.SyncInterval, FsyncInterval: fsyncInterval,
			Seed: seed, Logger: serverConfig().Logger,
		}
	}

	heap0 := heapAfterGC()
	var dl *twolayer.DurableLive
	var dir string
	var h http.Handler
	setup, err := timedSetup(21, func() (func(), error) {
		var err error
		if dir, err = os.MkdirTemp(tmp, "store-"); err != nil {
			return nil, err
		}
		seed := twolayer.BuildRects(rects, opts)
		if dl, _, err = twolayer.OpenDurable(opts, twolayer.LiveOptions{}, durOpts(dir, seed)); err != nil {
			return nil, err
		}
		sc := serverConfig()
		sc.Durable = dl
		h = server.New(sc).Handler()
		d, old := dir, dl
		return func() { old.Close(); os.RemoveAll(d) }, nil
	})
	if err != nil {
		return nil, err
	}
	rep.vals["setup_s"] = setup
	rep.vals["heap_bytes_per_object"] = float64(heapAfterGC()-heap0) / float64(ds.Len())

	// Plans 0 and 1 feed the closed-loop writers; plan 2 feeds the
	// replay and the publish measurement. IDs interleave above the
	// seed's.
	first := uint32(ds.Len())
	order := zOrder(ds.Entries)
	plans := make([]*writerPlan, 3)
	for i := range plans {
		plans[i] = newWriterPlan(ds, order, cfg.seed*7+int64(i), first+uint32(i), 3)
	}
	spec := phaseSpec{clients: closedClients(), step: func(c *client) {
		w := plans[c.id]
		m := w.next()
		if c.do(m.op, m.path(), m.body(), time.Time{}, m.check) {
			w.ack(m)
		}
	}}
	eng := func() engSnap { return engSnap{live: dl.Live().Stats(), dur: dl.Stats()} }

	un := runPhase(cfg, h, eng, false, cfg.phaseLen(), spec)
	tally(rep, un)
	classMetrics(rep, un, false, cfg.phaseLen())
	if cfg.trace {
		counterMetrics(rep, un)
		tr := runPhase(cfg, h, eng, true, cfg.phaseLen(), spec)
		tally(rep, tr)
		rep.vals["trace.overhead_frac"] = ratio(primaryOps(tr, false), primaryOps(un, false))
		if _, err := writeSpans(cfg, tr.all()); err != nil {
			return nil, err
		}
		// Replay inserts only: /v1/insert against Live.Insert, each pair
		// inserting two fresh objects.
		var served, direct []replayStep
		for i := 0; i < max(cfg.scaled(replayPerClass), 4); i++ {
			served = append(served, insertStep(plans[2], dl.Live()))
			direct = append(direct, insertStep(plans[2], dl.Live()))
		}
		replay(rep, h, served, direct)
		publishAlloc(rep, plans[2], dl.Live(), dl.Live().Stats)
	}

	if err := dl.Close(); err != nil {
		return nil, fmt.Errorf("closing the durable store: %w", err)
	}
	start := time.Now()
	re, info, err := twolayer.OpenDurable(opts, twolayer.LiveOptions{}, durOpts(dir, nil))
	if err != nil {
		return nil, fmt.Errorf("reopening the durable store: %w", err)
	}
	rep.vals["wal.recovery_s"] = time.Since(start).Seconds()
	rep.vals["wal.replayed_records"] = float64(info.ReplayedRecords)
	defer re.Close()

	want := liveSet(ds.Entries, plans...)
	if cfg.corrupt {
		delete(want, 0)
	}
	checkObjectSet(rep, re.Snapshot(), want, "recovered store")
	sc := serverConfig()
	sc.Durable = re
	h2 := server.New(sc).Handler()
	ws := datagen.Windows(ds, datagen.QuerySpec{N: max(cfg.scaled(64), 4), RelExtent: 0.01, Seed: cfg.seed*31 + 99})
	checkCounts(rep, h2, want, ws)

	var rec recorder
	rec.reset()
	start = time.Now()
	h2.ServeHTTP(&rec, newRequest(http.MethodPost, "/v1/checkpoint", nil))
	rep.vals["wal.checkpoint_s"] = time.Since(start).Seconds()
	rep.check(rec.code == http.StatusOK, fmt.Sprintf("checkpoint: status %d", rec.code))
	return rep, nil
}
