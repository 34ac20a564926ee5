package core

import (
	"sync"
	"sync/atomic"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// This file implements intra-query parallelism. The paper observes
// (Section IV-D) that "the operations at each tile are totally
// independent to each other and they can be parallelized without the
// need of any synchronization"; for large windows the tile rows of the
// cover are distributed over workers.

// WindowParallel evaluates one window query with the cover's tile rows
// spread across threads. fn must be safe for concurrent invocation.
// threads <= 0 uses all cores; small covers fall back to the serial path
// (parallelism cannot pay for goroutine startup on a handful of tiles).
func (ix *Index) WindowParallel(w geom.Rect, threads int, fn func(e spatial.Entry)) {
	if !w.Valid() {
		return
	}
	if threads <= 0 {
		threads = defaultThreads()
	}
	ix0, iy0, ix1, iy1 := ix.g.CoverRect(w)
	rows := iy1 - iy0 + 1
	if threads == 1 || rows < 2 {
		ix.Window(w, fn)
		return
	}
	if threads > rows {
		threads = rows
	}
	var next int64 = int64(iy0) - 1
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				ty := int(atomic.AddInt64(&next, 1))
				if ty > iy1 {
					return
				}
				for tx := ix0; tx <= ix1; tx++ {
					t := ix.tileAt(tx, ty)
					if t == nil {
						continue
					}
					ix.windowOnTile(t, tx, ty, ix0, iy0, w, fn)
				}
			}
		}()
	}
	wg.Wait()
}

// WindowParallelCount counts results with intra-query parallelism.
func (ix *Index) WindowParallelCount(w geom.Rect, threads int) int {
	var n int64
	ix.WindowParallel(w, threads, func(spatial.Entry) { atomic.AddInt64(&n, 1) })
	return int(n)
}

// JoinParallel runs the spatial join with common tiles distributed over
// threads. fn must be safe for concurrent invocation. threads <= 0 uses
// all cores.
func (ix *Index) JoinParallel(other *Index, threads int, fn func(r, s spatial.Entry)) {
	if threads <= 0 {
		threads = defaultThreads()
	}
	if threads == 1 {
		ix.Join(other, fn)
		return
	}
	checkJoinable(ix, other)
	type task struct {
		tR, tS *tile
	}
	var tasks []task
	for tid, tR := range ix.allTiles() {
		tx, ty := ix.g.TileCoords(int(tid))
		if tS := other.tileAt(tx, ty); tS != nil {
			tasks = append(tasks, task{tR: tR, tS: tS})
		}
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := atomic.AddInt64(&next, 1)
				if i >= int64(len(tasks)) {
					return
				}
				joinTile(tasks[i].tR, tasks[i].tS, fn)
			}
		}()
	}
	wg.Wait()
}

// JoinParallelCount counts join pairs with tile-level parallelism.
func (ix *Index) JoinParallelCount(other *Index, threads int) int {
	var n int64
	ix.JoinParallel(other, threads, func(_, _ spatial.Entry) { atomic.AddInt64(&n, 1) })
	return int(n)
}
