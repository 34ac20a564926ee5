package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// TestInsertThenQueryMatchesBulk: incrementally inserting must give the
// same index behaviour as bulk building (the Table VI workload shape:
// bulk-load 90%, insert the rest).
func TestInsertThenQueryMatchesBulk(t *testing.T) {
	rnd := rand.New(rand.NewSource(71))
	rects := randRects(rnd, 1000, 0.08)
	split := 900

	bulk := Build(spatial.NewDataset(rects), Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}})

	incr := New(Options{NX: 16, NY: 16, Space: geom.Rect{MaxX: 1, MaxY: 1}})
	for i := 0; i < split; i++ {
		incr.Insert(spatial.Entry{Rect: rects[i], ID: spatial.ID(i)})
	}
	for i := split; i < len(rects); i++ {
		incr.Insert(spatial.Entry{Rect: rects[i], ID: spatial.ID(i)})
	}
	if incr.Len() != bulk.Len() {
		t.Fatalf("Len %d != %d", incr.Len(), bulk.Len())
	}
	for q := 0; q < 60; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, incr.WindowIDs(w, nil), bulk.WindowIDs(w, nil), "incremental vs bulk")
	}
}

// TestDeleteRemovesFromAllTiles: a deleted object must disappear from
// every query and every replica tile.
func TestDeleteRemovesFromAllTiles(t *testing.T) {
	rnd := rand.New(rand.NewSource(72))
	rects := randRects(rnd, 500, 0.15)
	ix := Build(spatial.NewDataset(rects), Options{NX: 8, NY: 8, Space: geom.Rect{MaxX: 1, MaxY: 1}})

	// Delete every third object.
	remaining := make([]spatial.Entry, 0, len(rects))
	for i, r := range rects {
		if i%3 == 0 {
			if !ix.Delete(spatial.ID(i), r) {
				t.Fatalf("Delete(%d) reported not found", i)
			}
		} else {
			remaining = append(remaining, spatial.Entry{Rect: r, ID: spatial.ID(i)})
		}
	}
	if ix.Len() != len(remaining) {
		t.Fatalf("Len after deletes = %d, want %d", ix.Len(), len(remaining))
	}
	for q := 0; q < 60; q++ {
		w := randWindow(rnd, 0.4)
		sameIDs(t, ix.WindowIDs(w, nil), spatial.BruteWindow(remaining, w), "after delete")
	}
	// No replica of a deleted object may remain anywhere.
	for _, tl := range ix.allTiles() {
		for c := ClassA; c <= ClassD; c++ {
			for _, e := range tl.classes[c] {
				if e.ID%3 == 0 {
					t.Fatalf("deleted object %d still stored", e.ID)
				}
			}
		}
	}
}

// TestDeleteMissing: deleting an absent object reports false and leaves
// the index intact, including the count pushdown's prefix table.
func TestDeleteMissing(t *testing.T) {
	rnd := rand.New(rand.NewSource(73))
	// Keep tile (3,3) of the 8x8 grid empty (with a margin): the prefix
	// table counts it as a fast tile, the per-tile fallback skips it.
	var rects []geom.Rect
	hole := geom.Rect{MinX: 0.37, MinY: 0.37, MaxX: 0.51, MaxY: 0.51}
	for _, r := range randRects(rnd, 200, 0.1) {
		if !r.Intersects(hole) && len(rects) < 100 {
			rects = append(rects, r)
		}
	}
	opts := Options{NX: 8, NY: 8, Space: unitSquare}
	ix := Build(spatial.NewDataset(rects), opts)
	before := ix.Len()
	table := ix.counts
	if table == nil {
		t.Fatal("Build left no prefix table")
	}
	if ix.Delete(9999, geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}) {
		t.Error("Delete of missing object reported true")
	}
	if ix.Len() != before {
		t.Error("Len changed on failed delete")
	}
	if ix.counts != table {
		t.Fatal("failed delete dropped the prefix table")
	}
	// Still used: a whole-space count does the same fast-path work as on
	// a fresh build of the same data, and gets the same answer.
	fresh := Build(spatial.NewDataset(rects), opts)
	fastTiles := func(ix *Index) (int, int64) {
		s0 := ix.QueryPathStats().FastTiles
		n := ix.WindowCountFast(everything())
		return n, ix.QueryPathStats().FastTiles - s0
	}
	gotN, gotFast := fastTiles(ix)
	wantN, wantFast := fastTiles(fresh)
	if gotN != len(rects) || wantN != len(rects) {
		t.Fatalf("whole-space count = %d (fresh %d), want %d", gotN, wantN, len(rects))
	}
	if gotFast != wantFast {
		t.Fatalf("count after failed delete answered %d tiles wholesale, fresh build %d: prefix table not used",
			gotFast, wantFast)
	}
}

// TestInsertDeleteChurn: random interleaving of inserts and deletes keeps
// the index consistent with a model map.
func TestInsertDeleteChurn(t *testing.T) {
	rnd := rand.New(rand.NewSource(74))
	ix := New(Options{NX: 8, NY: 8})
	model := make(map[spatial.ID]geom.Rect)
	nextID := spatial.ID(0)

	for step := 0; step < 2000; step++ {
		if len(model) == 0 || rnd.Float64() < 0.6 {
			r := randRects(rnd, 1, 0.1)[0]
			ix.Insert(spatial.Entry{Rect: r, ID: nextID})
			model[nextID] = r
			nextID++
		} else {
			// Delete a pseudo-random existing object.
			for id, r := range model {
				if !ix.Delete(id, r) {
					t.Fatalf("Delete(%d) failed", id)
				}
				delete(model, id)
				break
			}
		}
	}
	if ix.Len() != len(model) {
		t.Fatalf("Len %d != model %d", ix.Len(), len(model))
	}
	entries := make([]spatial.Entry, 0, len(model))
	for id, r := range model {
		entries = append(entries, spatial.Entry{Rect: r, ID: id})
	}
	for q := 0; q < 40; q++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, ix.WindowIDs(w, nil), spatial.BruteWindow(entries, w), "churn")
	}
}

// TestInsertInvalidRectPanics: invalid rectangles fail loudly instead of
// being silently clamped into arbitrary tiles.
func TestInsertInvalidRectPanics(t *testing.T) {
	ix := New(Options{NX: 4, NY: 4})
	for _, r := range []geom.Rect{
		{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1},          // inverted
		{MinX: math.NaN(), MinY: 0, MaxX: 1, MaxY: 1}, // NaN
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Insert(%v) did not panic", r)
				}
			}()
			ix.Insert(spatial.Entry{Rect: r})
		}()
	}
}

// TestClassString covers the Stringer.
func TestClassString(t *testing.T) {
	if ClassA.String() != "A" || ClassB.String() != "B" || ClassC.String() != "C" ||
		ClassD.String() != "D" || Class(7).String() != "Class(7)" {
		t.Error("Class.String wrong")
	}
}
