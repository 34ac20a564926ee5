package core

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

var unitSquare = geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}

func everything() geom.Rect {
	return geom.Rect{MinX: -10, MinY: -10, MaxX: 10, MaxY: 10}
}

// TestCloneCOWIsolation: mutating a clone must not change the original,
// across inserts, deletes, and tiles shared between epochs. The paged
// input spans many tile pages and rebuilds the clone's decomposed tables:
// the original keeps its answers and its tables, pages the clone never
// touched stay shared by pointer, and every page it touched is a copy.
func TestCloneCOWIsolation(t *testing.T) {
	for _, tc := range []struct {
		name         string
		opts         Options
		n, del, ins  int
		side         float64
		expectShared bool
	}{
		{"flat", Options{NX: 32, NY: 32, Space: unitSquare}, 2000, 1000, 500, 0.05, false},
		{"paged", Options{NX: 256, NY: 256, Space: unitSquare, Decompose: true}, 4000, 40, 20, 0.01, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(7))
			ix, d := buildRandom(rnd, tc.n, tc.side, tc.opts)
			wantIDs := ix.WindowIDs(everything(), nil)
			wantDec := decTables(ix)

			cl := ix.CloneCOW()
			if cl.Epoch() != ix.Epoch()+1 {
				t.Fatalf("clone epoch = %d, want %d", cl.Epoch(), ix.Epoch()+1)
			}
			// Delete some objects and insert new ones through the clone.
			var touched []geom.Rect
			for id := 0; id < tc.del; id++ {
				if !cl.Delete(spatial.ID(id), d.Entries[id].Rect) {
					t.Fatalf("clone delete %d not found", id)
				}
				touched = append(touched, d.Entries[id].Rect)
			}
			for i := 0; i < tc.ins; i++ {
				r := randRects(rnd, 1, tc.side)[0]
				cl.Insert(spatial.Entry{ID: spatial.ID(5000 + i), Rect: r})
				touched = append(touched, r)
			}
			if tc.opts.Decompose {
				cl.BuildDecomposed()
			}

			// Original unchanged, exactly.
			sameIDs(t, ix.WindowIDs(everything(), nil), wantIDs, "original after clone mutation")
			if ix.Len() != tc.n {
				t.Fatalf("original Len = %d, want %d", ix.Len(), tc.n)
			}
			sameDec(t, ix, wantDec)
			// Clone holds the mutated object set.
			want := tc.n - tc.del + tc.ins
			if cl.Len() != want {
				t.Fatalf("clone Len = %d, want %d", cl.Len(), want)
			}
			got := cl.WindowIDs(everything(), nil)
			noDuplicates(t, got, "clone full scan")
			if len(got) != want {
				t.Fatalf("clone full scan returned %d, want %d", len(got), want)
			}
			if tc.opts.Decompose {
				for id, tl := range cl.allTiles() {
					if tl.dec == nil {
						t.Fatalf("clone tile %d has no decomposed tables after BuildDecomposed", id)
					}
				}
			}
			checkPageSharing(t, ix, cl, touched, tc.expectShared)
		})
	}
}

// TestCloneCOWNewTiles: populating previously empty tiles in a clone must
// not surface in the original (directory copy-on-write), for both dense
// and sparse directories. The 256x256 input fills a quadrant first, so
// the tile pool and the dense directory span many pages: the clone copies
// only the directory page and the tail tile page it writes.
func TestCloneCOWNewTiles(t *testing.T) {
	far := geom.Rect{MinX: 0.9, MinY: 0.9, MaxX: 0.92, MaxY: 0.92}
	for _, grid := range []int{16, 256} {
		for _, sparse := range []bool{false, true} {
			ix := New(Options{NX: grid, NY: grid, Space: unitSquare, SparseDirectory: sparse})
			ix.Insert(spatial.Entry{ID: 0, Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.12, MaxY: 0.12}})
			paged := grid > 16
			if paged {
				rnd := rand.New(rand.NewSource(11))
				for i, r := range randRects(rnd, 3000, 0.01) {
					r.MinX, r.MaxX = r.MinX*0.45, r.MaxX*0.45
					r.MinY, r.MaxY = r.MinY*0.45, r.MaxY*0.45
					ix.Insert(spatial.Entry{ID: spatial.ID(10 + i), Rect: r})
				}
				ix.BuildDecomposed()
			}
			n := ix.Len()
			wantDec := decTables(ix)
			cl := ix.CloneCOW()
			// Far corner: guaranteed new tiles.
			cl.Insert(spatial.Entry{ID: 1, Rect: far})
			if paged {
				cl.BuildDecomposed()
				sameDec(t, ix, wantDec)
				checkPageSharing(t, ix, cl, []geom.Rect{far}, true)
				if !sparse {
					checkDirSharing(t, ix, cl)
				}
			}
			if got := ix.WindowCount(everything()); got != n {
				t.Fatalf("grid=%d sparse=%v: original sees %d objects, want %d", grid, sparse, got, n)
			}
			if got := cl.WindowCount(everything()); got != n+1 {
				t.Fatalf("grid=%d sparse=%v: clone sees %d objects, want %d", grid, sparse, got, n+1)
			}
		}
	}
}

// decTables records each tile's decomposed-table pointer by tile ID.
func decTables(ix *Index) map[int32]*decTile {
	m := make(map[int32]*decTile)
	for id, tl := range ix.allTiles() {
		m[id] = tl.dec
	}
	return m
}

// sameDec fails unless ix still holds exactly the tiles and decomposed
// tables recorded by decTables.
func sameDec(t *testing.T, ix *Index, want map[int32]*decTile) {
	t.Helper()
	got := decTables(ix)
	if len(got) != len(want) {
		t.Fatalf("original has %d tiles, want %d", len(got), len(want))
	}
	for id, dec := range want {
		if got[id] != dec {
			t.Fatalf("original's decomposed tables of tile %d changed", id)
		}
	}
}

// checkPageSharing asserts that cl copied exactly the tile pages of orig
// that hold a tile some mutated rectangle covers (the tail page included,
// when new tiles landed in it), and shares every other page by pointer.
// With wantShared, at least one page must have stayed shared.
func checkPageSharing(t *testing.T, orig, cl *Index, touched []geom.Rect, wantShared bool) {
	t.Helper()
	dirty := make(map[int]bool)
	for _, r := range touched {
		ax, ay, bx, by := cl.g.CoverRect(r)
		for ty := ay; ty <= by; ty++ {
			for tx := ax; tx <= bx; tx++ {
				if slot := cl.slotAt(tx, ty); slot >= 0 {
					dirty[int(slot>>tilePageShift)] = true
				}
			}
		}
	}
	shared := 0
	for p := range orig.pages {
		switch {
		case dirty[p] && cl.pages[p] == orig.pages[p]:
			t.Fatalf("tile page %d holds a mutated tile but is shared with the original", p)
		case !dirty[p] && cl.pages[p] != orig.pages[p]:
			t.Fatalf("tile page %d was copied though the clone never touched it", p)
		case !dirty[p]:
			shared++
		}
	}
	if wantShared && shared == 0 {
		t.Fatalf("all %d tile pages copied; none left to share", len(orig.pages))
	}
}

// checkDirSharing asserts that cl copied exactly the dense directory
// pages holding a tile it created, and shares the rest by pointer.
func checkDirSharing(t *testing.T, orig, cl *Index) {
	t.Helper()
	dirty := make(map[int32]bool)
	for slot := int32(orig.ntiles); slot < int32(cl.ntiles); slot++ {
		_, id := cl.slotTile(slot)
		dirty[id>>dirPageShift] = true
	}
	if len(dirty) == 0 {
		t.Fatal("clone created no tiles")
	}
	for p := range orig.dense {
		if shared := cl.dense[p] == orig.dense[p]; shared == dirty[int32(p)] {
			t.Fatalf("directory page %d: shared=%v, written by the clone=%v", p, shared, dirty[int32(p)])
		}
	}
}

// TestLivePublishAllocFlat: the bytes a publish allocates track the tiles
// its batch touches, not the tiles in the index. The same objects on a
// 1024x1024 grid occupy about six times the tiles they do at 128x128,
// yet publishing one insert that touches a single existing tile may
// allocate at most twice as much there, and never more than 512 KiB.
func TestLivePublishAllocFlat(t *testing.T) {
	rects := randRects(rand.New(rand.NewSource(12)), 20_000, 0.002)
	publishBytes := func(grid int) (uint64, int) {
		ix := Build(spatial.NewDataset(rects), Options{NX: grid, NY: grid, Space: unitSquare})
		tiles := ix.ntiles
		l := NewLive(ix, LiveOptions{})
		defer l.Close()
		var samples []uint64
		var ms runtime.MemStats
		for i := 0; i < 9; i++ {
			// A speck inside one tile at both grids, so each publish
			// touches exactly one existing tile.
			x := 0.5003 + float64(i)*1e-6
			e := spatial.Entry{ID: spatial.ID(100_000 + i),
				Rect: geom.Rect{MinX: x, MinY: 0.5003, MaxX: x + 1e-7, MaxY: 0.5003 + 1e-7}}
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			if _, err := l.Insert(e); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			samples = append(samples, ms.TotalAlloc-before)
		}
		slices.Sort(samples)
		return samples[len(samples)/2], tiles
	}
	small, smallTiles := publishBytes(128)
	large, largeTiles := publishBytes(1024)
	t.Logf("publish alloc: %d B at 128² (%d tiles), %d B at 1024² (%d tiles)",
		small, smallTiles, large, largeTiles)
	if largeTiles < 5*smallTiles {
		t.Fatalf("1024² grid occupies %d tiles, 128² %d: input does not grow the index", largeTiles, smallTiles)
	}
	if large > 2*small {
		t.Errorf("publish allocates %d B at 1024², more than twice the %d B at 128²", large, small)
	}
	const limit = 512 << 10
	if large > limit {
		t.Errorf("publish allocates %d B at 1024², over the %d B cap", large, limit)
	}
}

// TestLiveBasic: inserts and deletes through Live become visible in
// snapshots with monotonically increasing epochs.
func TestLiveBasic(t *testing.T) {
	l := NewLive(New(Options{NX: 16, NY: 16, Space: unitSquare}), LiveOptions{})
	defer l.Close()

	s0 := l.Snapshot()
	if s0.Epoch() != 0 || s0.Len() != 0 {
		t.Fatalf("seed snapshot epoch=%d len=%d, want 0/0", s0.Epoch(), s0.Len())
	}
	r := geom.Rect{MinX: 0.4, MinY: 0.4, MaxX: 0.45, MaxY: 0.45}
	epoch, err := l.Insert(spatial.Entry{ID: 42, Rect: r})
	if err != nil {
		t.Fatal(err)
	}
	if epoch == 0 {
		t.Fatal("insert published at epoch 0")
	}
	// Read-your-writes: the ack implies visibility.
	if n := l.Snapshot().WindowCount(everything()); n != 1 {
		t.Fatalf("after insert: %d objects, want 1", n)
	}
	// Old pinned snapshot still sees nothing.
	if n := s0.WindowCount(everything()); n != 0 {
		t.Fatalf("pinned snapshot sees %d objects, want 0", n)
	}

	found, epoch2, err := l.Delete(42, r)
	if err != nil || !found {
		t.Fatalf("delete: found=%v err=%v", found, err)
	}
	if epoch2 <= epoch {
		t.Fatalf("delete epoch %d not after insert epoch %d", epoch2, epoch)
	}
	if found, _, _ := l.Delete(42, r); found {
		t.Fatal("second delete reported found")
	}
	if n := l.Snapshot().Len(); n != 0 {
		t.Fatalf("after delete: Len=%d, want 0", n)
	}

	st := l.Stats()
	if st.Applied != 3 || st.Publishes == 0 || st.Pending != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestLiveApplyBatch: a batch is all-or-nothing visible and reports
// per-mutation delete outcomes.
func TestLiveApplyBatch(t *testing.T) {
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{})
	defer l.Close()

	r1 := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	r2 := geom.Rect{MinX: 0.6, MinY: 0.6, MaxX: 0.7, MaxY: 0.7}
	res, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 1, Rect: r1}},
		{Entry: spatial.Entry{ID: 2, Rect: r2}},
		{Delete: true, Entry: spatial.Entry{ID: 1, Rect: r1}},
		{Delete: true, Entry: spatial.Entry{ID: 9, Rect: r2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, true, true, false}
	for i, f := range res.Found {
		if f != want[i] {
			t.Fatalf("Found[%d] = %v, want %v", i, f, want[i])
		}
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}

	// Invalid rects are rejected up front, applying nothing.
	if _, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 3, Rect: geom.Rect{MinX: 1, MinY: 0, MaxX: 0, MaxY: 1}}},
	}); err == nil {
		t.Fatal("invalid rect accepted")
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("Len after rejected batch = %d, want 1", n)
	}
}

// TestLiveClose: Close flushes accepted mutations and later submissions
// fail with ErrLiveClosed.
func TestLiveClose(t *testing.T) {
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{})
	if _, err := l.Insert(spatial.Entry{ID: 1, Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // idempotent
	if _, err := l.Insert(spatial.Entry{ID: 2, Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}}); !errors.Is(err, ErrLiveClosed) {
		t.Fatalf("insert after close: err = %v, want ErrLiveClosed", err)
	}
	if n := l.Snapshot().Len(); n != 1 {
		t.Fatalf("final snapshot Len = %d, want 1", n)
	}
}

// TestLiveRebuildDecomposed: on a Decompose index, the apply loop
// periodically restores the decomposed tables; queries stay exact
// throughout.
func TestLiveRebuildDecomposed(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	d := spatial.NewDataset(randRects(rnd, 500, 0.05))
	ix := Build(d, Options{NX: 16, NY: 16, Space: unitSquare, Decompose: true})
	l := NewLive(ix, LiveOptions{MaxBatch: 8, RebuildEvery: 16})
	defer l.Close()

	for i := 0; i < 64; i++ {
		r := randRects(rnd, 1, 0.05)[0]
		if _, err := l.Insert(spatial.Entry{ID: spatial.ID(1000 + i), Rect: r}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Rebuilds == 0 {
		t.Fatal("no decomposed rebuilds after 64 mutations with RebuildEvery=16")
	}
	s := l.Snapshot()
	got := s.WindowIDs(everything(), nil)
	noDuplicates(t, got, "full scan after rebuilds")
	if len(got) != 564 {
		t.Fatalf("full scan returned %d, want 564", len(got))
	}
	// Spot-check a few windows against brute force over the same snapshot.
	all := make([]spatial.Entry, 0, s.Len())
	s.Window(everything(), func(e spatial.Entry) { all = append(all, e) })
	for i := 0; i < 20; i++ {
		w := randWindow(rnd, 0.3)
		sameIDs(t, s.WindowIDs(w, nil), spatial.BruteWindow(all, w), "window after rebuilds")
	}
}

// TestBuildErr covers the error-returning build variant.
func TestBuildErr(t *testing.T) {
	d := spatial.NewDataset(randRects(rand.New(rand.NewSource(3)), 10, 0.1))
	if _, err := BuildErr(d, Options{NX: -1}); err == nil {
		t.Fatal("negative NX accepted")
	}
	if _, err := BuildErr(d, Options{Space: geom.Rect{MinX: 0, MinY: 0, MaxX: 0, MaxY: 1}}); err == nil {
		t.Fatal("degenerate space accepted")
	}
	// Degenerate data MBR without an explicit space errors instead of
	// panicking.
	pt := spatial.NewDataset([]geom.Rect{{MinX: 0.5, MinY: 0.5, MaxX: 0.5, MaxY: 0.5}})
	if _, err := BuildErr(pt, Options{}); err == nil {
		t.Fatal("degenerate data MBR accepted")
	}
	ix, err := BuildErr(d, Options{NX: 8, NY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ix.Len())
	}
}

// TestJoinable covers the error-returning join precondition.
func TestJoinable(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	a, _ := buildRandom(rnd, 100, 0.05, Options{NX: 8, NY: 8, Space: unitSquare})
	b, _ := buildRandom(rnd, 100, 0.05, Options{NX: 8, NY: 8, Space: unitSquare})
	c, _ := buildRandom(rnd, 100, 0.05, Options{NX: 16, NY: 16, Space: unitSquare})
	if err := Joinable(a, b); err != nil {
		t.Fatalf("compatible indices: %v", err)
	}
	if err := Joinable(a, a); !errors.Is(err, ErrSelfJoin) {
		t.Fatalf("self-join: err = %v, want ErrSelfJoin", err)
	}
	if err := Joinable(a, c); !errors.Is(err, ErrGridMismatch) {
		t.Fatalf("mismatched grids: err = %v, want ErrGridMismatch", err)
	}
}

// TestDiskUntil: early termination is honored and a full run matches Disk.
func TestDiskUntil(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	ix, _ := buildRandom(rnd, 2000, 0.05, Options{NX: 32, NY: 32, Space: unitSquare})
	center := geom.Point{X: 0.5, Y: 0.5}
	total := ix.DiskCount(center, 0.2)
	if total < 10 {
		t.Fatalf("weak test: only %d disk results", total)
	}
	var got []spatial.ID
	if !ix.DiskUntil(center, 0.2, func(e spatial.Entry) bool {
		got = append(got, e.ID)
		return true
	}) {
		t.Fatal("uninterrupted DiskUntil reported early stop")
	}
	sameIDs(t, got, ix.DiskIDs(center, 0.2, nil), "DiskUntil full run")

	seen := 0
	completed := ix.DiskUntil(center, 0.2, func(spatial.Entry) bool {
		seen++
		return seen < 5
	})
	if completed {
		t.Fatal("interrupted DiskUntil reported completion")
	}
	if seen >= total {
		t.Fatalf("early stop scanned all %d results", seen)
	}
}

// TestLiveJournal: the Journal hook sees every batch, in order, with the
// epoch the batch publishes as; a journal error rejects the whole batch
// with nothing applied, and later batches proceed normally.
func TestLiveJournal(t *testing.T) {
	type logged struct {
		epoch uint64
		muts  []Mutation
	}
	var (
		mu      sync.Mutex
		journal []logged
		failNow bool
	)
	errInject := errors.New("disk full")
	l := NewLive(New(Options{NX: 8, NY: 8, Space: unitSquare}), LiveOptions{
		Journal: func(epoch uint64, muts []Mutation) error {
			mu.Lock()
			defer mu.Unlock()
			if failNow {
				return errInject
			}
			cp := make([]Mutation, len(muts))
			copy(cp, muts)
			journal = append(journal, logged{epoch, cp})
			return nil
		},
	})
	defer l.Close()

	r := geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}
	epoch1, err := l.Insert(spatial.Entry{ID: 1, Rect: r})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Apply([]Mutation{
		{Entry: spatial.Entry{ID: 2, Rect: r}},
		{Delete: true, Entry: spatial.Entry{ID: 1, Rect: r}},
	}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if len(journal) != 2 {
		t.Fatalf("journal has %d batches, want 2", len(journal))
	}
	if journal[0].epoch != epoch1 {
		t.Fatalf("journal epoch %d, ack epoch %d", journal[0].epoch, epoch1)
	}
	if journal[1].epoch != epoch1+1 {
		t.Fatalf("second batch epoch %d, want %d", journal[1].epoch, epoch1+1)
	}
	if len(journal[1].muts) != 2 || !journal[1].muts[1].Delete {
		t.Fatalf("second batch muts = %+v", journal[1].muts)
	}
	failNow = true
	mu.Unlock()

	// A failing journal rejects the batch: nothing applied, epoch frozen.
	before := l.Snapshot()
	if _, err := l.Insert(spatial.Entry{ID: 3, Rect: r}); !errors.Is(err, errInject) {
		t.Fatalf("err = %v, want wrapped %v", err, errInject)
	}
	after := l.Snapshot()
	if after.Epoch() != before.Epoch() || after.Len() != before.Len() {
		t.Fatalf("rejected batch changed snapshot: epoch %d->%d len %d->%d",
			before.Epoch(), after.Epoch(), before.Len(), after.Len())
	}

	// Recovery: once the journal accepts writes again, mutations flow.
	mu.Lock()
	failNow = false
	mu.Unlock()
	if _, err := l.Insert(spatial.Entry{ID: 4, Rect: r}); err != nil {
		t.Fatal(err)
	}
	if l.Snapshot().Len() != 2 { // IDs 2 and 4
		t.Fatalf("Len = %d, want 2", l.Snapshot().Len())
	}
}
