package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"time"

	twolayer "github.com/twolayer/twolayer"
	"github.com/twolayer/twolayer/internal/datagen"
	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Request bodies of the /v1 API, as a client would send them.
type (
	rectJSON struct {
		MinX float64 `json:"min_x"`
		MinY float64 `json:"min_y"`
		MaxX float64 `json:"max_x"`
		MaxY float64 `json:"max_y"`
	}
	pointJSON struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	}
	diskJSON struct {
		Center pointJSON `json:"center"`
		Radius float64   `json:"radius"`
	}
	rangeJSON struct {
		Window    *rectJSON `json:"window,omitempty"`
		Disk      *diskJSON `json:"disk,omitempty"`
		Exact     bool      `json:"exact,omitempty"`
		Mode      string    `json:"mode,omitempty"`
		CountOnly bool      `json:"count_only,omitempty"`
		Limit     int       `json:"limit,omitempty"`
		Trace     bool      `json:"trace,omitempty"`
	}
	knnJSON struct {
		Center pointJSON `json:"center"`
		K      int       `json:"k"`
		Trace  bool      `json:"trace,omitempty"`
	}
	mutationJSON struct {
		ID  uint32   `json:"id"`
		MBR rectJSON `json:"mbr"`
	}
)

func toRectJSON(r geom.Rect) rectJSON { return rectJSON{r.MinX, r.MinY, r.MaxX, r.MaxY} }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types above always encode
	}
	return b
}

const (
	// knnK is the k of every kNN request.
	knnK = 10
	// materializeLimit is the limit sent with materialized range
	// requests: the server's maximum, so no reference answer is cut.
	materializeLimit = 100000
)

// query is one pooled read request: its HTTP form, the equivalent
// engine call, and the brute-force reference answer.
type query struct {
	op     opKind
	path   string
	body   [2][]byte // untraced, traced
	q      twolayer.Query
	center geom.Point // kNN
	want   answer
	extra  int // live workloads: inserted objects the query may also match
}

// newRangeQuery builds a window (w non-nil) or disk request of class op.
func newRangeQuery(op opKind, w *geom.Rect, d *geom.Disk) query {
	env := rangeJSON{}
	qu := query{op: op, path: "/v1/window"}
	if w != nil {
		rj := toRectJSON(*w)
		env.Window = &rj
		qu.q.Window = w
	} else {
		env.Disk = &diskJSON{pointJSON{d.Center.X, d.Center.Y}, d.Radius}
		qu.q.Disk = d
		qu.path = "/v1/disk"
	}
	switch op {
	case opCount:
		env.CountOnly = true
	case opExact:
		env.Exact, env.Mode = true, "avoid_plus"
		qu.q.Exact, qu.q.Mode = true, twolayer.RefineAvoidPlus
		fallthrough
	default:
		env.Limit = materializeLimit
		qu.q.Limit = materializeLimit
	}
	qu.body[0] = mustJSON(env)
	env.Trace = true
	qu.body[1] = mustJSON(env)
	return qu
}

func newKNNQuery(p geom.Point) query {
	env := knnJSON{Center: pointJSON{p.X, p.Y}, K: knnK}
	qu := query{op: opKNN, path: "/v1/knn", center: p}
	qu.body[0] = mustJSON(env)
	env.Trace = true
	qu.body[1] = mustJSON(env)
	return qu
}

// poolSpec sizes and shapes one query pool.
type poolSpec struct {
	op     opKind
	n      int
	extent float64 // relative side of the query
}

// zOrder returns the indices of entries sorted by the Z-order (Morton)
// key of their centers.
func zOrder(entries []spatial.Entry) []int32 {
	space := geom.Rect{MinX: math.Inf(1), MinY: math.Inf(1), MaxX: math.Inf(-1), MaxY: math.Inf(-1)}
	for _, e := range entries {
		space = space.Union(e.Rect)
	}
	keys := make([]uint64, len(entries))
	order := make([]int32, len(entries))
	for i, e := range entries {
		c := e.Rect.Center()
		x := uint32((c.X - space.MinX) / max(space.Width(), 1e-300) * (1<<31 - 1))
		y := uint32((c.Y - space.MinY) / max(space.Height(), 1e-300) * (1<<31 - 1))
		keys[i] = interleave(x) | interleave(y)<<1
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return order
}

// interleave spreads the bits of x to the even bit positions.
func interleave(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// queryCenters draws n query centers that follow the data: the centers
// of one random object from each of n equal strata of the objects in
// Z order. Like datagen's queries they land on populated regions; the
// stratification makes every seed's pool cover every region in
// proportion, so pools of different seeds cost the same on average.
func queryCenters(order []int32, entries []spatial.Entry, n int, rng *rand.Rand) []geom.Point {
	out := make([]geom.Point, n)
	for j := range out {
		lo, hi := j*len(order)/n, (j+1)*len(order)/n
		out[j] = entries[order[lo+rng.Intn(max(hi-lo, 1))]].Rect.Center()
	}
	return out
}

// buildPools generates the query pools, with datagen's query shapes
// (aspect ratio in [0.5, 2], disks of the window's area) around
// stratified centers, and fills every reference answer by brute force
// over entries (ds supplies the exact geometries for exact queries).
func buildPools(cfg config, ds *spatial.Dataset, entries []spatial.Entry, specs []poolSpec) [numOps][]query {
	var pools [numOps][]query
	order := zOrder(entries)
	for i, s := range specs {
		rng := rand.New(rand.NewSource(cfg.seed*31 + int64(i) + 1))
		for _, c := range queryCenters(order, entries, max(cfg.scaled(s.n), 2), rng) {
			switch s.op {
			case opKNN:
				pools[s.op] = append(pools[s.op], newKNNQuery(c))
			case opDisk:
				d := geom.Disk{Center: c, Radius: s.extent / math.Sqrt(math.Pi)}
				pools[s.op] = append(pools[s.op], newRangeQuery(s.op, nil, &d))
			default:
				ratio := 0.5 + rng.Float64()*1.5
				w := s.extent * math.Sqrt(ratio)
				h := s.extent * s.extent / w
				r := geom.Rect{MinX: c.X - w/2, MinY: c.Y - h/2, MaxX: c.X + w/2, MaxY: c.Y + h/2}
				pools[s.op] = append(pools[s.op], newRangeQuery(s.op, &r, nil))
			}
		}
	}
	var all []*query
	for op := range pools {
		for i := range pools[op] {
			all = append(all, &pools[op][i])
		}
	}
	parallelFill(len(all), func(i int) {
		q := all[i]
		switch {
		case q.op == opKNN:
			q.want = answer{dists: bruteKNN(entries, q.center, knnK)}
		case q.op == opExact:
			q.want = rangeAnswer(spatial.BruteWindowExact(ds, *q.q.Window))
		case q.q.Disk != nil:
			q.want = rangeAnswer(spatial.BruteDisk(entries, q.q.Disk.Center, q.q.Disk.Radius))
		case q.op == opCount:
			q.want = answer{n: len(spatial.BruteWindow(entries, *q.q.Window))}
		default:
			q.want = rangeAnswer(spatial.BruteWindow(entries, *q.q.Window))
		}
	})
	if cfg.corrupt {
		w := &pools[opWindow][0].want
		*w = rangeAnswer(append(append([]uint32{}, w.ids...), 1<<31))
	}
	return pools
}

// searcher is the engine surface the direct calls use, implemented by
// *twolayer.Index and *twolayer.Sharded.
type searcher interface {
	Search(q twolayer.Query, fn func(id twolayer.ID, mbr twolayer.Rect) bool) (bool, error)
	SearchCount(q twolayer.Query) (int, error)
	KNN(q twolayer.Point, k int) []twolayer.Neighbor
}

// hit is one materialized result of a direct call.
type hit struct {
	id  twolayer.ID
	mbr twolayer.Rect
}

// directCall answers q on s the way the server's handler does, minus
// the HTTP layer: materialized results are collected into buf.
func directCall(s searcher, q *query, buf *[]hit) error {
	switch q.op {
	case opCount:
		_, err := s.SearchCount(q.q)
		return err
	case opKNN:
		s.KNN(q.center, knnK)
		return nil
	}
	*buf = (*buf)[:0]
	_, err := s.Search(q.q, func(id twolayer.ID, mbr twolayer.Rect) bool {
		*buf = append(*buf, hit{id, mbr})
		return true
	})
	return err
}

// replayStep is one request of the sequential replay: its HTTP form
// and check, and the equivalent direct engine call.
type replayStep struct {
	op     opKind
	path   string
	body   []byte
	check  func([]byte) (int, string)
	direct func() error
}

// replay runs served[i] through ServeHTTP and direct[i] as an engine
// call, pair by pair on a quiet server, alternating which goes first so
// neither side always finds the caches warm. It sets
// server.self_us.<class> to the median over pairs of served minus
// direct time, and server.allocs_per_req to the allocations the HTTP
// layer adds per request; it returns the direct times per class in ns.
func replay(rep *report, h http.Handler, served, direct []replayStep) [numOps][]float64 {
	var rec recorder
	var selfNS, directNS [numOps][]float64
	var mallocs [2]uint64 // served, direct
	var ms runtime.MemStats
	timed := func(side int, fn func()) float64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		t := time.Now()
		fn()
		el := float64(time.Since(t))
		runtime.ReadMemStats(&ms)
		mallocs[side] += ms.Mallocs - before
		return el
	}
	serve := func(s replayStep) float64 {
		req := newRequest(http.MethodPost, s.path, s.body)
		rec.reset()
		el := timed(0, func() { h.ServeHTTP(&rec, req) })
		ok, what := rec.code == http.StatusOK, ""
		if ok {
			_, what = s.check(rec.body)
			ok = what == ""
		}
		rep.check(ok, fmt.Sprintf("replayed %s: status %d %s", opNames[s.op], rec.code, what))
		return el
	}
	call := func(s replayStep) float64 {
		var err error
		el := timed(1, func() { err = s.direct() })
		rep.check(err == nil, fmt.Sprintf("direct %s: %v", opNames[s.op], err))
		return el
	}
	runtime.GC()
	for i := range served {
		var sv, dt float64
		if i%2 == 0 {
			sv, dt = serve(served[i]), call(direct[i])
		} else {
			dt, sv = call(direct[i]), serve(served[i])
		}
		op := served[i].op
		selfNS[op] = append(selfNS[op], sv-dt)
		directNS[direct[i].op] = append(directNS[direct[i].op], dt)
	}
	for op := range selfNS {
		if len(selfNS[op]) > 0 {
			rep.vals["server.self_us."+opNames[op]] = medianF(selfNS[op]) / 1e3
		}
	}
	rep.vals["server.allocs_per_req"] = ratio(float64(mallocs[0])-float64(mallocs[1]), float64(len(served)))
	return directNS
}

// replayPerClass is how many pooled queries of each read class the
// traced run's replays and direct measurements use.
const replayPerClass = 32

// sample returns replayPerClass queries spread evenly over a pool, which
// is in Z order: a prefix would cover one corner of the data.
func sample(qs []query) []query {
	n := min(replayPerClass, len(qs))
	out := make([]query, n)
	for i := range out {
		out[i] = qs[i*len(qs)/n]
	}
	return out
}

// readReplay builds the replay of the first pooled queries of each read
// class, served and then answered directly on s().
func readReplay(pools [numOps][]query, s func() searcher, check func(*client, *query) func([]byte) (int, string)) []replayStep {
	var steps []replayStep
	var buf []hit
	scratch := &client{}
	for op := opWindow; op <= opCount; op++ {
		qs := sample(pools[op])
		for i := range qs {
			q := &qs[i]
			steps = append(steps, replayStep{
				op: op, path: q.path, body: q.body[0],
				check:  check(scratch, q),
				direct: func() error { return directCall(s(), q, &buf) },
			})
		}
	}
	return steps
}

// perCall runs fn for every i < n and returns the mean heap allocations
// and allocated bytes per call.
func perCall(n int, fn func(i int)) (allocs, bytes float64) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

// directMetrics fills the per-layer metrics measured by calling the
// engine directly: kernel allocations and the direct kNN and count
// times of a replay.
func directMetrics(rep *report, pools [numOps][]query, s searcher, directNS [numOps][]float64) {
	for _, op := range []opKind{opWindow, opDisk} {
		qs := pools[op]
		if len(qs) == 0 {
			continue
		}
		allocs, _ := perCall(len(qs), func(i int) {
			s.Search(qs[i].q, func(twolayer.ID, twolayer.Rect) bool { return true })
		})
		rep.vals["core.allocs_per_"+opNames[op]] = allocs
	}
	rep.vals["count.direct_us"] = medianF(directNS[opCount]) / 1e3
	rep.vals["knn.direct_us"] = medianF(directNS[opKNN]) / 1e3
}

// mutation is one planned insert or delete.
type mutation struct {
	op   opKind
	id   uint32
	rect geom.Rect
}

func (m mutation) path() string {
	if m.op == opDelete {
		return "/v1/delete"
	}
	return "/v1/insert"
}

func (m mutation) body() []byte { return mustJSON(mutationJSON{m.id, toRectJSON(m.rect)}) }

// check verifies a mutation acknowledgement: an epoch for an
// insert, found=true for a delete of an object the writer inserted.
func (m mutation) check(b []byte) (int, string) {
	if _, ok := intAfter(b, `"epoch":`); !ok {
		return 0, "no epoch in acknowledgement"
	}
	if m.op == opDelete && !containsFoundTrue(b) {
		return 0, fmt.Sprintf("delete of %d not found", m.id)
	}
	return 0, ""
}

func containsFoundTrue(b []byte) bool {
	var v struct {
		Found bool `json:"found"`
	}
	return json.Unmarshal(b, &v) == nil && v.Found
}

// mutator is the mutation surface of *twolayer.Live and
// *twolayer.ShardedLive.
type mutator interface {
	Insert(twolayer.ID, twolayer.Rect) (uint64, error)
	Delete(twolayer.ID, twolayer.Rect) (bool, uint64, error)
}

// apply makes m on a live engine directly.
func (m mutation) apply(l mutator) error {
	if m.op == opInsert {
		_, err := l.Insert(m.id, m.rect)
		return err
	}
	found, _, err := l.Delete(m.id, m.rect)
	if err == nil && !found {
		err = fmt.Errorf("delete of %d not found", m.id)
	}
	return err
}

// writerPlan generates one writer's mutations: inserts of fresh IDs
// (firstID, firstID+stride, ...) with ROADS-like MBRs placed on the data
// distribution, and after every three inserts a delete of one of the
// writer's own live inserts. It tracks which of its objects are live
// once acknowledged.
type writerPlan struct {
	rng     *rand.Rand
	ds      *spatial.Dataset
	order   []int32      // ds.Entries in Z order
	centers []geom.Point // stratified insert centers not yet used
	nextID  uint32
	stride  uint32
	n       int
	own     []uint32 // live inserted IDs, in a random-access list
	rects   map[uint32]geom.Rect
}

func newWriterPlan(ds *spatial.Dataset, order []int32, seed int64, firstID, stride uint32) *writerPlan {
	return &writerPlan{
		rng: rand.New(rand.NewSource(seed)), ds: ds, order: order,
		nextID: firstID, stride: stride, rects: map[uint32]geom.Rect{},
	}
}

// insertBlock is how many stratified insert centers a plan draws at a
// time: every block covers the data in proportion, so the tiles a run's
// inserts touch (and what cloning them costs) vary little by seed.
const insertBlock = 256

// next returns the writer's next mutation. A delete targets an insert
// already acknowledged, so it always finds its object.
func (w *writerPlan) next() mutation {
	w.n++
	if w.n%4 == 0 && len(w.own) > 0 {
		i := w.rng.Intn(len(w.own))
		id := w.own[i]
		w.own[i] = w.own[len(w.own)-1]
		w.own = w.own[:len(w.own)-1]
		return mutation{opDelete, id, w.rects[id]}
	}
	return w.insert()
}

// insert returns an insert of the writer's next fresh ID.
func (w *writerPlan) insert() mutation {
	if len(w.centers) == 0 {
		w.centers = queryCenters(w.order, w.ds.Entries, insertBlock, w.rng)
		w.rng.Shuffle(len(w.centers), func(i, j int) { w.centers[i], w.centers[j] = w.centers[j], w.centers[i] })
	}
	c := w.centers[len(w.centers)-1]
	w.centers = w.centers[:len(w.centers)-1]
	ax, ay := datagen.Roads.AvgExtent()
	wd, ht := w.rng.ExpFloat64()*ax, w.rng.ExpFloat64()*ay
	m := mutation{opInsert, w.nextID, geom.Rect{MinX: c.X - wd/2, MinY: c.Y - ht/2, MaxX: c.X + wd/2, MaxY: c.Y + ht/2}}
	w.nextID += w.stride
	return m
}

// insertStep plans an insert of w's next fresh object for the replay,
// recorded as acknowledged: the replay checks that it is.
func insertStep(w *writerPlan, l mutator) replayStep {
	m := w.insert()
	w.ack(m)
	return replayStep{op: m.op, path: m.path(), body: m.body(), check: m.check,
		direct: func() error { return m.apply(l) }}
}

// ack records an acknowledged mutation.
func (w *writerPlan) ack(m mutation) {
	switch m.op {
	case opInsert:
		w.own = append(w.own, m.id)
		w.rects[m.id] = m.rect
	case opDelete:
		delete(w.rects, m.id)
	}
}

// liveSet is the acknowledged object set: the seed plus every writer's
// live inserts.
func liveSet(seed []spatial.Entry, writers ...*writerPlan) map[uint32]geom.Rect {
	set := make(map[uint32]geom.Rect, len(seed))
	for _, e := range seed {
		set[e.ID] = e.Rect
	}
	for _, w := range writers {
		for id, r := range w.rects {
			set[id] = r
		}
	}
	return set
}

// everything is a window covering every object of the unit-square data.
var everything = geom.Rect{MinX: -1, MinY: -1, MaxX: 2, MaxY: 2}

// checkObjectSet compares the objects s serves with want, by ID and MBR.
func checkObjectSet(rep *report, s searcher, want map[uint32]geom.Rect, what string) {
	got := 0
	bad := ""
	_, err := s.Search(twolayer.Query{Window: &everything}, func(id twolayer.ID, mbr twolayer.Rect) bool {
		got++
		if r, ok := want[id]; !ok || r != mbr {
			bad = fmt.Sprintf("%s: object %d %v not acknowledged", what, id, mbr)
			return false
		}
		return true
	})
	switch {
	case err != nil:
		bad = fmt.Sprintf("%s: %v", what, err)
	case bad == "" && got != len(want):
		bad = fmt.Sprintf("%s: %d objects, %d acknowledged", what, got, len(want))
	}
	rep.check(bad == "", bad)
}

// checkCounts compares count_only answers through the handler with brute
// force over the acknowledged set, for every window in ws.
func checkCounts(rep *report, h http.Handler, set map[uint32]geom.Rect, ws []geom.Rect) {
	entries := make([]spatial.Entry, 0, len(set))
	for id, r := range set {
		entries = append(entries, spatial.Entry{Rect: r, ID: id})
	}
	c := newClient(0, h, false, time.Now())
	for i := range ws {
		q := newRangeQuery(opCount, &ws[i], nil)
		want := len(spatial.BruteWindow(entries, ws[i]))
		c.do(opCount, q.path, q.body[0], time.Time{}, func(b []byte) (int, string) { return checkCountRange(b, want, want) })
	}
	rep.attempted += c.attempted
	rep.failed += c.failed
	if rep.firstErr == "" && c.firstErr != "" {
		rep.firstErr = "after the run: " + c.firstErr
	}
}
