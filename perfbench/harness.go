package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// opKind is a request class of the benchmark's traffic.
type opKind int

const (
	opWindow opKind = iota // /v1/window, 0.1% extent, materialized
	opWide                 // /v1/window, 1% extent, materialized
	opExact                // /v1/window, 0.1% extent, exact refinement
	opDisk                 // /v1/disk, same area as opWindow
	opKNN                  // /v1/knn, k = 10
	opCount                // /v1/window, 5% extent, count_only
	opInsert               // /v1/insert
	opDelete               // /v1/delete
	numOps
)

var opNames = [numOps]string{"window", "wide", "exact", "disk", "knn", "count", "insert", "delete"}

func (k opKind) isRead() bool { return k < opInsert }

// recorder is a reusable in-memory http.ResponseWriter: the benchmark
// calls the server's handler directly, with no sockets.
type recorder struct {
	hdr  http.Header
	code int
	body []byte
}

func (w *recorder) Header() http.Header { return w.hdr }

func (w *recorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *recorder) reset() {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	clear(w.hdr)
	w.code = 0
	w.body = w.body[:0]
}

// newRequest builds the POST request the server would receive off the
// wire for path and a JSON body.
func newRequest(method, path string, body []byte) *http.Request {
	return &http.Request{
		Method:        method,
		URL:           &url.URL{Path: path},
		RequestURI:    path,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
		Host:          "perfbench",
		RemoteAddr:    "127.0.0.1:1",
	}
}

// span is one timed step of one request, recorded by the benchmark
// around its own calls. Spans of a request share Req.
type span struct {
	Req    uint64 `json:"req"`
	Client int    `json:"client"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanNames are the three spans every traced request records.
var spanNames = [3]string{"client.encode", "http.serve", "client.verify"}

// traceFields is the part of the server's per-request "trace" object
// the per-layer metrics read.
type traceFields struct {
	QueueWaitUS          int64 `json:"queue_wait_us"`
	FilterUS             int64 `json:"filter_us"`
	RefineUS             int64 `json:"refine_us"`
	TilesVisited         int64 `json:"tiles_visited"`
	EntriesScanned       int64 `json:"entries_scanned"`
	Comparisons          int64 `json:"comparisons"`
	DuplicatesAvoided    int64 `json:"duplicates_avoided"`
	SecondaryFilterTests int64 `json:"secondary_filter_tests"`
	SecondaryFilterHits  int64 `json:"secondary_filter_hits"`
	RefinementTests      int64 `json:"refinement_tests"`
	DistanceComputations int64 `json:"distance_computations"`
	Results              int64 `json:"results"`
}

// traceSum accumulates traceFields over the traced requests of one class.
type traceSum struct {
	n int64
	traceFields
}

func (s *traceSum) add(t *traceFields) { s.merge(&traceSum{n: 1, traceFields: *t}) }

func (s *traceSum) merge(t *traceSum) {
	s.n += t.n
	s.QueueWaitUS += t.QueueWaitUS
	s.FilterUS += t.FilterUS
	s.RefineUS += t.RefineUS
	s.TilesVisited += t.TilesVisited
	s.EntriesScanned += t.EntriesScanned
	s.Comparisons += t.Comparisons
	s.DuplicatesAvoided += t.DuplicatesAvoided
	s.SecondaryFilterTests += t.SecondaryFilterTests
	s.SecondaryFilterHits += t.SecondaryFilterHits
	s.RefinementTests += t.RefinementTests
	s.DistanceComputations += t.DistanceComputations
	s.Results += t.Results
}

// parseTrace extracts the trailing "trace" object of a traced response.
func parseTrace(body []byte) (traceFields, bool) {
	var t traceFields
	i := bytes.LastIndex(body, []byte(`"trace":{`))
	if i < 0 {
		return t, false
	}
	obj := bytes.TrimRight(body[i+len(`"trace":`):], "\n")
	obj = bytes.TrimSuffix(obj, []byte("}"))
	return t, json.Unmarshal(obj, &t) == nil
}

// client is one benchmark client: a goroutine driving the handler with
// its own response buffer, counters and, in a traced phase, spans.
type client struct {
	id     int
	h      http.Handler
	traced bool
	base   time.Time // span clock origin
	start  time.Time // measured phase start, for completion offsets
	cursor int       // next position in the request deck
	rec    recorder
	ids    []uint32   // response-scanning scratch
	nbs    []neighbor // response-scanning scratch

	lat       [numOps][]int64 // ServeHTTP (or due-to-ack) latency, ns
	done      [numOps][]int64 // completion time of each lat sample since start, ns
	lag       []int64         // open loop: send time minus due time, ns
	attempted int
	failed    int
	firstErr  string
	respBytes int64 // materialized range responses: body bytes
	results   int64 // materialized range responses: results
	traces    [numOps]traceSum
	spans     []span
	seq       uint64
}

func newClient(id int, h http.Handler, traced bool, base time.Time) *client {
	return &client{id: id, h: h, traced: traced, base: base, start: base}
}

// do sends one request through the handler and checks the answer. check
// returns the number of results a materialized response carried (for
// the bytes-per-result metric) and an error description, "" when the
// answer is right. A non-zero due is the open-loop send time that
// latency is measured from.
func (c *client) do(op opKind, path string, body []byte, due time.Time, check func([]byte) (int, string)) bool {
	t0 := time.Now()
	r := newRequest(http.MethodPost, path, body)
	c.rec.reset()
	t1 := time.Now()
	c.h.ServeHTTP(&c.rec, r)
	t2 := time.Now()
	n, bad := 0, ""
	if c.rec.code != http.StatusOK {
		bad = "status " + http.StatusText(c.rec.code) + ": " + string(bytes.TrimSpace(c.rec.body))
	} else {
		n, bad = check(c.rec.body)
	}
	if c.traced && op.isRead() {
		if t, ok := parseTrace(c.rec.body); ok {
			c.traces[op].add(&t)
		} else if bad == "" {
			bad = "traced response has no trace"
		}
	}
	t3 := time.Now()

	c.attempted++
	if bad != "" {
		c.failed++
		if c.firstErr == "" {
			c.firstErr = opNames[op] + ": " + bad
		}
	} else {
		from := t1
		if !due.IsZero() {
			from = due
			c.lag = append(c.lag, t0.Sub(due).Nanoseconds())
		}
		c.lat[op] = append(c.lat[op], t2.Sub(from).Nanoseconds())
		c.done[op] = append(c.done[op], t2.Sub(c.start).Nanoseconds())
		if n > 0 {
			c.respBytes += int64(len(c.rec.body))
			c.results += int64(n)
		}
	}
	if c.traced {
		c.seq++
		req := uint64(c.id)<<48 | c.seq
		ts := [4]time.Time{t0, t1, t2, t3}
		for i, name := range spanNames {
			c.spans = append(c.spans, span{
				Req: req, Client: c.id, Op: opNames[op], Name: name,
				Start: ts[i].Sub(c.base).Nanoseconds(), End: ts[i+1].Sub(c.base).Nanoseconds(),
			})
		}
	}
	return bad == ""
}

// resetCounts drops what the client measured so far (the warm-up).
func (c *client) resetCounts() {
	for i := range c.lat {
		c.lat[i] = c.lat[i][:0]
		c.done[i] = c.done[i][:0]
	}
	c.lag = c.lag[:0]
	c.attempted, c.failed = 0, 0
	c.respBytes, c.results = 0, 0
	c.traces = [numOps]traceSum{}
	c.spans = c.spans[:0]
}

// runClosed runs step on every client in its own goroutine until end
// and returns the wall time from start to the last completion.
func runClosed(clients []*client, start, end time.Time, step func(c *client)) time.Duration {
	done := make(chan time.Time, len(clients))
	for _, c := range clients {
		go func(c *client) {
			for time.Now().Before(end) {
				step(c)
			}
			done <- time.Now()
		}(c)
	}
	last := start
	for range clients {
		if t := <-done; t.After(last) {
			last = t
		}
	}
	return last.Sub(start)
}

// procSnap is a point-in-time view of the process: memory, GC and CPU.
type procSnap struct {
	at  time.Time
	mem runtime.MemStats
	cpu time.Duration
}

func takeSnap() procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.at = time.Now()
	return s
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcPauses returns the stop-the-world pauses of the GC cycles completed
// between a and b (at most the last 256, which MemStats retains), in ns.
func gcPauses(a, b procSnap) []int64 {
	var out []int64
	lo := a.mem.NumGC
	if b.mem.NumGC > 256 && lo < b.mem.NumGC-256 {
		lo = b.mem.NumGC - 256
	}
	for i := lo; i < b.mem.NumGC; i++ {
		out = append(out, int64(b.mem.PauseNs[i%256]))
	}
	return out
}

// heapAfterGC returns the live heap after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return float64(s[max(i, 0)])
}

// medianF returns the median of xs (0 when empty).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deck returns every pooled query copies[op] times (at least once), in
// an order shuffled by seed. Clients cycle through it, so every run
// executes the same multiset of requests and the mix by count is each
// pool's size times its copies.
func deck(pools [numOps][]query, copies [numOps]int, seed int64) []*query {
	var d []*query
	for op := range pools {
		for i := range pools[op] {
			for range max(copies[op], 1) {
				d = append(d, &pools[op][i])
			}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// next returns the client's next request of d; clients start at evenly
// spaced offsets.
func (c *client) next(d []*query, clients int) *query {
	q := d[(c.cursor+c.id*len(d)/clients)%len(d)]
	c.cursor++
	return q
}
