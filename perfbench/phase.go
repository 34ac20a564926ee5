package main

import (
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	twolayer "github.com/twolayer/twolayer"
)

// engSnap is a point-in-time copy of the engine's public counters.
type engSnap struct {
	path  twolayer.PathStats
	live  twolayer.LiveStats
	dur   twolayer.DurabilityStats
	shard twolayer.ShardedStats
	shed  uint64 // admission refusals and backlog rejections, from /v1/stats
}

// engine reads the counters of whatever the workload serves; fields it
// does not serve stay zero.
type engine func() engSnap

// shedTotal reads the admission refusal totals from GET /v1/stats.
func shedTotal(h http.Handler) uint64 {
	var st struct {
		Admission *struct {
			Classes map[string]struct {
				ShedQueueFull uint64 `json:"shed_queue_full_total"`
				ShedDeadline  uint64 `json:"shed_deadline_total"`
				ShedExpired   uint64 `json:"shed_expired_total"`
			} `json:"classes"`
			Backlog *struct {
				Rejected uint64 `json:"rejected_total"`
			} `json:"backlog"`
		} `json:"admission"`
	}
	if getJSON(h, "/v1/stats", &st) != nil || st.Admission == nil {
		return 0
	}
	var n uint64
	for _, c := range st.Admission.Classes {
		n += c.ShedQueueFull + c.ShedDeadline + c.ShedExpired
	}
	if st.Admission.Backlog != nil {
		n += st.Admission.Backlog.Rejected
	}
	return n
}

// phaseSpec is the traffic of one timed phase.
type phaseSpec struct {
	clients int             // closed-loop clients, at least one
	step    func(c *client) // one closed-loop request
	rate    float64         // open-loop requests per second, 0 for none
	open    func(c *client, due time.Time)
}

// phase is what one timed phase measured.
type phase struct {
	clients []*client // closed-loop clients
	writer  *client   // open-loop sender, nil if none
	elapsed time.Duration
	proc    [2]procSnap
	eng     [2]engSnap
	// segCPU is the process CPU time of each of the phase's segments
	// (equal slices of the measured time).
	segCPU []time.Duration
}

func (p *phase) all() []*client {
	if p.writer == nil {
		return p.clients
	}
	return append(slices.Clone(p.clients), p.writer)
}

// segments is the number of equal slices a phase of d is cut into for
// its per-segment medians: one a second, at most 10.
func segments(d time.Duration) int { return min(max(int(d.Seconds()), 1), 10) }

// runPhase warms the closed-loop clients up, then measures for d with
// the open-loop sender (if any) running alongside.
func runPhase(cfg config, h http.Handler, eng engine, traced bool, d time.Duration, spec phaseSpec) *phase {
	base := time.Now()
	p := &phase{}
	for i := 0; i < spec.clients; i++ {
		p.clients = append(p.clients, newClient(i, h, traced, base))
	}
	now := time.Now()
	runClosed(p.clients, now, now.Add(cfg.warm), spec.step)

	snap := func(i int) {
		p.proc[i] = takeSnap()
		p.eng[i] = eng()
		p.eng[i].shed = shedTotal(h)
	}
	snap(0)
	start := time.Now()
	end := start.Add(d)
	for _, c := range p.clients {
		c.resetCounts()
		c.start = start
	}
	var wg sync.WaitGroup
	if spec.rate > 0 {
		p.writer = newClient(spec.clients, h, traced, base)
		p.writer.start = start
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				due := start.Add(time.Duration(float64(i) / spec.rate * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				spec.open(p.writer, due)
			}
		}()
	}
	nseg := segments(d)
	p.segCPU = make([]time.Duration, nseg)
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := p.proc[0].cpu
		for k := 1; k <= nseg; k++ {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / time.Duration(nseg))))
			cpu := processCPU()
			p.segCPU[k-1] = cpu - last
			last = cpu
		}
	}()
	p.elapsed = runClosed(p.clients, start, end, spec.step)
	wg.Wait()
	snap(1)
	return p
}

// tally adds a phase's requests and failures to the report.
func tally(rep *report, p *phase) {
	for _, c := range p.all() {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if rep.firstErr == "" {
			rep.firstErr = c.firstErr
		}
	}
}

// primaryOps is the primary class's completions per second in a phase.
func primaryOps(p *phase, primaryRead bool) float64 {
	keep := isWrite
	if primaryRead {
		keep = opKind.isRead
	}
	return float64(len(latencies(p.all(), keep))) / p.elapsed.Seconds()
}

// latencies merges the latency samples of the given classes over clients.
func latencies(clients []*client, keep func(opKind) bool) []int64 {
	var out []int64
	for _, c := range clients {
		for op := opKind(0); op < numOps; op++ {
			if keep(op) {
				out = append(out, c.lat[op]...)
			}
		}
	}
	return out
}

func isWrite(op opKind) bool { return !op.isRead() }

// segmentLat splits the samples of the kept classes by the segment
// (of nseg over d) they completed in; samples completing after d, the
// requests in flight at the deadline, are dropped.
func segmentLat(clients []*client, keep func(opKind) bool, d time.Duration, nseg int) [][]int64 {
	segs := make([][]int64, nseg)
	for _, c := range clients {
		for op := opKind(0); op < numOps; op++ {
			if !keep(op) {
				continue
			}
			for i, at := range c.done[op] {
				if k := int(int64(nseg) * at / int64(d)); k < nseg {
					segs[k] = append(segs[k], c.lat[op][i])
				}
			}
		}
	}
	return segs
}

// classMetrics fills the end-to-end metrics of an untraced phase of
// length d, for the primary class (reads when primaryRead, else
// mutations), and the per-class figures of the per-layer list. The
// end-to-end figures are medians over the phase's segments, so a burst
// of outside load on the host moves a segment, not the run.
func classMetrics(rep *report, p *phase, primaryRead bool, d time.Duration) {
	secs := p.elapsed.Seconds()
	all := p.all()
	setLat := func(prefix string, keep func(opKind) bool) {
		lat := latencies(all, keep)
		rep.vals[prefix+"_p50_us"] = quantile(lat, 0.5) / 1e3
		rep.samples[prefix+"_p50_us"] = len(lat)
		if prefix == "read" || prefix == "write" {
			rep.vals[prefix+"_p99_us"] = quantile(lat, 0.99) / 1e3
			rep.samples[prefix+"_p99_us"] = len(lat)
			rep.vals[prefix+"_ops_per_s"] = float64(len(lat)) / secs
		}
	}
	setLat("read", opKind.isRead)
	setLat("write", isWrite)
	for op := opWindow; op <= opCount; op++ {
		setLat(opNames[op], func(k opKind) bool { return k == op })
	}
	var lag []int64
	var attempted, failed, bytes, results int64
	for _, c := range all {
		lag = append(lag, c.lag...)
		attempted += int64(c.attempted)
		failed += int64(c.failed)
		bytes += c.respBytes
		results += c.results
	}
	rep.vals["write_lag_p99_us"] = quantile(lag, 0.99) / 1e3
	rep.vals["failed_frac"] = ratio(float64(failed), float64(attempted))
	rep.vals["server.resp_bytes_per_result"] = ratio(float64(bytes), float64(results))

	keep := isWrite
	if primaryRead {
		keep = opKind.isRead
	}
	nseg := len(p.segCPU)
	segLen := d.Seconds() / float64(nseg)
	var ops, p50, cpu []float64
	total := 0
	for k, lat := range segmentLat(all, keep, d, nseg) {
		total += len(lat)
		ops = append(ops, float64(len(lat))/segLen)
		p50 = append(p50, quantile(lat, 0.5)/1e3)
		cpu = append(cpu, ratio(float64(p.segCPU[k])/1e3, float64(len(lat))))
	}
	rep.vals["ops_per_s"] = medianF(ops)
	rep.vals["p50_us"] = medianF(p50)
	rep.vals["cpu_us_per_op"] = medianF(cpu)
	rep.samples["p50_us"] = total

	pauses := gcPauses(p.proc[0], p.proc[1])
	rep.vals["gc.pause_p99_us"] = quantile(pauses, 0.99) / 1e3
	rep.vals["gc.cycles_per_s"] = float64(p.proc[1].mem.NumGC-p.proc[0].mem.NumGC) / p.proc[1].at.Sub(p.proc[0].at).Seconds()
}

// counterMetrics fills the per-layer metrics that come from counter
// deltas over an untraced phase.
func counterMetrics(rep *report, p *phase) {
	a, b := p.eng[0], p.eng[1]
	var served [numOps]int
	for _, c := range p.all() {
		for op := range c.lat {
			served[op] += len(c.lat[op])
		}
	}

	rep.vals["admission.shed"] = float64(b.shed - a.shed)

	par := float64(b.path.ParallelQueries - a.path.ParallelQueries)
	seq := float64(b.path.SequentialQueries - a.path.SequentialQueries)
	rep.vals["core.parallel_ratio"] = ratio(par, par+seq)
	rep.vals["core.chunks_per_parallel"] = ratio(float64(b.path.ParallelChunks-a.path.ParallelChunks), par)
	rep.vals["count.fast_ratio"] = ratio(float64(b.path.FastCounts-a.path.FastCounts), float64(served[opCount]))

	pubs := float64(b.live.Publishes - a.live.Publishes)
	applied := float64(b.live.Applied - a.live.Applied)
	rep.vals["live.publish_us"] = ratio(float64(b.live.PublishTotal-a.live.PublishTotal)/1e3, pubs)
	rep.vals["live.mutations_per_publish"] = ratio(applied, pubs)
	rep.vals["live.rebuilds"] = float64(b.live.Rebuilds - a.live.Rebuilds)

	fsyncs := float64(b.dur.Fsyncs - a.dur.Fsyncs)
	rep.vals["wal.append_us"] = ratio(float64(b.dur.AppendTotal-a.dur.AppendTotal)/1e3, float64(b.dur.AppendedRecords-a.dur.AppendedRecords))
	rep.vals["wal.fsync_us"] = ratio(float64(b.dur.FsyncTotal-a.dur.FsyncTotal)/1e3, fsyncs)
	rep.vals["wal.fsyncs"] = fsyncs
	if b.dur.AppendedRecords > 0 {
		rep.vals["wal.bytes_per_mutation"] = ratio(float64(b.dur.AppendedBytes-a.dur.AppendedBytes), applied)
	}

	if len(b.shard.PerShard) > 0 && len(a.shard.PerShard) == len(b.shard.PerShard) {
		fan := float64(b.shard.Fanout - a.shard.Fanout)
		single := float64(b.shard.SingleShard - a.shard.SingleShard)
		rep.vals["shard.fanout_ratio"] = ratio(fan, fan+single)
		var sum, top float64
		for i := range b.shard.PerShard {
			busy := float64(b.shard.PerShard[i].BusyNS - a.shard.PerShard[i].BusyNS)
			sum += busy
			top = max(top, busy)
		}
		rep.vals["shard.busy_skew"] = ratio(top, sum/float64(len(b.shard.PerShard)))
	}
}

// traceMetrics fills the per-layer metrics read from the server's trace
// fields and the response sizes of a traced phase.
func traceMetrics(rep *report, p *phase) {
	var sum [numOps]traceSum
	for _, c := range p.all() {
		for op := range c.traces {
			sum[op].merge(&c.traces[op])
		}
	}

	var reads traceSum
	for op := opWindow; op <= opCount; op++ {
		reads.merge(&sum[op])
	}
	rep.vals["admission.queue_wait_us"] = ratio(float64(reads.QueueWaitUS), float64(reads.n))

	// The filter kernels: plain window and disk requests.
	var f traceSum
	f.merge(&sum[opWindow])
	f.merge(&sum[opDisk])
	n := float64(f.n)
	rep.vals["core.filter_us"] = ratio(float64(f.FilterUS), n)
	rep.vals["core.entries_per_result"] = ratio(float64(f.EntriesScanned), float64(f.Results))
	rep.vals["core.comparisons_per_result"] = ratio(float64(f.Comparisons), float64(f.Results))
	rep.vals["core.tiles_per_query"] = ratio(float64(f.TilesVisited), n)
	rep.vals["core.duplicates_avoided"] = ratio(float64(f.DuplicatesAvoided), n)

	ex := sum[opExact]
	rep.vals["refine.us"] = ratio(float64(ex.RefineUS), float64(ex.n))
	rep.vals["refine.avoided_ratio"] = ratio(float64(ex.SecondaryFilterHits), float64(ex.SecondaryFilterTests))
	rep.vals["refine.tests_per_result"] = ratio(float64(ex.RefinementTests), float64(ex.Results))

	ct := sum[opCount]
	rep.vals["count.entries_scanned"] = ratio(float64(ct.EntriesScanned), float64(ct.n))

	kn := sum[opKNN]
	rep.vals["knn.distance_computations"] = ratio(float64(kn.DistanceComputations), float64(kn.n))
	rep.vals["knn.tiles_visited"] = ratio(float64(kn.TilesVisited), float64(kn.n))
}

// publishAlloc sets live.alloc_bytes_per_publish from direct inserts of
// w's fresh objects on the quiet engine, after the timed phases. Each
// insert waits for its publish and nothing else is served meanwhile, so
// the process's TotalAlloc delta is what the publishes (and the WAL
// append, on a durable store) allocate, not the readers.
func publishAlloc(rep *report, w *writerPlan, l mutator, stats func() twolayer.LiveStats) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	bytes, pubs := ms.TotalAlloc, stats().Publishes
	for range replayPerClass {
		m := w.insert()
		err := m.apply(l)
		rep.check(err == nil, fmt.Sprintf("direct insert for the publish measurement: %v", err))
		if err == nil {
			w.ack(m)
		}
	}
	runtime.ReadMemStats(&ms)
	rep.vals["live.alloc_bytes_per_publish"] = ratio(float64(ms.TotalAlloc-bytes), float64(stats().Publishes-pubs))
}
