package main

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// answer is the brute-force reference result of one query.
type answer struct {
	n     int       // matching objects (range queries)
	ids   []uint32  // sorted matching IDs, kept for materialized queries
	sum   uint64    // order-independent checksum of ids
	dists []float64 // ascending k nearest distances (kNN)
}

// mix64 scrambles an ID for the order-independent checksum (splitmix64).
func mix64(id uint32) uint64 {
	z := uint64(id) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rangeAnswer(ids []uint32) answer {
	slices.Sort(ids)
	a := answer{n: len(ids), ids: ids}
	for _, id := range ids {
		a.sum += mix64(id)
	}
	return a
}

// bruteKNN returns the k smallest MBR-to-point distances over entries,
// the distance the index's kNN ranks by.
func bruteKNN(entries []spatial.Entry, p geom.Point, k int) []float64 {
	best := make([]float64, 0, k+1)
	for _, e := range entries {
		d := e.Rect.DistSqToPoint(p)
		if len(best) == k && d >= best[k-1] {
			continue
		}
		i, _ := slices.BinarySearch(best, d)
		best = slices.Insert(best, i, d)
		if len(best) > k {
			best = best[:k]
		}
	}
	for i := range best {
		best[i] = math.Sqrt(best[i])
	}
	return best
}

// parallelFill runs fill(i) for i in [0, n) on two goroutines: the
// reference answers are computed before timing, on every CPU the
// benchmark uses.
func parallelFill(n int, fill func(i int)) {
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += 2 {
				fill(i)
			}
		}(w)
	}
	wg.Wait()
}

// intAfter parses the unsigned integer following key in b.
func intAfter(b []byte, key string) (int, bool) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, false
	}
	v, _, ok := parseUint(b[i+len(key):])
	return int(v), ok
}

func parseUint(b []byte) (v uint64, n int, ok bool) {
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		v = v*10 + uint64(b[n]-'0')
		n++
	}
	return v, n, n > 0
}

var idKey = []byte(`{"id":`)

// scanIDs appends the "id" of every result object in a /v1 range
// response to ids.
func scanIDs(b []byte, ids []uint32) []uint32 {
	for {
		i := bytes.Index(b, idKey)
		if i < 0 {
			return ids
		}
		b = b[i+len(idKey):]
		v, n, _ := parseUint(b)
		ids = append(ids, uint32(v))
		b = b[n:]
	}
}

// neighbor is one parsed kNN result.
type neighbor struct {
	id   uint32
	dist float64
}

var distKey = []byte(`,"distance":`)

// scanNeighbors parses the neighbors of a /v1/knn response.
func scanNeighbors(b []byte, out []neighbor) ([]neighbor, bool) {
	for {
		i := bytes.Index(b, idKey)
		if i < 0 {
			return out, true
		}
		b = b[i+len(idKey):]
		v, n, _ := parseUint(b)
		b = b[n:]
		if !bytes.HasPrefix(b, distKey) {
			return out, false
		}
		b = b[len(distKey):]
		end := bytes.IndexByte(b, '}')
		if end < 0 {
			return out, false
		}
		d, err := strconv.ParseFloat(string(b[:end]), 64)
		if err != nil {
			return out, false
		}
		out = append(out, neighbor{uint32(v), d})
		b = b[end:]
	}
}

// sameFloat compares a distance from a JSON response with a reference.
func sameFloat(a, b float64) bool { return math.Abs(a-b) <= 1e-12*(1+math.Abs(b)) }

// checkStaticRange verifies a materialized range response against its
// reference: count, completeness and the exact ID set.
func checkStaticRange(b []byte, want answer, scratch *[]uint32) (int, string) {
	count, ok := intAfter(b, `"count":`)
	if !ok {
		return 0, "no count"
	}
	if count != want.n {
		return 0, fmt.Sprintf("count %d, want %d", count, want.n)
	}
	if bytes.Contains(b, []byte(`"truncated":true`)) {
		return 0, "truncated"
	}
	*scratch = scanIDs(b, (*scratch)[:0])
	var sum uint64
	for _, id := range *scratch {
		sum += mix64(id)
	}
	if len(*scratch) != count || sum != want.sum {
		return 0, "result IDs differ from the reference"
	}
	return count, ""
}

// checkKNN verifies a kNN response: as many distinct neighbors as the
// reference has, each at the distance it reports, in ascending order,
// matching the reference distances. rect looks up an object's MBR
// (false when unknown) and live relaxes the match to "no farther than
// the reference", because objects inserted concurrently may come closer
// than every seed object.
func checkKNN(b []byte, p geom.Point, want []float64, rect func(uint32) (geom.Rect, bool), live bool, scratch *[]neighbor) (int, string) {
	nb, ok := scanNeighbors(b, (*scratch)[:0])
	*scratch = nb
	if !ok {
		return 0, "malformed neighbors"
	}
	if len(nb) != len(want) {
		return 0, fmt.Sprintf("%d neighbors, want %d", len(nb), len(want))
	}
	for i, n := range nb {
		r, ok := rect(n.id)
		if !ok {
			return 0, fmt.Sprintf("unknown neighbor id %d", n.id)
		}
		if !sameFloat(n.dist, r.DistToPoint(p)) {
			return 0, fmt.Sprintf("neighbor %d reported at %g, is at %g", n.id, n.dist, r.DistToPoint(p))
		}
		if i > 0 && n.dist < nb[i-1].dist {
			return 0, "neighbors out of order"
		}
		for _, m := range nb[:i] {
			if m.id == n.id {
				return 0, fmt.Sprintf("neighbor %d repeated", n.id)
			}
		}
		if i < len(want) {
			if live && n.dist > want[i] && !sameFloat(n.dist, want[i]) {
				return 0, fmt.Sprintf("neighbor %d at %g, reference has %g", i, n.dist, want[i])
			}
			if !live && !sameFloat(n.dist, want[i]) {
				return 0, fmt.Sprintf("neighbor %d at %g, want %g", i, n.dist, want[i])
			}
		}
	}
	return 0, ""
}

// checkCountRange verifies a count_only response against bounds: exact
// on a static or quiet engine (lo == hi); during a live run the count
// lies between the seed's reference count and that plus every planned
// insert the window meets.
func checkCountRange(b []byte, lo, hi int) (int, string) {
	count, ok := intAfter(b, `"count":`)
	if !ok {
		return 0, "no count"
	}
	if count < lo || count > hi {
		return 0, fmt.Sprintf("count %d outside [%d, %d]", count, lo, hi)
	}
	return 0, ""
}

// checkLiveRange verifies a materialized window on a live engine: it
// holds exactly the reference's seed objects (IDs below nSeed), and
// every other result is a planned insert that meets the window.
func checkLiveRange(b []byte, q *query, nSeed int, inserted map[uint32]geom.Rect, scratch *[]uint32) (int, string) {
	count, ok := intAfter(b, `"count":`)
	if !ok {
		return 0, "no count"
	}
	if bytes.Contains(b, []byte(`"truncated":true`)) {
		return 0, "truncated"
	}
	*scratch = scanIDs(b, (*scratch)[:0])
	if len(*scratch) != count {
		return 0, fmt.Sprintf("count %d, %d results", count, len(*scratch))
	}
	seen, sum := 0, uint64(0)
	for _, id := range *scratch {
		if int(id) < nSeed {
			if _, found := slices.BinarySearch(q.want.ids, id); !found {
				return 0, fmt.Sprintf("object %d does not meet the window", id)
			}
			seen++
			sum += mix64(id)
			continue
		}
		if r, ok := inserted[id]; !ok || !r.Intersects(*q.q.Window) {
			return 0, fmt.Sprintf("object %d was never inserted inside the window", id)
		}
	}
	if seen != q.want.n || sum != q.want.sum {
		return 0, "seed objects differ from the reference"
	}
	return count, ""
}
