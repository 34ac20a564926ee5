package core

import (
	"iter"
	"maps"
	"slices"
	"sync/atomic"
)

// Paged tile storage. The occupied tiles live in fixed-size pages behind
// a page table, indexed by slot, and the dense tile directory (tile ID ->
// slot) is paged the same way, indexed by tile ID. CloneCOW copies only
// the tile page table. A mutation on the clone then copies just the pages
// it writes: the tile pages holding the tiles it touches and, when it
// creates a tile, the directory page and the tail tile page. A publish
// therefore costs what its batch touched, not what the index holds.
//
// Every page records the index that owns it: New and CloneCOW each draw a
// fresh owner token, so a clone owns none of the pages it shares with its
// source. A write goes in place when the page's owner is the writing
// index and into a private copy otherwise. One level down, a tile page
// also marks which of its tiles own their class slices: a page copy
// starts with no marks, so the first mutation of a tile after the copy
// clones its slices. A directly built index owns all its pages with every
// tile marked, so the non-MVCC path never copies. Ownership is separate
// from the epoch, so SetEpoch (WAL replay raises it per replayed batch)
// never makes an index copy its own pages.
//
// Smaller tile pages make a touched page cheaper to copy but lengthen the
// page table every CloneCOW copies. BenchmarkLiveApply/live (one insert
// per publish, 200K ROADS objects, 2-CPU x86-64) allocated 16/22/28 KB
// per publish at 128²/512²/1024² grids with 64-tile pages, 21/22/25 KB
// with 128 and 35/33/35 KB with 256, with no resolvable difference in
// ns/op; 128 is flattest across grids. A publish that populates a new
// tile copies the directory page table (8·NX·NY/dirPageSize bytes) and
// one directory page (4·dirPageSize bytes); their sum is smallest near
// dirPageSize = sqrt(2·NX·NY), 724 at 512² and 1448 at 1024².
const (
	tilePageShift = 7
	tilePageSize  = 1 << tilePageShift
	tilePageMask  = tilePageSize - 1

	dirPageShift = 10
	dirPageSize  = 1 << dirPageShift
	dirPageMask  = dirPageSize - 1
)

// tilePage holds tilePageSize consecutive slots of the tile pool together
// with their grid tile IDs (the reverse directory). Bit i of owned is set
// when tile i's class slices belong to this page alone, so they may be
// mutated in place.
type tilePage struct {
	tiles [tilePageSize]tile
	ids   [tilePageSize]int32
	owner uint64
	owned [tilePageSize / 64]uint64
}

// dirPage is one page of the dense directory: the slot of each tile ID it
// covers, -1 for an empty tile.
type dirPage struct {
	slots [dirPageSize]int32
	owner uint64
}

// pageOwners issues owner tokens. Token 0 is never issued, so a page
// with owner 0 is read-only for every index.
var pageOwners atomic.Uint64

func newOwner() uint64 { return pageOwners.Add(1) }

// emptyDirPage backs every all-empty page of every dense directory, so a
// sparsely occupied grid allocates directory pages only where tiles are.
// It is never written: its owner 0 makes the first write copy it.
var emptyDirPage = func() *dirPage {
	p := &dirPage{}
	for i := range p.slots {
		p.slots[i] = -1
	}
	return p
}()

// newDenseDir returns an empty dense directory over n tile IDs.
func newDenseDir(n int) []*dirPage {
	d := make([]*dirPage, (n+dirPageMask)>>dirPageShift)
	for i := range d {
		d[i] = emptyDirPage
	}
	return d
}

// slotAt returns the tile-pool slot for (tx,ty), or -1 when the tile is
// empty.
func (ix *Index) slotAt(tx, ty int) int32 {
	id := ix.g.TileID(tx, ty)
	if ix.dense != nil {
		return ix.dense[id>>dirPageShift].slots[id&dirPageMask]
	}
	if slot, ok := ix.sparse[int32(id)]; ok {
		return slot
	}
	return -1
}

// tileAt returns the tile stored for (tx,ty), or nil when empty. Every
// read kernel finds its tiles here, so it must stay inlinable.
func (ix *Index) tileAt(tx, ty int) *tile {
	if slot := ix.slotAt(tx, ty); slot >= 0 {
		return &ix.pages[slot>>tilePageShift].tiles[slot&tilePageMask]
	}
	return nil
}

// slotTile returns the tile in slot and its grid tile ID, for reading.
func (ix *Index) slotTile(slot int32) (*tile, int32) {
	pg := ix.pages[slot>>tilePageShift]
	return &pg.tiles[slot&tilePageMask], pg.ids[slot&tilePageMask]
}

// allTiles iterates the occupied tiles in slot order, yielding each
// tile's grid ID and a pointer into its page. The pointers are for
// reading; mutations go through writableTile.
func (ix *Index) allTiles() iter.Seq2[int32, *tile] {
	return func(yield func(int32, *tile) bool) {
		for p, pg := range ix.pages {
			for i := range ix.pageLen(p) {
				if !yield(pg.ids[i], &pg.tiles[i]) {
					return
				}
			}
		}
	}
}

// pageLen returns the number of occupied slots in tile page p.
func (ix *Index) pageLen(p int) int {
	return min(tilePageSize, ix.ntiles-p<<tilePageShift)
}

// ownTilePage returns tile page p, first replacing it with a private copy
// when another index owns it. The copy shares every tile's class slices
// with the original, so none of its tiles is marked owned. The page table
// itself is always private (CloneCOW copies it).
func (ix *Index) ownTilePage(p int) *tilePage {
	pg := ix.pages[p]
	if pg.owner != ix.owner {
		cp := *pg
		cp.owner = ix.owner
		cp.owned = [len(cp.owned)]uint64{}
		pg = &cp
		ix.pages[p] = pg
	}
	return pg
}

// writableTile returns the tile in slot ready for in-place mutation: its
// page is privately owned by ix, and so are its class slices, which are
// cloned on the first mutation after a page copy.
func (ix *Index) writableTile(slot int32) *tile {
	pg := ix.ownTilePage(int(slot >> tilePageShift))
	i := slot & tilePageMask
	t := &pg.tiles[i]
	if bit := uint64(1) << (i & 63); pg.owned[i>>6]&bit == 0 {
		for c, cl := range t.classes {
			if len(cl) > 0 {
				t.classes[c] = slices.Clone(cl)
			} else {
				t.classes[c] = nil // drop any backing shared with other snapshots
			}
		}
		pg.owned[i>>6] |= bit
	}
	return t
}

// tileFor returns the tile for (tx,ty) ready for in-place mutation,
// allocating it if needed.
func (ix *Index) tileFor(tx, ty int) *tile {
	if slot := ix.slotAt(tx, ty); slot >= 0 {
		return ix.writableTile(slot)
	}
	return ix.newTile(int32(ix.g.TileID(tx, ty)))
}

// newTile appends an empty tile for grid tile id to the pool and records
// it in the directory. The tile is ready for in-place mutation.
func (ix *Index) newTile(id int32) *tile {
	if ix.sharedDir {
		ix.unshareDir()
	}
	slot := int32(ix.ntiles)
	if ix.ntiles&tilePageMask == 0 {
		ix.pages = append(ix.pages, &tilePage{owner: ix.owner})
	}
	pg := ix.ownTilePage(int(slot >> tilePageShift))
	i := slot & tilePageMask
	pg.tiles[i] = tile{}
	pg.ids[i] = id
	pg.owned[i>>6] |= 1 << (i & 63)
	ix.ntiles++
	ix.setDirSlot(id, slot)
	return &pg.tiles[i]
}

// setDirSlot points the directory entry of tile id at slot, copying the
// dense directory page first when another index owns it.
func (ix *Index) setDirSlot(id, slot int32) {
	if ix.dense == nil {
		ix.sparse[id] = slot
		return
	}
	p := id >> dirPageShift
	pg := ix.dense[p]
	if pg.owner != ix.owner {
		cp := *pg
		cp.owner = ix.owner
		pg = &cp
		ix.dense[p] = pg
	}
	pg.slots[id&dirPageMask] = slot
}

// unshareDir gives a cloned index a private directory before its first
// tile allocation, so directory writes never reach older snapshots. For
// the dense directory this copies only the page table; setDirSlot then
// copies the one page it writes. The sparse map has no pages and is
// copied whole: it is the one copy-on-write path still O(tiles), and it
// serves only grids past DenseDirectoryLimit.
func (ix *Index) unshareDir() {
	if ix.dense != nil {
		ix.dense = slices.Clone(ix.dense)
	} else {
		ix.sparse = maps.Clone(ix.sparse)
	}
	ix.sharedDir = false
}
