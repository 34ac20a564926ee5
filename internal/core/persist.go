package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/twolayer/twolayer/internal/geom"
	"github.com/twolayer/twolayer/internal/spatial"
)

// Index persistence: a compact binary snapshot of the built structure so
// a static index can be memory-mapped-in-spirit (read back) without
// re-partitioning the data. The format stores the grid geometry and the
// per-tile class partitions; decomposed tables are derived data and are
// rebuilt on load when the index was saved in 2-layer+ mode. Exact
// geometries are not part of the snapshot (persist them separately, e.g.
// as WKT via package dataio) — a loaded index supports all MBR
// (filtering) queries.
//
// Layout (little endian):
//
//	magic "TL2I" | version u32
//	nx u32 | ny u32 | space 4xf64 | flags u32 | size u64
//	[v2+] epoch u64
//	tileCount u64
//	per tile: tileID u32 | 4x class length u32 | entries (id u32, 4xf64)
//
// Version history: v1 has no epoch field (loaded indices start at epoch
// 0); v2 carries the copy-on-write epoch of the snapshot so a checkpoint
// of a Live index records its exact log position (see internal/wal).
// WriteTo always emits the current version; Load accepts both.

const (
	persistMagic   = "TL2I"
	persistVersion = 2

	flagDecompose = 1 << 0
)

// WriteTo serializes the index structure. It returns the number of bytes
// written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	return ix.writeVersion(w, persistVersion)
}

// writeVersion emits the snapshot in the given format version. Only the
// current version is written in production; older versions remain
// writable so the cross-version tests exercise real v1 bytes.
func (ix *Index) writeVersion(w io.Writer, version uint32) (int64, error) {
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}

	write := func(v any) error { return binary.Write(cw, binary.LittleEndian, v) }

	if _, err := cw.Write([]byte(persistMagic)); err != nil {
		return cw.n, err
	}
	if err := write(version); err != nil {
		return cw.n, err
	}
	sp := ix.opts.Space
	hdr := []any{
		uint32(ix.g.NX), uint32(ix.g.NY),
		sp.MinX, sp.MinY, sp.MaxX, sp.MaxY,
		ix.flags(), uint64(ix.size),
	}
	if version >= 2 {
		hdr = append(hdr, ix.epoch)
	}
	hdr = append(hdr, uint64(ix.ntiles))
	for _, v := range hdr {
		if err := write(v); err != nil {
			return cw.n, err
		}
	}
	for id, t := range ix.allTiles() {
		if err := write(uint32(id)); err != nil {
			return cw.n, err
		}
		for c := 0; c < 4; c++ {
			if err := write(uint32(len(t.classes[c]))); err != nil {
				return cw.n, err
			}
		}
		for c := 0; c < 4; c++ {
			for i := range t.classes[c] {
				e := &t.classes[c][i]
				rec := []any{e.ID, e.Rect.MinX, e.Rect.MinY, e.Rect.MaxX, e.Rect.MaxY}
				for _, v := range rec {
					if err := write(v); err != nil {
						return cw.n, err
					}
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

func (ix *Index) flags() uint32 {
	var f uint32
	if ix.opts.Decompose {
		f |= flagDecompose
	}
	return f
}

// countWriter tracks bytes written.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads an index snapshot written by WriteTo.
func Load(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	read := func(v any) error { return binary.Read(br, binary.LittleEndian, v) }

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: reading snapshot magic: %w", err)
	}
	if string(magic) != persistMagic {
		return nil, fmt.Errorf("core: not an index snapshot (magic %q)", magic)
	}
	var version uint32
	if err := read(&version); err != nil {
		return nil, err
	}
	if version < 1 || version > persistVersion {
		return nil, fmt.Errorf("core: unsupported snapshot version %d", version)
	}

	var nx, ny, flags uint32
	var size, epoch, tileCount uint64
	var space geom.Rect
	fields := []any{&nx, &ny, &space.MinX, &space.MinY, &space.MaxX, &space.MaxY,
		&flags, &size}
	if version >= 2 {
		fields = append(fields, &epoch)
	}
	fields = append(fields, &tileCount)
	for _, v := range fields {
		if err := read(v); err != nil {
			return nil, fmt.Errorf("core: reading snapshot header: %w", err)
		}
	}
	if nx == 0 || ny == 0 || nx > 1<<20 || ny > 1<<20 {
		return nil, fmt.Errorf("core: implausible grid %dx%d in snapshot", nx, ny)
	}
	if !space.Valid() || space.Width() <= 0 || space.Height() <= 0 {
		return nil, fmt.Errorf("core: invalid space %v in snapshot", space)
	}
	if tileCount > uint64(nx)*uint64(ny) {
		return nil, fmt.Errorf("core: %d tiles for a %dx%d grid", tileCount, nx, ny)
	}

	// Decode through the sparse directory regardless of grid size: a
	// dense directory is O(nx*ny) to allocate, which a corrupt header
	// could demand before a single tile byte has been validated. The
	// directory is densified below once the whole snapshot decoded.
	ix := New(Options{NX: int(nx), NY: int(ny), Space: space,
		Decompose: flags&flagDecompose != 0, SparseDirectory: true})
	ix.opts.SparseDirectory = false // restore the default directory policy
	ix.size = int(size)
	ix.epoch = epoch
	// Claimed counts are untrusted until the bytes backing them have
	// actually been read: preallocations are capped so a corrupt header
	// cannot demand gigabytes before the decoder hits EOF.
	const preallocCap = 1 << 10

	maxTileID := uint32(nx) * uint32(ny)
	for slot := uint64(0); slot < tileCount; slot++ {
		var tileID uint32
		if err := read(&tileID); err != nil {
			return nil, fmt.Errorf("core: reading tile %d: %w", slot, err)
		}
		if tileID >= maxTileID {
			return nil, fmt.Errorf("core: tile ID %d out of range", tileID)
		}
		t := ix.newTile(int32(tileID))
		var lens [4]uint32
		total := uint64(0)
		for c := 0; c < 4; c++ {
			if err := read(&lens[c]); err != nil {
				return nil, err
			}
			total += uint64(lens[c])
		}
		if total > size*4+4 {
			return nil, fmt.Errorf("core: tile %d claims %d entries for %d objects", slot, total, size)
		}
		for c := 0; c < 4; c++ {
			if lens[c] == 0 {
				continue
			}
			entries := make([]spatial.Entry, 0, min(uint64(lens[c]), preallocCap))
			for i := uint64(0); i < uint64(lens[c]); i++ {
				var e spatial.Entry
				for _, v := range []any{&e.ID, &e.Rect.MinX, &e.Rect.MinY, &e.Rect.MaxX, &e.Rect.MaxY} {
					if err := read(v); err != nil {
						return nil, fmt.Errorf("core: reading tile %d entries: %w", slot, err)
					}
				}
				if !e.Rect.Valid() || math.IsInf(e.Rect.MinX, 0) {
					return nil, fmt.Errorf("core: corrupt entry rect %v", e.Rect)
				}
				entries = append(entries, e)
			}
			t.classes[c] = entries
		}
	}
	// Densify under the same size cutoff New applies, with one extra
	// guard: the directory must be within a constant factor of the tile
	// data it indexes. A near-empty snapshot of a huge grid keeps the
	// sparse map — the right call memory-wise, and it keeps the directory
	// allocation proportional to the bytes actually decoded (a corrupt
	// header cannot demand a 128 MB directory for three tiles of data).
	if n := int(nx) * int(ny); n <= ix.opts.DenseDirectoryLimit &&
		n <= max(1<<20, 256*ix.ntiles) {
		sparse := ix.sparse
		ix.dense, ix.sparse = newDenseDir(n), nil
		for id, slot := range sparse {
			ix.setDirSlot(id, slot)
		}
	}
	if ix.opts.Decompose {
		ix.BuildDecomposed()
	}
	ix.buildCountIndex()
	return ix, nil
}
