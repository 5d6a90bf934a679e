package gles

// The triangle tile walk: the one way the engine shades triangles.
//
// The paper's platforms (VideoCore IV, PowerVR SGX) are tile-based
// deferred renderers: the hardware bins primitives into fixed-size screen
// tiles and shades tile-by-tile so the working set of framebuffer writes
// and texture reads stays on-chip. The host engine uses the same
// traversal. Triangles are binned once per draw into tileSize²-pixel
// tiles, the non-empty tiles are compacted into a work list, and workers
// claim tiles off an atomic counter, each shading its tiles through one
// fragSink (sink.go) — finishing a cheap tile immediately frees a worker
// for the next.
//
// The dispatch rule is computed from the draw, never from an option:
//
//   - An unproven fragment program (no WritesBeforeReads +
//     OutputsAlwaysWritten proofs) may observe residual Env state, so it
//     walks one tile over the whole target with one worker on the
//     context's own fsEnv. RasterizeRect clips to each triangle's bounds,
//     so that is exactly the serial submission-order walk.
//   - A proven program walks DefaultTileSize tiles on
//     min(workers, tiles to shade) workers, or one worker when the draw
//     is estimated below parallelMinFragments (fan-out and joins would
//     cost more than they save).
//   - Coherence (coherence.go) is a per-draw flag plus a per-tile decision:
//     before the walk, tiles whose cached inputs match are replayed and
//     dropped from the work list; during it, workers sample through
//     footprint-tracking samplers and snapshot each tile they finish;
//     after it, the snapshots are merged into the cache.
//
// Bit-identity: every pixel belongs to exactly one tile, and each tile
// walks ALL triangles overlapping it in submission order, so the per-pixel
// sequence of shades and blends is exactly the serial one restricted to
// that pixel. Fragment ORDER across pixels differs from serial, which is
// why only proven programs (whose fragments are independent) walk more
// than one tile. Counters are int64 sums over fragments, so per-worker
// subtotals merged by addition reproduce the serial totals at any tile
// size and worker count.

import (
	"sync/atomic"

	"gles2gpgpu/internal/raster"
	"gles2gpgpu/internal/shader"
)

// tileBin is one non-empty screen tile: its inclusive pixel rectangle and
// the indices of the set-up triangles whose bounding boxes overlap it, in
// submission order.
type tileBin struct {
	x0, y0, x1, y1 int
	tris           []int32
}

// binTiles bins triangle setups into tileSize-square screen tiles covering
// their joint bounding box, returning only non-empty tiles in row-major
// order. The triangle index lists come from one flat backing array sized
// by a counting pass, so binning allocates O(tiles + overlaps) regardless
// of triangle count.
func binTiles(setups []raster.Triangle, tileSize int) []tileBin {
	minX, minY := int(^uint(0)>>1), int(^uint(0)>>1)
	maxX, maxY := -minX-1, -minY-1
	for i := range setups {
		x0, y0, x1, y1 := setups[i].Bounds()
		if x0 < minX {
			minX = x0
		}
		if y0 < minY {
			minY = y0
		}
		if x1 > maxX {
			maxX = x1
		}
		if y1 > maxY {
			maxY = y1
		}
	}
	if minX > maxX || minY > maxY {
		return nil
	}
	tx0g, ty0g := minX/tileSize, minY/tileSize
	tx1g, ty1g := maxX/tileSize, maxY/tileSize
	ntx, nty := tx1g-tx0g+1, ty1g-ty0g+1

	// Counting pass: overlaps per tile.
	counts := make([]int32, ntx*nty)
	for i := range setups {
		tx0, ty0, tx1, ty1, ok := setups[i].TileRange(tileSize, tileSize)
		if !ok {
			continue
		}
		for ty := ty0; ty <= ty1; ty++ {
			row := (ty - ty0g) * ntx
			for tx := tx0; tx <= tx1; tx++ {
				counts[row+tx-tx0g]++
			}
		}
	}

	// Prefix sums into one flat index array.
	total := int32(0)
	starts := make([]int32, len(counts)+1)
	for i, n := range counts {
		starts[i] = total
		total += n
	}
	starts[len(counts)] = total
	flat := make([]int32, total)
	fill := make([]int32, len(counts))
	for i := range setups {
		tx0, ty0, tx1, ty1, ok := setups[i].TileRange(tileSize, tileSize)
		if !ok {
			continue
		}
		for ty := ty0; ty <= ty1; ty++ {
			row := (ty - ty0g) * ntx
			for tx := tx0; tx <= tx1; tx++ {
				cell := row + tx - tx0g
				flat[starts[cell]+fill[cell]] = int32(i)
				fill[cell]++
			}
		}
	}

	// Compact the non-empty tiles.
	tiles := make([]tileBin, 0, len(counts))
	for ty := 0; ty < nty; ty++ {
		for tx := 0; tx < ntx; tx++ {
			cell := ty*ntx + tx
			if counts[cell] == 0 {
				continue
			}
			px0 := (tx0g + tx) * tileSize
			py0 := (ty0g + ty) * tileSize
			tiles = append(tiles, tileBin{
				x0: px0, y0: py0, x1: px0 + tileSize - 1, y1: py0 + tileSize - 1,
				tris: flat[starts[cell]:starts[cell+1]],
			})
		}
	}
	return tiles
}

// serialTileSize is a tile edge no target reaches: binning with it yields
// one tile over the joint bounding box of the draw.
const serialTileSize = 1 << 30

// shadeTriangles shades set-up triangles with the tile walk described in
// the file comment and returns the draw measurement.
func (c *Context) shadeTriangles(p *Program, tgt renderTarget, setups []raster.Triangle, vpX, vpY int, samplers []*Texture, texFns []shader.TexFunc, sample shader.SampleFunc, estFrags int64) drawStats {
	fp := p.fsProg
	tileSize := c.tileSize
	if !proven(fp) {
		tileSize = serialTileSize
	}
	tiles := binTiles(setups, tileSize)

	st := drawStats{valid: true}
	var coh *cohWalk
	if c.coherentEligible(fp, tgt, samplers, len(tiles)) {
		coh, tiles = c.cohBegin(p, tgt, setups, tiles, vpX, vpY, samplers, &st)
	}

	nw := min(1, len(tiles))
	if c.parallelEligible(fp, estFrags) {
		nw = min(c.workers, len(tiles))
	}
	proto := c.newFragSink(p, tgt, sample)
	var next int64
	results := make([]drawStats, nw)
	c.runWorkers(nw, func(wi int) {
		fns, tr := texFns, (*cohTracker)(nil)
		if coh != nil {
			fns, tr = coh.workerSamplers()
		}
		sink := proto.open(fns)
		emit := func(x, y int, fc shader.Vec4, varyings []shader.Vec4) {
			px, py := vpX+x, vpY+y
			if px < 0 || py < 0 || px >= tgt.w || py >= tgt.h {
				return
			}
			sink.add(px, py, fc, varyings)
		}
		for {
			ti := int(atomic.AddInt64(&next, 1)) - 1
			if ti >= len(tiles) {
				results[wi] = sink.finish()
				return
			}
			tile := &tiles[ti]
			if coh != nil {
				coh.beginTile(ti, tile, vpX, vpY, sink, tr)
			}
			for _, tri := range tile.tris {
				setups[tri].RasterizeRect(tile.x0, tile.y0, tile.x1, tile.y1, emit)
			}
			if coh != nil {
				coh.endTile(ti, tile, sink, tr)
			}
		}
	})
	for _, r := range results {
		st.add(r)
	}
	if coh != nil {
		coh.store(tiles)
	}
	return st
}
