package gles

// Host-parallel fragment shading.
//
// The simulator's virtual-time model is unaffected by how fast the host
// computes a draw, so the fragment stage — by far the dominant host cost —
// can be spread over OS threads as long as the results stay bit-identical
// to serial execution:
//
//   - Triangles are shaded by the tile walk (tiled.go): workers claim
//     screen tiles, and each tile walks all its triangles in submission
//     order, so the per-pixel sequence of shades and blends is exactly the
//     serial one.
//   - Points are partitioned across workers only when their pixel rects are
//     pairwise disjoint (checked with a coverage bitmap); each pixel is then
//     written at most once and ordering is irrelevant. Overlapping points —
//     the scatter-add histogram idiom — shade on one worker.
//
// Both require the fragment program to be proven independent of residual
// Env state (Program.WritesBeforeReads, so per-worker Envs cannot diverge
// from the serially reused one) and to write its outputs on every path
// (Program.OutputsAlwaysWritten, so the externally read gl_FragColor
// cannot leak a previous fragment's value). Cycle and texture-fetch
// counters are int64 sums over fragments, so per-worker subtotals merged by
// addition reproduce the serial totals exactly; virtual-time results are
// therefore bit-identical at any worker count.

import (
	"os"
	"runtime"
	"strconv"
	"sync"

	"gles2gpgpu/internal/shader"
)

// parallelMinFragments gates parallel shading: below this estimated
// fragment count, goroutine fan-out and joins cost more than they save.
const parallelMinFragments = 4096

// defaultWorkers picks the worker count from the GLES2GPGPU_WORKERS
// environment variable, falling back to GOMAXPROCS.
func defaultWorkers() int {
	if s := os.Getenv("GLES2GPGPU_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers sets the fragment-shading worker count. n <= 0 restores the
// default (GLES2GPGPU_WORKERS or GOMAXPROCS); 1 forces serial shading.
// Virtual-time results are identical at any setting.
func (c *Context) SetWorkers(n int) {
	if n <= 0 {
		n = defaultWorkers()
	}
	if n == c.workers {
		return
	}
	c.workers = n
	if c.pool != nil {
		c.pool.shutdown()
		c.pool = nil
	}
}

// Workers returns the configured fragment-shading worker count.
func (c *Context) Workers() int { return c.workers }

// workerPool is a fixed set of goroutines draining a task channel. Draws
// never submit nested tasks, so feeding a batch and waiting cannot
// deadlock.
type workerPool struct {
	tasks chan func()
	done  sync.WaitGroup
}

func newWorkerPool(n int) *workerPool {
	p := &workerPool{tasks: make(chan func())}
	p.done.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.done.Done()
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// run executes fns on the pool and returns when all have finished.
func (p *workerPool) run(fns []func()) {
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		fn := fn
		p.tasks <- func() {
			defer wg.Done()
			fn()
		}
	}
	wg.Wait()
}

func (p *workerPool) shutdown() {
	close(p.tasks)
	p.done.Wait()
}

// runWorkers runs walk(0..n-1), one call per worker: inline on the draw
// goroutine when n <= 1, else on the lazily started pool.
func (c *Context) runWorkers(n int, walk func(wi int)) {
	if n <= 1 {
		for wi := 0; wi < n; wi++ {
			walk(wi)
		}
		return
	}
	if c.pool == nil {
		c.pool = newWorkerPool(c.workers)
	}
	fns := make([]func(), n)
	for wi := range fns {
		wi := wi
		fns[wi] = func() { walk(wi) }
	}
	c.pool.run(fns)
}

// fsPool returns the Env pool for the current fragment program, recreating
// it when the program changes.
func (c *Context) fsPool(fp *shader.Program) *shader.EnvPool {
	if c.fsEnvPool == nil || c.fsEnvPool.Program() != fp {
		c.fsEnvPool = shader.NewEnvPool(fp)
	}
	return c.fsEnvPool
}

// parallelEligible reports whether a draw with the given fragment program
// and estimated fragment count may shade on more than one worker.
func (c *Context) parallelEligible(fp *shader.Program, estFrags int64) bool {
	return c.workers >= 2 && proven(fp) && estFrags >= parallelMinFragments
}

// envSampler builds a draw's generic texture-sampling closure, which
// shaders consult only for slots without a specialised fetch function.
// sampleTexture only reads texture state, so sharing it across workers is
// safe.
func envSampler(samplers []*Texture) shader.SampleFunc {
	return func(idx int, u, v float32) shader.Vec4 {
		if idx < 0 || idx >= len(samplers) {
			return shader.Vec4{0, 0, 0, 1}
		}
		return shader.Vec4(sampleTexture(samplers[idx], u, v))
	}
}

// pointRect is the precomputed raster footprint of one point sprite.
type pointRect struct {
	vi     int
	x0, y0 int
	n      int
	sx, sy float64
	size   float64
	invW   float32
}

// pointRectsDisjoint marks every clipped target pixel of every rect in a
// coverage bitmap and reports whether any pixel is covered twice. The
// bitmap is O(target pixels / 8) bytes and reused across draws.
func (c *Context) pointRectsDisjoint(rects []pointRect, tgt renderTarget, vpX, vpY, vpW, vpH int) bool {
	words := (tgt.w*tgt.h + 63) / 64
	if cap(c.coverScratch) < words {
		c.coverScratch = make([]uint64, words)
	}
	cover := c.coverScratch[:words]
	for i := range cover {
		cover[i] = 0
	}
	for i := range rects {
		r := &rects[i]
		for py := r.y0; py < r.y0+r.n; py++ {
			for px := r.x0; px < r.x0+r.n; px++ {
				tx, ty := vpX+px, vpY+py
				if tx < 0 || ty < 0 || tx >= tgt.w || ty >= tgt.h || px < 0 || py < 0 || px >= vpW || py >= vpH {
					continue
				}
				bit := ty*tgt.w + tx
				if cover[bit/64]&(1<<uint(bit%64)) != 0 {
					return false
				}
				cover[bit/64] |= 1 << uint(bit%64)
			}
		}
	}
	return true
}
