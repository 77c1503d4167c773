// Package volrend implements the paper's Volrend workload: front-to-back
// ray casting through a read-only 3-D volume (eight voxels packed per shared
// word), with scanline tasks distributed through stealing task queues and a
// better initial assignment of tasks to processors (the SVM optimization the
// paper mentions).
package volrend

import (
	"fmt"
	"math"

	"svmsim/internal/apps/appkit"
	"svmsim/internal/machine"
	"svmsim/internal/shm"
)

// Params sizes the problem.
type Params struct {
	Vol           int // volume side (voxels)
	Width, Height int
	StepsPerRay   int
	SampleCycles  uint64
}

// Small returns a test-sized problem.
func Small() Params { return Params{Vol: 32, Width: 64, Height: 64, StepsPerRay: 40, SampleCycles: 80} }

// Default returns the benchmark-sized problem.
func Default() Params {
	return Params{Vol: 64, Width: 96, Height: 96, StepsPerRay: 60, SampleCycles: 80}
}

type state struct {
	p      Params
	dens   []uint8    // density of every voxel, x fastest (host only)
	vol    appkit.Vec // packed: 8 voxels (bytes) per word
	img    appkit.Vec
	queues *appkit.TaskQueues
	want   []float64
}

// New builds the application.
func New(p Params) machine.App {
	return machine.App{
		Name:  "Volrend",
		Setup: func(w *shm.World) any { return setup(w, p) },
		Body:  body,
		Check: check,
	}
}

// density is the synthetic volume function (two blobs plus a shell).
func density(p Params, x, y, z int) uint8 {
	fx := float64(x)/float64(p.Vol)*2 - 1
	fy := float64(y)/float64(p.Vol)*2 - 1
	fz := float64(z)/float64(p.Vol)*2 - 1
	d1 := math.Exp(-8 * ((fx-0.3)*(fx-0.3) + fy*fy + fz*fz))
	d2 := math.Exp(-10 * (fx*fx + (fy+0.4)*(fy+0.4) + (fz-0.2)*(fz-0.2)))
	r := math.Sqrt(fx*fx + fy*fy + fz*fz)
	shell := math.Exp(-40 * (r - 0.8) * (r - 0.8))
	v := 255 * math.Min(1, d1+d2+0.5*shell)
	return uint8(v)
}

func setup(w *shm.World, p Params) *state {
	s := &state{p: p}
	words := p.Vol * p.Vol * p.Vol / 8
	s.vol = appkit.AllocVecPages(w, words)
	appkit.BlockHome(w, s.vol, words)
	s.img = appkit.AllocVecPages(w, p.Width*p.Height)
	s.queues = appkit.NewTaskQueues(w, w.Procs(), p.Height+4)
	s.dens = densities(p)
	s.want = reference(p, func(x, y, z int) uint8 { return s.dens[(z*p.Vol+y)*p.Vol+x] })
	return s
}

// densities evaluates density at every voxel, x fastest: the order of the
// packed volume's bytes.
func densities(p Params) []uint8 {
	d := make([]uint8, 0, p.Vol*p.Vol*p.Vol)
	for z := 0; z < p.Vol; z++ {
		for y := 0; y < p.Vol; y++ {
			for x := 0; x < p.Vol; x++ {
				d = append(d, density(p, x, y, z))
			}
		}
	}
	return d
}

// reference renders the image on the host, sampling the volume with sample.
func reference(p Params, sample func(x, y, z int) uint8) []float64 {
	img := make([]float64, p.Width*p.Height)
	for y := 0; y < p.Height; y++ {
		for x := 0; x < p.Width; x++ {
			img[y*p.Width+x] = castRay(p, x, y, sample)
		}
	}
	return img
}

// voxelWordIndex maps voxel coordinates to (word, byte) in the packed
// volume.
func voxelWordIndex(p Params, x, y, z int) (word, byteOff int) {
	lin := (z*p.Vol+y)*p.Vol + x
	return lin / 8, lin % 8
}

// castRay integrates density front-to-back along an orthographic ray.
func castRay(p Params, px, py int, sample func(x, y, z int) uint8) float64 {
	// Orthographic rays along +z through pixel (px, py) scaled to volume.
	fx := float64(px) / float64(p.Width) * float64(p.Vol-1)
	fy := float64(py) / float64(p.Height) * float64(p.Vol-1)
	var acc, transp float64 = 0, 1
	dz := float64(p.Vol-1) / float64(p.StepsPerRay)
	for step := 0; step < p.StepsPerRay; step++ {
		z := float64(step) * dz
		v := float64(sample(int(fx), int(fy), int(z))) / 255
		alpha := v * 0.12
		acc += transp * alpha * v
		transp *= 1 - alpha
		if transp < 0.02 {
			break
		}
	}
	return acc
}

func body(c *shm.Proc, st any) {
	s := st.(*state)
	p := s.p
	// Parallel init of the packed volume by block (first-touch honors the
	// explicit block distribution).
	words := p.Vol * p.Vol * p.Vol / 8
	lo, hi := c.Block(words)
	for wIdx := lo; wIdx < hi; wIdx++ {
		var packed uint64
		for b := 0; b < 8; b++ {
			packed |= uint64(s.dens[wIdx*8+b]) << (8 * b)
		}
		s.vol.SetU(c, wIdx, packed)
	}
	// Better initial assignment: contiguous scanline blocks per processor.
	sLo, sHi := c.Block(p.Height)
	for y := sLo; y < sHi; y++ {
		s.queues.Push(c, c.ID, int64(y))
	}
	c.Barrier()

	sample := func(x, y, z int) uint8 {
		word, off := voxelWordIndex(p, x, y, z)
		v := s.vol.GetU(c, word)
		return uint8(v >> (8 * off))
	}
	for {
		task, ok := s.queues.Take(c, c.ID)
		if !ok {
			break
		}
		y := int(task)
		for x := 0; x < p.Width; x++ {
			s.img.SetF(c, y*p.Width+x, castRay(p, x, y, sample))
			c.Compute(uint64(p.StepsPerRay) * p.SampleCycles / 4)
		}
	}
	c.Barrier()
}

// check compares the shared image with the reference render.
func check(w *shm.World, st any) error {
	s := st.(*state)
	for i, want := range s.want {
		addr := s.img.At(i)
		home := w.Sys.Home(w.Sys.PageOf(addr))
		if home < 0 {
			return fmt.Errorf("volrend: pixel %d never written", i)
		}
		got := math.Float64frombits(w.Sys.Nodes[home].ReadWord(addr))
		if math.Abs(got-want) > 1e-9 {
			return fmt.Errorf("volrend: pixel %d = %g, want %g", i, got, want)
		}
	}
	return nil
}
