// Package mbench implements the microbenchmarks the paper characterizes
// systems with: the STREAM memory-bandwidth benchmark (Copy, Scale, Add,
// Triad over an OpenMP-style thread sweep) and an Intel-MPI-Benchmark-
// style PingPong (message time over a size sweep, intra- and inter-node).
//
// Each benchmark comes in two forms: a simulated form that samples a
// modeled machine.System (how the CSP Option Dashboard characterizes
// catalog systems in this reproduction) and a host form that measures the
// machine the library is running on with real memory traffic and real
// goroutine message passing.
package mbench

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/fit"
	"repro/internal/machine"
	"repro/internal/units"
)

// StreamPoint is one STREAM observation: sustained bandwidth with a given
// number of worker threads.
type StreamPoint struct {
	Threads       int
	BandwidthMBps float64
}

// StreamSweepSim samples the modeled system's STREAM Copy bandwidth for
// thread counts 1..max (one thread per core, or per vCPU when hyper is
// set, mirroring the paper's "CSP-2 Hyp." instance). samples draws per
// thread count are averaged; rng may be nil for the noiseless curve.
func StreamSweepSim(sys *machine.System, hyper bool, samples int, rng *rand.Rand) []StreamPoint {
	maxThreads := sys.CoresPerNode
	if hyper {
		maxThreads *= sys.VCPUsPerCore
	}
	if samples < 1 {
		samples = 1
	}
	pts := make([]StreamPoint, 0, maxThreads)
	for n := 1; n <= maxThreads; n++ {
		var sum float64
		for s := 0; s < samples; s++ {
			if rng == nil {
				sum += sys.Mem.Bandwidth(float64(n))
			} else {
				sum += sys.SampleBandwidth(n, hyper, rng)
			}
		}
		pts = append(pts, StreamPoint{Threads: n, BandwidthMBps: sum / float64(samples)})
	}
	return pts
}

// FitStream fits the paper's two-line model (Eq. 8) to a STREAM sweep.
func FitStream(pts []StreamPoint) (fit.TwoLine, error) {
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i] = float64(p.Threads)
		ys[i] = p.BandwidthMBps
	}
	return fit.TwoLineLSQ(xs, ys)
}

// PingPongPoint is one PingPong observation: one-way message time for a
// given payload.
type PingPongPoint struct {
	Bytes  float64
	TimeUS float64
}

// DefaultMessageSizes returns the IMB-style size sweep: 0 bytes plus
// powers of two from 1 B to 4 MiB.
func DefaultMessageSizes() []float64 {
	sizes := []float64{0}
	for b := 1.0; b <= 4*1024*1024; b *= 2 {
		sizes = append(sizes, b)
	}
	return sizes
}

// PingPongSweepSim samples the modeled system's message time over the
// given sizes. intra selects the on-node link; samples draws per size are
// averaged; rng may be nil for the noiseless curve.
func PingPongSweepSim(sys *machine.System, intra bool, sizes []float64, samples int, rng *rand.Rand) []PingPongPoint {
	if samples < 1 {
		samples = 1
	}
	pts := make([]PingPongPoint, 0, len(sizes))
	for _, m := range sizes {
		var sum float64
		for s := 0; s < samples; s++ {
			if rng == nil {
				link := sys.InterNode
				if intra {
					link = sys.IntraNode
				}
				sum += link.TimeUS(m)
			} else {
				sum += sys.SampleMessageTimeUS(m, intra, rng)
			}
		}
		pts = append(pts, PingPongPoint{Bytes: m, TimeUS: sum / float64(samples)})
	}
	return pts
}

// PCIeSweepSim samples host-device transfer times over the given sizes on
// a GPU instance (the bandwidthTest-style sweep that characterizes
// Eq. 2's t_CPU-GPU term). It returns an error-free sweep only for GPU
// systems; CPU-only systems yield nil.
func PCIeSweepSim(sys *machine.System, sizes []float64, samples int, rng *rand.Rand) []PingPongPoint {
	if sys.GPU == nil {
		return nil
	}
	if samples < 1 {
		samples = 1
	}
	pts := make([]PingPongPoint, 0, len(sizes))
	for _, m := range sizes {
		var sum float64
		for s := 0; s < samples; s++ {
			if rng == nil {
				sum += sys.GPU.PCIe.TimeUS(m)
			} else {
				sum += sys.SamplePCIeTimeUS(m, rng)
			}
		}
		pts = append(pts, PingPongPoint{Bytes: m, TimeUS: sum / float64(samples)})
	}
	return pts
}

// FitPingPong fits the linear communication model (Eq. 12) to a PingPong
// sweep the way the paper does: latency is pinned to the zero-byte
// message time, and bandwidth is fitted over all points. The returned
// link model carries bandwidth in MB/s and latency in microseconds.
func FitPingPong(pts []PingPongPoint) (machine.LinkModel, fit.Linear, error) {
	if len(pts) < 2 {
		return machine.LinkModel{}, fit.Linear{}, fmt.Errorf("mbench: need at least 2 PingPong points, have %d", len(pts))
	}
	var latency float64
	zeroSeen := false
	var xs, ys []float64
	for _, p := range pts {
		if p.Bytes == 0 {
			latency = p.TimeUS
			zeroSeen = true
			continue
		}
		xs = append(xs, p.Bytes)
		ys = append(ys, p.TimeUS)
	}
	if !zeroSeen {
		// Fall back to the smallest message as the latency anchor.
		smallest := 0
		for i := range pts {
			if pts[i].Bytes < pts[smallest].Bytes {
				smallest = i
			}
		}
		latency = pts[smallest].TimeUS
	}
	line, err := fit.LinearThroughPoint(xs, ys, latency)
	if err != nil {
		return machine.LinkModel{}, fit.Linear{}, err
	}
	if line.Slope <= 0 {
		return machine.LinkModel{}, line, fmt.Errorf("mbench: non-positive PingPong slope %g", line.Slope)
	}
	// Slope is µs per byte; 1 byte/µs = 1 MB/s, so bandwidth = 1/slope.
	link := machine.LinkModel{BandwidthMBps: 1 / line.Slope, LatencyUS: latency}
	return link, line, nil
}

// StreamKernel names one of the four STREAM kernels.
type StreamKernel int

// The four STREAM kernels.
const (
	Copy StreamKernel = iota
	Scale
	Add
	Triad
)

// String returns the STREAM kernel name.
func (k StreamKernel) String() string {
	switch k {
	case Copy:
		return "Copy"
	case Scale:
		return "Scale"
	case Add:
		return "Add"
	case Triad:
		return "Triad"
	}
	return fmt.Sprintf("StreamKernel(%d)", int(k))
}

// bytesPerElement returns the memory traffic per element for a kernel:
// Copy and Scale move two words, Add and Triad three.
func (k StreamKernel) bytesPerElement() int {
	if k == Copy || k == Scale {
		return 16
	}
	return 24
}

// StreamHost measures the host's sustainable bandwidth for one kernel
// with the given number of worker goroutines over arrays of n float64
// elements, taking the best of iters trials (STREAM's convention).
// It returns MB/s.
func StreamHost(kernel StreamKernel, threads, n, iters int) (float64, error) {
	if threads < 1 || n < threads || iters < 1 {
		return 0, fmt.Errorf("mbench: bad StreamHost arguments threads=%d n=%d iters=%d", threads, n, iters)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	const scalar = 3.0
	gomax := runtime.GOMAXPROCS(0)
	if threads > gomax {
		threads = gomax
	}
	best := 0.0
	for it := 0; it < iters; it++ {
		start := time.Now()
		var wg sync.WaitGroup
		chunk := (n + threads - 1) / threads
		for t := 0; t < threads; t++ {
			lo := t * chunk
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				switch kernel {
				case Copy:
					copy(c[lo:hi], a[lo:hi])
				case Scale:
					for i := lo; i < hi; i++ {
						b[i] = scalar * c[i]
					}
				case Add:
					for i := lo; i < hi; i++ {
						c[i] = a[i] + b[i]
					}
				case Triad:
					for i := lo; i < hi; i++ {
						a[i] = b[i] + scalar*c[i]
					}
				}
			}(lo, hi)
		}
		wg.Wait()
		secs := time.Since(start).Seconds()
		if secs <= 0 {
			continue
		}
		bw := units.BpsToMBps(float64(n*kernel.bytesPerElement()) / secs)
		if bw > best {
			best = bw
		}
	}
	if best == 0 {
		return 0, fmt.Errorf("mbench: StreamHost measured no usable trial")
	}
	return best, nil
}

// StreamHostSweep measures the host's STREAM bandwidth over a thread
// sweep 1..maxThreads (the paper's OpenMP sweep) and returns the points
// ready for the Eq. 8 two-line fit.
func StreamHostSweep(kernel StreamKernel, maxThreads, n, iters int) ([]StreamPoint, error) {
	if maxThreads < 1 {
		return nil, fmt.Errorf("mbench: maxThreads %d must be positive", maxThreads)
	}
	pts := make([]StreamPoint, 0, maxThreads)
	for t := 1; t <= maxThreads; t++ {
		bw, err := StreamHost(kernel, t, n, iters)
		if err != nil {
			return nil, err
		}
		pts = append(pts, StreamPoint{Threads: t, BandwidthMBps: bw})
	}
	return pts, nil
}

// PingPongHost measures one-way message time in microseconds between two
// goroutines exchanging byte buffers over channels, the host analogue of
// the intranodal PingPong. The receiver copies the payload (as MPI does)
// before replying.
func PingPongHost(bytes, iters int) (float64, error) {
	if bytes < 0 || iters < 1 {
		return 0, fmt.Errorf("mbench: bad PingPongHost arguments bytes=%d iters=%d", bytes, iters)
	}
	ping := make(chan []byte)
	pong := make(chan []byte)
	scratch := make([]byte, bytes)
	go func() {
		for msg := range ping {
			copy(scratch, msg)
			pong <- scratch
		}
	}()
	payload := make([]byte, bytes)
	// Warm-up round.
	ping <- payload
	<-pong
	start := time.Now()
	for i := 0; i < iters; i++ {
		ping <- payload
		<-pong
	}
	elapsed := time.Since(start).Seconds()
	close(ping)
	return units.SecondsToMicros(elapsed / float64(iters) / 2), nil
}
