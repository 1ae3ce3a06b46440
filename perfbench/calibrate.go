package main

import (
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// calibration is a fixed piece of the benchmark's own work, run between
// rounds of operations to measure how fast the machine is at the moment.
// Process CPU time leaves the host's steal time out (see cpuNow), but not
// the slowdown that other guests cause through shared caches, memory and
// clock frequency: on a shared 2-vCPU VM the same operation's CPU time
// moved by ±20% within minutes, and the kernel's time moved with it.
// Every timing is scaled by the workload's nominal kernel time over the
// median kernel time of the run, so it reads as CPU time at the speed the
// machine had when the nominal time was taken.
//
// The kernel calls nothing of the program's and allocates nothing on the
// Go heap, so neither a change to the program nor the program's live heap
// moves it. It has two parts, like the program's own work: breadth-first
// searches over the benchmark's copy of the workload's version-0 graph,
// writing the distances out as decimal text; and a pointer chase through
// freshly mapped memory, which pays the page faults, memory bandwidth and
// DRAM latency a large allocation pays.
type calibration struct {
	g     *refGraph
	srcs  []int32
	dist  []int32
	queue []int32
	text  []byte
}

const (
	// calibrationVisits is the number of vertex and edge visits of the
	// searches in one kernel run, whatever the graph.
	calibrationVisits = 1 << 20
	// chaseBytes and chaseSteps size the pointer chase.
	chaseBytes = 32 << 20
	chaseSteps = 256 << 10
	// calibrationEvery is the process CPU time between kernel runs in a
	// measured phase; one run takes about 0.1 s.
	calibrationEvery = 2 * time.Second
)

func newCalibration(g *refGraph) *calibration {
	n := g.n()
	count := max(1, calibrationVisits/(n+2*g.m))
	c := &calibration{g: g, dist: make([]int32, n), queue: make([]int32, 0, n), text: make([]byte, 0, 8*n)}
	for i := range count {
		c.srcs = append(c.srcs, int32(i*n/count))
	}
	return c
}

// run runs the kernel once and returns its CPU time in milliseconds.
func (c *calibration) run() float64 {
	start := cpuNow()
	for _, s := range c.srcs {
		for i := range c.dist {
			c.dist[i] = -1
		}
		c.dist[s] = 0
		c.queue = append(c.queue[:0], s)
		for h := 0; h < len(c.queue); h++ {
			u := c.queue[h]
			for _, v := range c.g.rows[u] {
				if c.dist[v] < 0 {
					c.dist[v] = c.dist[u] + 1
					c.queue = append(c.queue, v)
				}
			}
		}
		c.text = c.text[:0]
		for _, d := range c.dist {
			c.text = strconv.AppendInt(c.text, int64(d), 10)
			c.text = append(c.text, ',')
		}
	}
	chase()
	return float64(cpuNow()-start) / 1e6
}

// chaseSink keeps the chase from being optimised away.
var chaseSink uint32

// chase maps chaseBytes of fresh memory, links it into a pseudo-random
// chain and follows the chain for chaseSteps steps.
func chase() {
	mem, err := syscall.Mmap(-1, 0, chaseBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("calibration: mmap: " + err.Error())
	}
	defer syscall.Munmap(mem)
	a := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), len(mem)/4)
	n := uint64(len(a))
	for i := range a {
		a[i] = uint32((uint64(i)*2654435761 + 12345) % n)
	}
	j := uint32(0)
	for range chaseSteps {
		j = a[j]
	}
	chaseSink = j
}
