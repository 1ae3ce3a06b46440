package main

// The four workloads. Each one is set up, then runs its fixed, seeded
// operation sequence in whole rounds: an operation's timed duration covers
// the program's calls only, and every response is decoded and checked off
// the clock.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"time"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dist"
	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
)

// workload is one traffic mix. family, n and algorithm name the graph and
// plan every request of the workload addresses.
type workload struct {
	name      string
	family    string
	n         int
	algorithm string
	// cacheSize is the server's result-cache capacity.
	cacheSize int
	// tail is the percentile tail_cpu_ms reports: the highest one that keeps at
	// least ten samples beyond it in one window, capped at p99.
	tail float64
	// window is the number of operations over which tail_cpu_ms and ops_per_cpu_s
	// are taken before the median over the windows; 0 means the whole run.
	window int
	// round is the number of operations in one round; a run always ends
	// on a round boundary.
	round int
	// minOps is the fewest operations a run makes, whatever its length, so
	// that tail_cpu_ms always has ten samples beyond it. heap_mb is sampled
	// when this many are done: the dyn Maintainer's heap grows with every
	// update, so a sample at the end of the run would follow throughput.
	minOps int
	// collect forces a GC after each operation's checks, off the clock, so
	// the garbage of decoding and checking a large partition is not
	// collected inside the next timed operation. warm-hits checks without
	// allocating and runs without it.
	collect bool
	// calMs is the calibration kernel's CPU time on this workload's graph
	// at the reference speed every timing is scaled to (see calibration):
	// its median on a 2-vCPU Xeon VM, nproc 2, Go 1.24.
	calMs float64
	start func(e *env) instance
}

// The graph and the plan are fixed parts of a workload, like its family and
// size: the workload seed varies only the request sequence and the
// mutation batches, so runs on different seeds do comparable work.
const (
	graphSeed = 1
	planSeed  = 1
)

const (
	hotSetSize   = 64  // warm-hits: distinct primed keys
	hotRound     = 256 // warm-hits: requests per round, each key 4 times
	compactEvery = 4   // churn: batches between compactions
)

var workloads = []*workload{
	{
		name:      "warm-hits",
		calMs:     138,
		family:    "gnp",
		n:         1024,
		algorithm: "elkin-neiman",
		cacheSize: 256,
		tail:      0.99,
		window:    4 * hotRound,
		round:     hotRound,
		minOps:    16 * hotRound,
		start:     func(e *env) instance { return &warmHits{env: e} },
	},
	{
		name:      "cold-engine",
		calMs:     140,
		family:    "gnp",
		n:         1 << 14,
		algorithm: "elkin-neiman/dist",
		cacheSize: 2,
		tail:      0.75,
		round:     1,
		minOps:    40,
		collect:   true,
		start:     func(e *env) instance { return &coldEngine{env: e} },
	},
	{
		name:      "churn-serve",
		calMs:     150,
		family:    "torus",
		n:         1 << 16,
		algorithm: "elkin-neiman",
		cacheSize: 256,
		tail:      0.80,
		round:     compactEvery,
		minOps:    52,
		collect:   true,
		start: func(e *env) instance {
			return &churnServe{env: e, mine: copyGraph(e.g), batches: stream(e.seed, "batches")}
		},
	},
	{
		name:      "churn-repair",
		calMs:     150,
		family:    "torus",
		n:         1 << 16,
		algorithm: "elkin-neiman",
		tail:      0.90,
		round:     compactEvery,
		minOps:    100,
		collect:   true,
		start: func(e *env) instance {
			return &churnRepair{env: e, mine: copyGraph(e.g), batches: stream(e.seed, "batches")}
		},
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env holds what every instance of one run shares: the seeds, the
// program's version-0 graph and the benchmark's own copy of it, the tracer
// and the check tally. It is built before the first set-up, off the clock.
type env struct {
	w        *workload
	seed     uint64
	g        *graph.Graph // version 0, built by the program's generator
	ref      *refGraph    // the benchmark's copy of g
	k        int
	cal      *calibration // runs on ref, which never changes
	tr       *tracer
	failures int
	// checked counts the partitions checked; beyondRadius those with a
	// cluster outside the Theorem 1 radius (see checkPartition).
	checked      int
	beyondRadius int
}

func newEnv(w *workload, seed uint64, tr *tracer) (*env, error) {
	e := &env{w: w, seed: seed, tr: tr}
	fam, err := gen.ParseFamily(w.family)
	if err != nil {
		return nil, err
	}
	if e.g, err = gen.Build(fam, w.n, graphSeed); err != nil {
		return nil, err
	}
	e.ref = copyGraph(e.g)
	e.cal = newCalibration(e.ref)
	e.k = radiusK(e.g.N())
	return e, nil
}

// fail records a wrong output; the run then reports correct=false.
func (e *env) fail(format string, args ...any) {
	e.failures++
	if e.failures <= 5 {
		fmt.Fprintf(os.Stderr, "%s: check failed: %s\n", e.w.name, fmt.Sprintf(format, args...))
	}
}

// check runs the partition checker and tallies its findings.
func (e *env) check(what string, g *refGraph, p *partition) {
	e.checked++
	beyond, err := checkPartition(g, p, e.k)
	if err != nil {
		e.fail("%s: %v", what, err)
	}
	if beyond > 0 {
		e.beyondRadius++
		if e.beyondRadius <= 5 {
			fmt.Fprintf(os.Stderr, "%s: %s: %d clusters outside the Theorem 1 radius k-1=%d\n", e.w.name, what, beyond, e.k-1)
		}
	}
}

// checkJSON decodes a served partition and checks it against g.
func (e *env) checkJSON(what string, raw []byte, g *refGraph) *partition {
	var p partition
	if err := json.Unmarshal(raw, &p); err != nil {
		e.fail("%s: decoding partition: %v", what, err)
		return nil
	}
	e.check(what, g, &p)
	return &p
}

// simPlan compiles the sequential Elkin–Neiman plan the reference runs use.
func simPlan(seed uint64) (*decomp.Plan, error) {
	return decomp.Compile("elkin-neiman", decomp.WithSeed(seed), decomp.WithForceComplete())
}

// hotSeeds is the warm-hits hot set of a run on seed.
func hotSeeds(seed uint64) []uint64 {
	return distinctSeeds(stream(seed, "warm.hot"), hotSetSize, map[uint64]bool{})
}

// coldSeeds returns the seeds a cold-engine run on seed fills its cache
// with, and the stream and the used set its request seeds are drawn from.
func coldSeeds(seed uint64, fill int) ([]uint64, *rng, map[uint64]bool) {
	used := map[uint64]bool{}
	return distinctSeeds(stream(seed, "cold.fill"), fill, used), stream(seed, "cold.seq"), used
}

// instance is one set-up copy of a workload.
type instance interface {
	// setup does everything before the first timed operation; its
	// process CPU time is setup_s.
	setup() error
	// op runs operation i under the root span parent and returns its timed
	// duration in process CPU time (see cpuNow). An error means the
	// operation failed.
	op(i, parent int) (time.Duration, error)
	// finish runs the checks that need the whole measured phase.
	finish()
	close()
}

// warmHits primes hotSetSize keys, then requests them in a seeded order.
type warmHits struct {
	*env
	r      *rig
	bodies [][]byte
	primed [][]byte // partition bytes of each key's priming response
	tails  [][]byte // the same partition as the last field of a response
	order  *rng
	seq    []int
}

func (w *warmHits) setup() error {
	w.r = boot(w.w.cacheSize)
	gi, pk, err := w.r.register(w.w)
	if err != nil {
		return err
	}
	for _, s := range hotSeeds(w.seed) {
		body := decomposeBody(gi.Fingerprint, pk, s)
		data, _, err := w.r.post("/v1/decompose", body)
		if err != nil {
			return err
		}
		var rep decomposeReply
		if err := json.Unmarshal(data, &rep); err != nil {
			return err
		}
		w.bodies = append(w.bodies, body)
		w.primed = append(w.primed, rep.Partition)
		w.tails = append(w.tails, append(append([]byte(`"partition":`), rep.Partition...), '}'))
	}
	w.order = stream(w.seed, "warm.order")
	return nil
}

func (w *warmHits) op(i, parent int) (time.Duration, error) {
	if i%hotRound == 0 {
		// Each round asks for every key hotRound/hotSetSize times, shuffled.
		w.seq = w.seq[:0]
		for j := 0; j < hotRound; j++ {
			w.seq = append(w.seq, j%hotSetSize)
		}
		for j := len(w.seq) - 1; j > 0; j-- {
			k := w.order.intn(j + 1)
			w.seq[j], w.seq[k] = w.seq[k], w.seq[j]
		}
	}
	key := w.seq[i%hotRound]
	sp := w.tr.begin("serve.roundtrip.decompose", i, parent)
	data, d, err := w.r.post("/v1/decompose", w.bodies[key])
	w.tr.end(sp)
	if err != nil {
		return d, err
	}
	// The partition is the response's last field, so a hit whose partition
	// equals the priming response's ends with exactly its bytes. Comparing
	// the raw bytes keeps the check from allocating between timed requests.
	sp = w.tr.begin("check", i, parent)
	if !bytes.Contains(data, []byte(`"cacheHit":true`)) || !bytes.HasSuffix(bytes.TrimSpace(data), w.tails[key]) {
		w.fail("op %d: hot key %d: not a cache hit with the priming response's partition: %.200s", i, key, data)
	}
	w.tr.end(sp)
	return d, nil
}

func (w *warmHits) finish() {
	for i, raw := range w.primed {
		w.checkJSON(fmt.Sprintf("hot key %d", i), raw, w.ref)
	}
}

func (w *warmHits) close() { w.r.close() }

// coldEngine fills the cache to capacity, then asks for a fresh seed on
// every operation, so every response is a miss whose insert evicts.
type coldEngine struct {
	*env
	r      *rig
	gk, pk string
	seeds  *rng
	used   map[uint64]bool
	sim    *decomp.Plan
}

func (c *coldEngine) setup() error {
	c.r = boot(c.w.cacheSize)
	gi, pk, err := c.r.register(c.w)
	if err != nil {
		return err
	}
	c.gk, c.pk = gi.Fingerprint, pk
	var fill []uint64
	fill, c.seeds, c.used = coldSeeds(c.seed, c.w.cacheSize)
	for _, s := range fill {
		if _, _, err := c.r.post("/v1/decompose", decomposeBody(c.gk, c.pk, s)); err != nil {
			return err
		}
	}
	c.sim, err = simPlan(0)
	return err
}

func (c *coldEngine) op(i, parent int) (time.Duration, error) {
	s := distinctSeeds(c.seeds, 1, c.used)[0]
	sp := c.tr.begin("serve.roundtrip.decompose", i, parent)
	data, d, err := c.r.post("/v1/decompose", decomposeBody(c.gk, c.pk, s))
	c.tr.end(sp)
	if err != nil {
		return d, err
	}
	sp = c.tr.begin("check", i, parent)
	defer c.tr.end(sp)
	var rep decomposeReply
	if err := json.Unmarshal(data, &rep); err != nil {
		c.fail("op %d: decoding response: %v", i, err)
		return d, nil
	}
	if rep.CacheHit || rep.Seed != s {
		c.fail("op %d: seed %d: cacheHit=%v, echoed seed %d", i, s, rep.CacheHit, rep.Seed)
	}
	p := c.checkJSON(fmt.Sprintf("op %d", i), rep.Partition, c.ref)
	if c.tr != nil && p != nil {
		// The engine must reproduce the sequential simulation exactly.
		ref, err := c.sim.WithSeed(s).Run(context.Background(), c.g)
		if err != nil {
			c.fail("op %d: simulation: %v", i, err)
		} else if !reflect.DeepEqual(p, fromLibrary(ref)) {
			c.fail("op %d: engine partition differs from the simulation with seed %d", i, s)
		}
	}
	return d, nil
}

func (c *coldEngine) finish() {}
func (c *coldEngine) close()  { c.r.close() }

// churnServe mutates the served graph and decomposes each new version.
type churnServe struct {
	*env
	r       *rig
	fp, pk  string
	mine    *refGraph // the benchmark's edge set, mutated in step
	batches *rng
}

func (c *churnServe) setup() error {
	c.r = boot(c.w.cacheSize)
	gi, pk, err := c.r.register(c.w)
	if err != nil {
		return err
	}
	c.fp, c.pk = gi.Fingerprint, pk
	_, _, err = c.r.post("/v1/decompose", decomposeBody(c.fp, c.pk, planSeed))
	return err
}

func (c *churnServe) op(i, parent int) (time.Duration, error) {
	body := batchJSON(nextBatch(c.batches, c.mine))
	sp := c.tr.begin("serve.roundtrip.mutate", i, parent)
	data, d1, err := c.r.post("/v1/graphs/"+c.fp+"/mutate", body)
	c.tr.end(sp)
	if err != nil {
		return d1, err
	}
	var mr mutateReply
	if err := json.Unmarshal(data, &mr); err != nil {
		return d1, fmt.Errorf("decoding mutate response: %w", err)
	}
	if mr.Previous != c.fp || mr.Fingerprint == c.fp || mr.N != c.mine.n() || mr.M != c.mine.m {
		c.fail("op %d: mutate %s -> %s, n=%d m=%d; want a new fingerprint, n=%d m=%d",
			i, mr.Previous, mr.Fingerprint, mr.N, mr.M, c.mine.n(), c.mine.m)
	}
	c.fp = mr.Fingerprint
	sp = c.tr.begin("serve.roundtrip.decompose", i, parent)
	data, d2, err := c.r.post("/v1/decompose", decomposeBody(c.fp, c.pk, planSeed))
	c.tr.end(sp)
	if err != nil {
		return d1 + d2, err
	}
	sp = c.tr.begin("check", i, parent)
	defer c.tr.end(sp)
	var rep decomposeReply
	if err := json.Unmarshal(data, &rep); err != nil {
		c.fail("op %d: decoding response: %v", i, err)
		return d1 + d2, nil
	}
	if rep.CacheHit || rep.Graph != c.fp {
		c.fail("op %d: decompose of %s answered graph %s, cacheHit=%v", i, c.fp, rep.Graph, rep.CacheHit)
	}
	c.checkJSON(fmt.Sprintf("op %d", i), rep.Partition, c.mine)
	return d1 + d2, nil
}

func (c *churnServe) finish() {}
func (c *churnServe) close()  { c.r.close() }

// churnRepair drives the churn-serve batch sequence through the dyn
// library: Apply, Compact every fourth batch, Maintainer.Update.
type churnRepair struct {
	*env
	pl      *decomp.Plan
	m       *dyn.Maintainer
	cur     *dyn.Overlay
	mine    *refGraph
	batches *rng
}

func (c *churnRepair) setup() error {
	fam, err := gen.ParseFamily(c.w.family)
	if err != nil {
		return err
	}
	g, err := gen.Build(fam, c.w.n, graphSeed)
	if err != nil {
		return err
	}
	if c.pl, err = decomp.Compile(c.w.algorithm, decomp.WithSeed(planSeed), decomp.WithForceComplete()); err != nil {
		return err
	}
	if c.m, err = dyn.NewMaintainer(context.Background(), c.pl, g, dyn.Config{}); err != nil {
		return err
	}
	c.cur = dyn.Wrap(g)
	return nil
}

func (c *churnRepair) op(i, parent int) (time.Duration, error) {
	batch := nextBatch(c.batches, c.mine)
	start := cpuNow()
	sp := c.tr.begin("dyn.apply", i, parent)
	next, res, err := c.cur.Apply(batch)
	c.tr.end(sp)
	if err != nil {
		return cpuNow() - start, err
	}
	var g graph.Interface = next
	c.cur = next
	if i%compactEvery == compactEvery-1 {
		sp = c.tr.begin("dyn.compact", i, parent)
		flat := next.Compact()
		c.tr.end(sp)
		g, c.cur = flat, dyn.Wrap(flat)
	}
	sp = c.tr.begin("dyn.update", i, parent)
	part, _, err := c.m.Update(context.Background(), g, res.Effective)
	c.tr.end(sp)
	d := cpuNow() - start
	if err != nil {
		return d, err
	}
	sp = c.tr.begin("check", i, parent)
	defer c.tr.end(sp)
	if len(res.Effective) != len(batch) {
		c.fail("op %d: %d of %d mutations effective", i, len(res.Effective), len(batch))
	}
	fresh, err := c.pl.Run(context.Background(), g)
	if err != nil {
		c.fail("op %d: from-scratch run: %v", i, err)
		return d, nil
	}
	if !samePartition(part, fresh) {
		c.fail("op %d: repaired partition differs from a from-scratch run", i)
	}
	c.check(fmt.Sprintf("op %d", i), c.mine, fromLibrary(part))
	return d, nil
}

func (c *churnRepair) finish() {}
func (c *churnRepair) close()  {}

// samePartition compares two library results field by field, except the
// CONGEST traffic metrics: a repair reports the cost of its own, smaller,
// simulation there.
func samePartition(a, b *decomp.Partition) bool {
	ca, cb := *a, *b
	ca.Metrics, cb.Metrics = dist.Metrics{}, dist.Metrics{}
	return reflect.DeepEqual(ca, cb)
}

// report prints the check tally to standard error.
func (e *env) report() {
	fmt.Fprintf(os.Stderr, "%s seed %d: %d partitions checked, %d wrong, %d outside the Theorem 1 radius\n",
		e.w.name, e.seed, e.checked, e.failures, e.beyondRadius)
}
