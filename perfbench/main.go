// Command perfbench is the repository's benchmark: one closed-loop client
// against netdecompd's server in process (or, for churn-repair, against the
// dyn library), on four seeded workloads. See README.md.
//
//	perfbench --workload warm-hits --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 replays the same run with spans, probes every layer,
// writes a Chrome trace file and reports the per-layer metrics.
// --steady N runs the workload N times on seeds seed..seed+N-1 and prints
// the spread of every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets its workload up;
// setup_s is the median of their process CPU times, and the last copy is
// the one measured.
const setupRepeats = 5

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	traceOut := fs.String("trace-out", "", "Chrome trace file of a traced run (default .bench_build/traces/<workload>-<seed>.json)")
	steady := fs.Int("steady", 0, "run the workload this many times on consecutive seeds and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(*name)
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q (known: %s)", *name, workloadNames())
	case *seconds < 1:
		return errors.New("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return errors.New("--trace must be 0 or 1")
	}
	// One P: the client and the server take turns, so a second P would
	// only run idle-priority GC mark work and spin for work, CPU time
	// that depends on how long the host keeps the other CPU away and
	// that cpuNow would count into the operation in flight.
	runtime.GOMAXPROCS(1)
	if *steady > 0 {
		return steadiness(stdout, w, *seed, *seconds, *trace, *steady)
	}
	var res *result
	var err error
	if *trace == 1 {
		path := *traceOut
		if path == "" {
			path = fmt.Sprintf(".bench_build/traces/%s-%d.json", w.name, *seed)
		}
		res, err = tracedRun(stdout, w, *seed, time.Duration(*seconds)*time.Second, path)
	} else {
		res, err = measuredRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measuredRun is the untraced run: set up setupRepeats times, run the
// measured phase on the last copy, and report the end-to-end metrics. The
// calibration kernel runs before every set-up and between rounds; every
// timing is scaled by the workload's nominal kernel time over the median
// of those runs (see calibration).
func measuredRun(w *workload, seed uint64, length time.Duration) (*result, error) {
	e, err := newEnv(w, seed, nil)
	if err != nil {
		return nil, err
	}
	var setups, cal []float64
	var inst instance
	for i := range setupRepeats {
		inst = w.start(e)
		runtime.GC() // the previous copy's garbage is not this set-up's
		cal = append(cal, e.cal.run())
		start := cpuNow()
		err := inst.setup()
		setups = append(setups, (cpuNow() - start).Seconds())
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setupRepeats-1 {
			inst.close()
		}
	}
	defer inst.close()
	ph := measure(e, inst, length)
	inst.finish()
	cal = append(cal, ph.cal...)

	speed := w.calMs / median(cal)
	lat := make([]float64, len(ph.lat))
	for i, l := range ph.lat {
		lat[i] = l * speed
	}
	res := &result{Correct: e.failures == 0 && len(lat) > 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{
		"p50_cpu_ms":    {median(lat), "ms"},
		"tail_cpu_ms":   {perWindow(lat, w.window, func(l []float64) float64 { return quantile(l, w.tail) }), "ms"},
		"ops_per_cpu_s": {perWindow(lat, w.window, func(l []float64) float64 { return float64(len(l)) / (sum(l) / 1e3) }), "1/s"},
		"setup_s":       {median(setups) * speed, "s"},
		"heap_mb":       {ph.heap / 1e6, "MB"},
	}}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d ops (%d failed), tail = p%g, setups %.3f s of CPU time\n",
		w.name, seed, ph.attempted, ph.failed, w.tail*100, setups)
	fmt.Fprintf(os.Stderr, "%s seed %d: calibration %.3f ms (median of %d), nominal %.3f ms; unscaled p50 %.4f ms\n",
		w.name, seed, median(cal), len(cal), w.calMs, median(ph.lat))
	e.report()
	return res, nil
}

// phase is what a measured phase returns.
type phase struct {
	lat               []float64 // CPU milliseconds of each operation that succeeded
	attempted, failed int
	heap              float64   // live heap in bytes once minOps operations are done
	cal               []float64 // calibration kernel times, ms
}

// measure runs whole rounds of operations until length has passed on the
// wall clock and at least the workload's minOps are done. The calibration
// kernel runs before the first round and then at the first round boundary
// after every calibrationEvery of CPU time. A forced GC runs first.
func measure(e *env, inst instance, length time.Duration) phase {
	var ph phase
	runtime.GC()
	start, cpuStart := time.Now(), cpuNow()
	ph.cal = append(ph.cal, e.cal.run())
	lastCal := cpuNow()
	for i := 0; ; {
		for range e.w.round {
			sp := e.tr.begin("op", i, -1)
			d, err := inst.op(i, sp)
			e.tr.end(sp)
			ph.attempted++
			i++
			if err != nil {
				ph.failed++
				if ph.failed <= 5 {
					fmt.Fprintf(os.Stderr, "%s: op %d failed: %v\n", e.w.name, i-1, err)
				}
			} else {
				ph.lat = append(ph.lat, float64(d)/1e6)
			}
			if e.w.collect {
				runtime.GC()
			}
		}
		if cpuNow()-lastCal >= calibrationEvery {
			ph.cal = append(ph.cal, e.cal.run())
			lastCal = cpuNow()
		}
		if ph.heap == 0 && i >= e.w.minOps {
			ph.heap = liveHeap()
		}
		if wall := time.Since(start); i >= e.w.minOps && wall >= length {
			// The share of the wall clock the process ran shows how much
			// the host's steal time and the checks between operations took.
			fmt.Fprintf(os.Stderr, "%s: measured phase %.1f s on the wall clock, %.1f s of process CPU time, %.1f s of it timed\n",
				e.w.name, wall.Seconds(), (cpuNow() - cpuStart).Seconds(), sum(ph.lat)/1e3)
			return ph
		}
	}
}

// liveHeap returns the bytes live after a forced GC. The second cycle
// empties the sync.Pool caches the first one only moves aside.
func liveHeap() float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// tracedRun replays the workload with spans around every call, probes
// each layer, writes the trace and reports the per-layer metrics. The
// traced p50 goes to standard output ahead of the result line, so tracing
// overhead can be read against an untraced run.
func tracedRun(stdout io.Writer, w *workload, seed uint64, length time.Duration, path string) (*result, error) {
	tr := newTracer()
	e, err := newEnv(w, seed, tr)
	if err != nil {
		return nil, err
	}
	inst := w.start(e)
	sp := tr.begin("setup", -1, -1)
	err = inst.setup()
	tr.end(sp)
	if err != nil {
		inst.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ph := measure(e, inst, length)
	inst.finish()
	inst.close()
	speed := w.calMs / median(ph.cal)
	fmt.Fprintf(stdout, "traced %s seed %d: p50_cpu_ms %.4f over %d ops\n", w.name, seed, median(ph.lat)*speed, len(ph.lat))

	metrics, err := probeLayers(e)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	e.report()
	return &result{Correct: e.failures == 0 && len(ph.lat) > 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: metrics}, nil
}
