package main

// The steadiness command: run one workload several times, each in its own
// process on the next seed, and print every metric's median, quartiles,
// interquartile spread and range as shares of the median. The bounds in
// BENCHMARK.json are set from these numbers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

func steadiness(stdout io.Writer, w *workload, seed uint64, seconds, trace, runs int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	var names []string
	for i := range runs {
		s := seed + uint64(i)
		cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatUint(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run on seed %d: %w", s, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return fmt.Errorf("run on seed %d: reading result: %w", s, err)
		}
		fmt.Fprintf(stdout, "seed %d: correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, name := range slices.Sorted(maps.Keys(res.Metrics)) {
			fmt.Fprintf(stdout, " %s=%.5g", name, res.Metrics[name].Value)
		}
		fmt.Fprintln(stdout)
		for name, m := range res.Metrics {
			if _, ok := values[name]; !ok {
				names = append(names, name)
			}
			values[name] = append(values[name], m.Value)
		}
	}
	slices.Sort(names)
	fmt.Fprintf(stdout, "%-24s %12s %12s %12s %8s %8s\n", "metric", "median", "q1", "q3", "iqr/med", "rng/med")
	for _, name := range names {
		v := values[name]
		med := median(v)
		q1, q3 := quartiles(v)
		lo, hi := slices.Min(v), slices.Max(v)
		fmt.Fprintf(stdout, "%-24s %12.5g %12.5g %12.5g %8.4f %8.4f\n", name, med, q1, q3, (q3-q1)/med, (hi-lo)/med)
	}
	return nil
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	m := len(s) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
