package main

// The per-layer probes of a traced run. Each probe times one public call of
// one layer, inside a span named after the layer, on the workload's own
// inputs: its graph, its plan, the first seeds of its request sequence and
// the first batches of its mutation sequence. A metric is the median over
// the spans of its name.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
	"netdecomp/internal/serve"
)

const (
	probeSeeds   = 5 // seeds (and generator builds) probed
	probeRepeats = 3 // repeats of the cheap calls per seed
	probeBatches = 8 // mutation batches probed (two compactions)
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// memDelta runs f and returns the bytes and objects it allocated.
func memDelta(f func()) (bytes, objects float64) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc - a.TotalAlloc), float64(b.Mallocs - a.Mallocs)
}

// serveHTTP calls the handler directly on a recorder: no socket.
func serveHTTP(h http.Handler, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// probeSeedList returns the first probeSeeds seeds of the workload's
// request sequence.
func probeSeedList(e *env) []uint64 {
	switch e.w.name {
	case "warm-hits":
		return hotSeeds(e.seed)[:probeSeeds]
	case "cold-engine":
		_, seq, used := coldSeeds(e.seed, e.w.cacheSize)
		return distinctSeeds(seq, probeSeeds, used)
	}
	// The churn workloads decompose every version with the plan seed; the
	// other seeds come from a stream of their own.
	return append([]uint64{planSeed}, distinctSeeds(stream(e.seed, "probe.seeds"), probeSeeds-1, map[uint64]bool{planSeed: true})...)
}

// probeLayers runs every probe and returns the per-layer metrics.
func probeLayers(e *env) (map[string]metric, error) {
	ctx := context.Background()
	tr := e.tr
	out := map[string]metric{}
	put := func(name, unit string, v float64) { out[name] = metric{v, unit} }
	step := -2 // probe steps use operation ids below the set-up's -1

	fam, err := gen.ParseFamily(e.w.family)
	if err != nil {
		return nil, err
	}
	for range probeSeeds {
		sp := tr.begin("gen.build", step, -1)
		_, err := gen.Build(fam, e.w.n, graphSeed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	// decomp and core: the workload's plan and the simulation, run
	// directly; then clone and encode of the result.
	pl, err := decomp.Compile(e.w.algorithm, decomp.WithSeed(planSeed), decomp.WithForceComplete())
	if err != nil {
		return nil, err
	}
	sim, err := simPlan(planSeed)
	if err != nil {
		return nil, err
	}
	seeds := probeSeedList(e)
	var runAlloc []float64
	for i, s := range seeds {
		step--
		var p *decomp.Partition
		alloc, _ := memDelta(func() {
			sp := tr.begin("decomp.run", step, -1)
			p, err = pl.WithSeed(s).Run(ctx, e.g)
			tr.end(sp)
		})
		if err != nil {
			return nil, err
		}
		runAlloc = append(runAlloc, alloc/1e6)
		if i == 0 {
			put("dist.rounds", "count", float64(p.Metrics.Rounds))
			put("dist.messages", "count", float64(p.Metrics.Messages))
			put("core.phases", "count", float64(p.PhasesUsed))
		}
		e.check(fmt.Sprintf("probe decomp.run seed %d", s), e.ref, fromLibrary(p))
		sp := tr.begin("core.sim", step, -1)
		_, err = sim.WithSeed(s).Run(ctx, e.g)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for range probeRepeats {
			sp := tr.begin("decomp.clone", step, -1)
			p.Clone()
			tr.end(sp)
			sp = tr.begin("decomp.encode", step, -1)
			_, err = json.Marshal(p)
			tr.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	put("gen.build_ms", "ms", tr.medianNs("gen.build")/1e6)
	put("decomp.run_ms", "ms", tr.medianNs("decomp.run")/1e6)
	put("decomp.run_alloc_mb", "MB", median(runAlloc))
	put("core.sim_ms", "ms", tr.medianNs("core.sim")/1e6)
	put("dist.engine_over_sim", "ratio", tr.medianNs("decomp.run")/tr.medianNs("core.sim"))
	put("decomp.clone_us", "us", tr.medianNs("decomp.clone")/1e3)
	put("decomp.encode_us", "us", tr.medianNs("decomp.encode")/1e3)

	// serve and session: a probe server with the workload's cache
	// capacity, driven through its handler on a recorder.
	srv := serve.New(serve.Options{CacheSize: e.w.cacheSize})
	defer srv.Close()
	h := srv.Handler()
	var gi graphInfo
	var pi planInfo
	if err := probeJSON(h, "/v1/graphs", fmt.Sprintf(`{"family":%q,"n":%d,"seed":%d}`, e.w.family, e.w.n, graphSeed), &gi); err != nil {
		return nil, err
	}
	if err := probeJSON(h, "/v1/plans", fmt.Sprintf(`{"algorithm":%q,"forceComplete":true,"seed":%d}`, e.w.algorithm, planSeed), &pi); err != nil {
		return nil, err
	}
	var handlerAllocs, respKB []float64
	for _, s := range seeds {
		step--
		sp := tr.begin("session.run", step, -1)
		_, err := srv.Session().Run(ctx, pl.WithSeed(s), e.g)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		body := string(decomposeBody(gi.Fingerprint, pi.Plan, s))
		for range probeRepeats {
			var rec *httptest.ResponseRecorder
			_, objects := memDelta(func() {
				sp := tr.begin("serve.handler", step, -1)
				rec = serveHTTP(h, "/v1/decompose", body)
				tr.end(sp)
			})
			var rep decomposeReply
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &rep) != nil || !rep.CacheHit {
				e.fail("probe serve.handler seed %d: status %d, want a cache hit", s, rec.Code)
			}
			handlerAllocs = append(handlerAllocs, objects)
			respKB = append(respKB, float64(rec.Body.Len())/1024)
			sp := tr.begin("session.peek", step, -1)
			_, ok := srv.Session().Peek(pl.WithSeed(s), e.g)
			tr.end(sp)
			if !ok {
				e.fail("probe session.peek seed %d: miss after Session.Run", s)
			}
		}
	}
	put("session.run_ms", "ms", tr.medianNs("session.run")/1e6)
	put("serve.handler_us", "us", tr.medianNs("serve.handler")/1e3)
	put("serve.handler_allocs", "count", median(handlerAllocs))
	put("serve.response_kb", "kB", median(respKB))
	put("session.peek_us", "us", tr.medianNs("session.peek")/1e3)

	// dyn and graph: the workload's batch sequence through Apply,
	// Fingerprint, Compact and the Update of a repairing and a recomputing
	// Maintainer, side by side; then the same batches through the mutate
	// handler, each followed by an invalidation of the retired key.
	simMaint, err := dyn.NewMaintainer(ctx, sim, e.g, dyn.Config{})
	if err != nil {
		return nil, err
	}
	recompute, err := dyn.NewMaintainer(ctx, sim, e.g, dyn.Config{ForceRecompute: true})
	if err != nil {
		return nil, err
	}
	mine, batches := copyGraph(e.g), stream(e.seed, "batches")
	cur := dyn.Wrap(e.g)
	var updAlloc, regions []float64
	repaired := 0
	for b := range probeBatches {
		step--
		batch := nextBatch(batches, mine)
		sp := tr.begin("dyn.apply", step, -1)
		next, res, err := cur.Apply(batch)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("graph.fingerprint", step, -1)
		graph.Fingerprint(next)
		tr.end(sp)
		sp = tr.begin("dyn.compact", step, -1)
		flat := next.Compact()
		tr.end(sp)
		var g graph.Interface = next
		cur = next
		if b%compactEvery == compactEvery-1 {
			g, cur = flat, dyn.Wrap(flat)
		}
		var part *decomp.Partition
		var rep dyn.UpdateReport
		alloc, _ := memDelta(func() {
			sp := tr.begin("dyn.update", step, -1)
			part, rep, err = simMaint.Update(ctx, g, res.Effective)
			tr.end(sp)
		})
		if err != nil {
			return nil, err
		}
		updAlloc = append(updAlloc, alloc/1e6)
		regions = append(regions, float64(rep.Region))
		if rep.Repaired {
			repaired++
		}
		sp = tr.begin("dyn.recompute", step, -1)
		full, _, err := recompute.Update(ctx, g, res.Effective)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if !samePartition(part, full) {
			e.fail("probe dyn.update batch %d: repaired partition differs from recompute", b)
		}
	}
	put("dyn.apply_us", "us", tr.medianNs("dyn.apply")/1e3)
	put("graph.fingerprint_us", "us", tr.medianNs("graph.fingerprint")/1e3)
	put("dyn.compact_ms", "ms", tr.medianNs("dyn.compact")/1e6)
	put("dyn.update_ms", "ms", tr.medianNs("dyn.update")/1e6)
	put("dyn.update_alloc_mb", "MB", median(updAlloc))
	put("dyn.recompute_ms", "ms", tr.medianNs("dyn.recompute")/1e6)
	put("dyn.repair_speedup", "ratio", tr.medianNs("dyn.recompute")/tr.medianNs("dyn.update"))
	put("dyn.repaired_ratio", "ratio", float64(repaired)/probeBatches)
	put("core.repair_region", "count", median(regions))

	mine, batches = copyGraph(e.g), stream(e.seed, "batches")
	fp := gi.Fingerprint
	for range probeBatches {
		step--
		body := string(batchJSON(nextBatch(batches, mine)))
		sp := tr.begin("serve.mutate", step, -1)
		rec := serveHTTP(h, "/v1/graphs/"+fp+"/mutate", body)
		tr.end(sp)
		var mr mutateReply
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &mr) != nil {
			return nil, fmt.Errorf("probe serve.mutate: status %d: %s", rec.Code, rec.Body.String())
		}
		if mr.Fingerprint == fp || mr.N != mine.n() || mr.M != mine.m {
			e.fail("probe serve.mutate: %s -> %s, n=%d m=%d; want n=%d m=%d", fp, mr.Fingerprint, mr.N, mr.M, mine.n(), mine.m)
		}
		retired, err := strconv.ParseUint(fp, 16, 64)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("session.invalidate", step, -1)
		srv.Session().InvalidateGraph(retired)
		tr.end(sp)
		fp = mr.Fingerprint
	}
	put("serve.mutate_us", "us", tr.medianNs("serve.mutate")/1e3)
	put("session.invalidate_us", "us", tr.medianNs("session.invalidate")/1e3)
	return out, nil
}

// probeJSON posts body to the handler and decodes the response into out.
func probeJSON(h http.Handler, path, body string, out any) error {
	rec := serveHTTP(h, path, body)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return json.Unmarshal(rec.Body.Bytes(), out)
}
