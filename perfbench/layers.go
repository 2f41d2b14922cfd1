package main

import (
	"runtime"
	"time"
)

// analyzeReps is how many times a traced run times trace.Analyze.
const analyzeReps = 3

// layerMetrics computes a traced run's per-layer metrics. Metrics of a layer
// the workload does not exercise read 0: the executor probe on the fleet
// workload (its worker loops build their executors internally), the fleet
// probes on the local workloads, and the sim compile on the behavioural
// DUTs.
func layerMetrics(r *result, c campaigner, td traceData) ([]metric, error) {
	lt, ex, hs := td.layers, td.exec, td.http
	var wall time.Duration
	var iters, camps int
	var cycles int64
	var allocs, allocBytes uint64
	for _, s := range r.traced {
		wall += s.wall
		iters += s.out.iters
		cycles += s.out.cycles
		allocs += s.rt.allocs
		allocBytes += s.rt.allocBytes
		camps++
	}
	first := r.traced[0].out
	perIter := func(x float64) float64 { return x / float64(max(iters, 1)) }
	perCamp := func(x int) float64 { return float64(x) / float64(max(camps, 1)) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	var analyze []float64
	for i := 0; i < analyzeReps; i++ {
		s, err := analyzeSeconds(r.w.design)
		if err != nil {
			return nil, err
		}
		analyze = append(analyze, s)
	}

	// The CPU profile samples at 100 Hz: one sample per 10 ms of CPU time.
	profSamples := int(lt.total / int64(10*time.Millisecond))
	out := []metric{}
	add := func(name, unit string, v float64, samples int) {
		out = append(out, metric{name: name, value: v, unit: unit, samples: samples})
	}

	// Executor probe: the local workloads only.
	var execShare, engine float64
	if lc, ok := c.(*localCampaign); ok {
		cores := min(max(lc.opt.Workers, 1), runtime.GOMAXPROCS(0))
		capacity := wall * time.Duration(cores)
		execShare = ratio(float64(ex.busy), float64(capacity))
		engine = perIter(us(max(capacity-ex.busy, 0)))
	}
	add("fuzz.exec_share", "ratio", execShare, len(ex.durs))
	add("fuzz.exec_us_p50", "us", us(percentile(ex.durs, 0.50)), len(ex.durs))
	add("fuzz.exec_us_p99", "us", us(percentile(ex.durs, 0.99)), len(ex.durs))
	add("fuzz.exec_calls", "count", perCamp(len(ex.durs)), camps)
	add("fuzz.exec_group_calls", "count", perCamp(ex.groupCalls), camps)
	add("fuzz.engine_us_per_iter", "us", engine, iters)
	add("fuzz.retained_per_iter", "ratio", ratio(float64(first.corpus), float64(first.iters)), 1)
	add("fuzz.share", "ratio", lt.share("fuzz"), profSamples)

	add("uarch.share", "ratio", lt.share("uarch"), profSamples)
	add("uarch.ns_per_sim_cycle", "ns", ratio(float64(lt.ns["uarch"]), float64(cycles)), profSamples)

	var compile compileInfo
	if lc, ok := c.(*localCampaign); ok && lc.compile != nil {
		compile = *lc.compile
	}
	add("sim.share", "ratio", lt.share("sim"), profSamples)
	add("sim.compile_s", "s", compile.seconds, 1)
	add("sim.spilled_nodes", "count", float64(compile.spilled), 1)
	add("sim.eliminated_nodes", "count", float64(compile.eliminated), 1)

	add("monitor.share", "ratio", lt.share("monitor"), profSamples)
	add("monitor.points", "count", float64(first.points), 1)
	add("detect.share", "ratio", lt.share("detect"), profSamples)
	add("detect.findings", "count", float64(first.findings), 1)
	add("trace.share", "ratio", lt.share("trace"), profSamples)
	add("trace.analyze_s", "s", median(analyze), len(analyze))

	// Fleet probes: the fleet workload only.
	acq, rep := hs.client[routeAcquire], hs.client[routeReport]
	if acq == nil {
		acq = &routeStats{}
	}
	if rep == nil {
		rep = &routeStats{}
	}
	add("fleet.share", "ratio", lt.share("fleet"), profSamples)
	add("fleet.acquire_ms_p50", "ms", ms(percentile(acq.durs, 0.50)), len(acq.durs))
	add("fleet.acquire_ms_p99", "ms", ms(percentile(acq.durs, 0.99)), len(acq.durs))
	add("fleet.report_ms_p50", "ms", ms(percentile(rep.durs, 0.50)), len(rep.durs))
	add("fleet.report_ms_p99", "ms", ms(percentile(rep.durs, 0.99)), len(rep.durs))
	add("fleet.lease_kib", "KiB", ratio(float64(acq.respBytes), float64(acq.hits))/1024, acq.hits)
	add("fleet.report_kib", "KiB", ratio(float64(rep.reqBytes), float64(len(rep.durs)))/1024, len(rep.durs))
	add("fleet.acquire_hit_ratio", "ratio", ratio(float64(acq.hits), float64(len(acq.durs))), len(acq.durs))
	add("fleet.handler_share", "ratio", ratio(float64(hs.serverBusy), float64(wall)*float64(runtime.GOMAXPROCS(0))), camps)

	add("runtime.gc.share", "ratio", lt.share(gcLayer), profSamples)
	add("runtime.gc_cpu_share", "ratio", td.rt.gcShare(), camps)
	add("runtime.alloc_mib_per_iter", "MiB", perIter(float64(allocBytes))/(1<<20), iters)
	add("runtime.allocs_per_iter", "count", perIter(float64(allocs)), iters)
	add("other.share", "ratio", lt.share(otherLayer), profSamples)

	var untraced, traced []float64
	for _, s := range r.camps {
		untraced = append(untraced, float64(s.out.iters)/s.wall.Seconds())
	}
	for _, s := range r.traced {
		traced = append(traced, float64(s.out.iters)/s.wall.Seconds())
	}
	add("tracing.iters_ratio", "ratio", ratio(median(traced), median(untraced)), len(traced)+len(untraced))
	return out, nil
}
