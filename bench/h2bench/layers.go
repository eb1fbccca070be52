package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"h2scope/internal/core"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

// This file turns one traced run into the per-layer metrics. Every number
// is taken from outside the layers: (a) the tracedConn around each accepted
// connection, (b) the captured bytes replayed through one layer's public
// functions at a time, (c) the metrics registries the server and the scan
// already export.

// budgetParts are the per-op costs of the layers a serve request crosses,
// in nanoseconds. They are kept apart from the metric map so the arithmetic
// that must add up is in one place.
type budgetParts struct {
	transportFloor float64
	frameRead      float64
	frameWrite     float64
	hpackDecode    float64
	hpackEncode    float64
	flowControl    float64
	priority       float64
	pipe           float64 // whole server over an in-memory conn
	client         float64 // the load generator on its own
}

// dispatch is what the server does per op that no isolated layer accounts
// for: routing, stream bookkeeping, the egress loop around the scheduler.
// It is a difference, so it can come out negative when a layer is cheaper
// inside the server than alone; it is printed as measured.
func (b budgetParts) dispatch() float64 {
	return b.pipe - b.frameRead - b.frameWrite - b.hpackDecode - b.hpackEncode - b.flowControl - b.priority
}

// sum is the explained cost of one op: the transport floor, every server
// layer, dispatch, and the load generator.
func (b budgetParts) sum() float64 {
	return b.transportFloor + b.frameRead + b.frameWrite + b.hpackDecode + b.hpackEncode +
		b.flowControl + b.priority + b.dispatch() + b.client
}

// unexplainedShare is the part of the end-to-end CPU cost per op the budget
// does not account for. Negative means the parts, measured alone, cost more
// than they do together.
func (b budgetParts) unexplainedShare(e2eCPUNS float64) float64 {
	if e2eCPUNS <= 0 {
		return 0
	}
	return 1 - b.sum()/e2eCPUNS
}

func (b budgetParts) into(ms metricSet, e2eCPUNS float64) {
	ms["transport.floor_ns_per_op"] = b.transportFloor
	ms["frame.read_ns_per_op"] = b.frameRead
	ms["frame.write_ns_per_op"] = b.frameWrite
	ms["hpack.decode_ns_per_op"] = b.hpackDecode
	ms["hpack.encode_ns_per_op"] = b.hpackEncode
	ms["server.pipe_ns_per_op"] = b.pipe
	ms["server.dispatch_ns_per_op"] = b.dispatch()
	ms["h2bench.client_ns_per_op"] = b.client
	ms["budget.sum_ns_per_op"] = b.sum()
	ms["budget.e2e_cpu_ns_per_op"] = e2eCPUNS
	ms["budget.unexplained_share"] = b.unexplainedShare(e2eCPUNS)
}

// per divides, reading 0 when there is nothing to divide by: a workload
// that captured no such event reports 0, not NaN.
func per(total, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return total / n
}

// commonLayers are the per-layer metrics every workload has: the tails and
// runtime figures of the untraced run next to the traced run's heap peak,
// and what tracing cost.
func commonLayers(ms metricSet, untraced, traced *runResult) {
	ms["h2bench.op_p50_us"] = untraced.p50us
	ms["h2bench.op_p90_us"] = untraced.p90us
	ms["h2bench.op_p99_us"] = untraced.p99us
	ms["h2bench.op_p999_us"] = untraced.p999us
	ms["h2bench.op_max_us"] = untraced.maxus
	ms["h2bench.latency_samples"] = float64(untraced.latSamples)
	ms["runtime.alloc_kb_per_op"] = untraced.allocKBPerOp
	ms["runtime.mallocs_per_op"] = untraced.mallocsPerOp
	ms["runtime.gc_cycles"] = untraced.gcCycles
	ms["runtime.gc_pause_total_ms"] = untraced.gcPauseMS
	ms["runtime.heap_peak_mb"] = traced.heapPeakMB
	ms["budget.e2e_cpu_ns_per_op"] = untraced.cpuNSPerOp
	ms["trace.overhead_share"] = 1 - per(traced.opsPerS, untraced.opsPerS)
}

// Ring and capture sizes of the traced pass. A get workload keeps its two
// connections for the whole run; conn_churn opens thousands, of which the
// first churnCaptures are kept.
const (
	stampRing     = 4096
	churnCaptures = 64
)

// goroutinesSettled waits briefly for the goroutine count to come back to
// base and returns how many are left over.
func goroutinesSettled(base int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine() - base
		if n <= 0 || time.Now().After(deadline) {
			return max(n, 0)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tracedServe re-runs a serve workload with the tracedConn, the server's
// registry and the driver's timers on, and derives the per-layer metrics.
// It returns the traced run too (its failed ops count against the run) and
// the spans it sampled.
func tracedServe(bs *benchSite, wl workloadDef, cfg runConfig, untraced *runResult) (metricSet, *runResult, *spanLog, error) {
	baseGoroutines := runtime.NumGoroutine()
	captures := cfg.clients
	if wl.Name == wlConnChurn {
		captures = churnCaptures
	}
	hub := newTraceHub(stampRing, captures)
	fx, err := newFixture(bs, hub)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.spans = newSpanLog()
	traced, err := runServe(fx, wl, cfg)
	fx.close()
	if err != nil {
		return nil, traced, nil, fmt.Errorf("traced run: %w", err)
	}
	if !hub.quiesce(2 * time.Second) {
		return nil, traced, nil, errors.New("traced run: server did not close every connection")
	}
	leaked := goroutinesSettled(baseGoroutines)

	ms := metricSet{}
	commonLayers(ms, untraced, traced)
	ops := float64(traced.allOps)
	tot := hub.totals()

	// (a) the wrapped connections.
	ms["transport.srv_reads_per_op"] = per(float64(tot.reads), ops)
	ms["transport.srv_writes_per_op"] = per(float64(tot.writes), ops)
	ms["transport.srv_bytes_per_write"] = per(float64(tot.bytesOut), float64(tot.writes))
	ms["transport.srv_write_ns_per_op"] = per(float64(tot.writeNS), ops)
	ms["transport.cli_flush_ns_per_op"] = per(float64(traced.flushNS), ops)
	ms["transport.dial_accept_us"] = per(float64(tot.dialAcceptNS), float64(tot.dialAcceptConns)) / 1e3
	ms["server.busy_ns_per_op"] = per(float64(tot.lifeNS-tot.readNS-tot.writeNS), ops)
	ms["server.read_wait_ns_per_op"] = per(float64(tot.readNS), ops)
	ms["server.conn_setup_us"] = per(float64(tot.setupNS), float64(tot.setupConns)) / 1e3
	ms["server.goroutines_leaked"] = float64(leaked)

	// (c) the server's own registry, fresh for this pass.
	counters := registryCounters(fx.reg)
	ms["flowcontrol.window_stalls_per_op"] = per(sumPrefix(counters, "h2_window_stalls_total"), ops)
	ms["flowcontrol.window_updates_per_mb"] = per(float64(traced.wuSent), float64(traced.allBytes)/1e6)
	ms["server.frames_out_per_write"] = per(sumPrefix(counters, "h2_frames_written_total"), float64(tot.writes))
	ms["server.egress_ready_p50"] = histogramQuantile(fx.reg, "h2_egress_ready_streams", 0.5)

	// (b) the captured bytes, one layer at a time.
	var rs []*connReplay
	for _, c := range hub.captured() {
		r, err := prepareReplay(c)
		if err != nil {
			return nil, traced, nil, fmt.Errorf("traced run: %w", err)
		}
		if wl.Name == wlConnChurn && !r.complete {
			continue
		}
		rs = append(rs, r)
	}
	parts, err := replayLayers(bs, wl, cfg.clients, replayBudgetFor(cfg.window), rs, ms)
	if err != nil {
		return nil, traced, nil, err
	}
	parts.into(ms, untraced.cpuNSPerOp)
	return ms, traced, cfg.spans, nil
}

// replayLayers runs every method-(b) measurement over the prepared
// captures, writes the metrics that are not part of the budget into ms, and
// returns the budget parts.
func replayLayers(bs *benchSite, wl workloadDef, clients int, budget time.Duration, rs []*connReplay, ms metricSet) (budgetParts, error) {
	var b budgetParts
	var captured, reqs, resps, respBlocks, dataFrames float64
	var dataBytes, reqBlockBytes, respBlockBytes, fields, dynIndexed float64
	for _, r := range rs {
		captured += float64(r.ops(wl))
		reqs += float64(r.reqs)
		resps += float64(r.resps)
		respBlocks += float64(len(r.respBlocks))
		dataFrames += float64(r.dataFrames)
		dataBytes += float64(r.dataBytes)
		for _, blk := range r.reqBlocks {
			f, d := blockStats(blk)
			fields, dynIndexed = fields+float64(f), dynIndexed+float64(d)
			reqBlockBytes += float64(len(blk))
		}
		for _, blk := range r.respBlocks {
			f, d := blockStats(blk)
			fields, dynIndexed = fields+float64(f), dynIndexed+float64(d)
			respBlockBytes += float64(len(blk))
		}
	}
	if captured == 0 {
		return b, errors.New("traced run: no complete op was captured")
	}
	// An op is a connection on conn_churn and a request otherwise, so the
	// per-op share of a per-request cost scales by requests per op.
	reqsPerOp, respsPerOp := reqs/captured, resps/captured
	if wl.Name != wlConnChurn {
		reqsPerOp, respsPerOp = 1, 1
	}

	ms["hpack.req_block_bytes"] = per(reqBlockBytes, reqs)
	ms["hpack.resp_block_bytes"] = per(respBlockBytes, respBlocks)
	ms["hpack.dyn_hit_share"] = per(dynIndexed, fields)

	frameWrite := frameWriteNS(rs, budget)
	b.frameRead = per(frameReadNS(rs, budget), reqs) * reqsPerOp
	b.frameWrite = per(frameWrite, resps) * respsPerOp
	ms["frame.write_ns_per_mb"] = per(frameWrite, dataBytes/1e6)
	b.hpackDecode = per(hpackDecodeNS(rs, budget), reqs) * reqsPerOp
	encodeNS, err := hpackEncodeNS(rs, server.NghttpdProfile().HPACKPolicy, budget)
	if err != nil {
		return b, err
	}
	b.hpackEncode = per(encodeNS, respBlocks) * respsPerOp

	framesPerOp := per(dataFrames, resps) * respsPerOp
	fcNS := flowControlNS(budget)
	pickNS := priorityPickNS(wl.Batch, max(1, int(math.Round(framesPerOp/respsPerOp))), budget)
	ms["flowcontrol.ns_per_frame"] = fcNS
	ms["priority.pick_ns_per_frame"] = pickNS
	ms["priority.picks_per_op"] = framesPerOp
	b.flowControl = fcNS * framesPerOp
	b.priority = pickNS * framesPerOp

	pipe, pipeOps := pipeNS(bs.Site, rs, wl, budget)
	b.pipe = per(pipe, float64(pipeOps))
	objects := bs.Small
	if wl.Name == wlLargeGet {
		objects = bs.Large
	}
	cli, cliOps, err := clientNS(rs, wl, objects, budget)
	if err != nil {
		return b, err
	}
	b.client = per(cli, float64(cliOps))
	if b.transportFloor, err = transportFloorNS(rs, wl, clients, budget); err != nil {
		return b, err
	}
	ms["server.conn_alloc_kb"] = connAllocKB(bs.Site, rs[0])
	return b, nil
}

// histogramQuantile reads quantile q of a registry histogram by name, or 0
// when it has no samples.
func histogramQuantile(reg *metrics.Registry, name string, q float64) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name && m.Histogram != nil && m.Histogram.Count > 0 {
			return float64(m.Histogram.Quantile(q))
		}
	}
	return 0
}

// tracedScan derives probe_scan's per-layer metrics from a second scan run
// with heap sampling on, plus the probe battery timed on its own.
func tracedScan(plan *scanPlan, cfg runConfig, untraced *runResult) (metricSet, *runResult, error) {
	baseGoroutines := runtime.NumGoroutine()
	traced, ex, err := runScan(plan, cfg, true)
	if err != nil {
		return nil, traced, fmt.Errorf("traced run: %w", err)
	}
	ms := metricSet{}
	commonLayers(ms, untraced, traced)
	ms["server.goroutines_leaked"] = float64(goroutinesSettled(baseGoroutines))

	sites := float64(ex.stats.Attempted)
	ms["scan.attempts_per_site"] = per(float64(ex.stats.Attempts), sites)
	ms["scan.retries_per_site"] = per(float64(ex.stats.Retries), sites)
	ms["scan.site_wall_p50_ms"] = traced.p50us / 1e3
	ms["scan.wait_share"] = 1 - per(float64(ex.cpuNS), float64(ex.wallNS)*float64(cfg.clients))
	ms["h2conn.conns_per_site"] = per(ex.counters["h2_conn_opened_total"], sites)
	ms["h2conn.streams_per_site"] = per(ex.counters["h2_conn_streams_opened_total"], sites)
	ms["frame.frames_per_site"] = per(sumPrefix(ex.counters, "h2_frames_read_total")+
		sumPrefix(ex.counters, "h2_frames_written_total"), sites)
	ms["frame.bytes_per_site"] = per(sumPrefix(ex.counters, "h2_frame_bytes_read_total")+
		sumPrefix(ex.counters, "h2_frame_bytes_written_total"), sites)

	reps := min(20, max(3, int(cfg.window/(250*time.Millisecond))))
	p50, cpu, err := batteryCost(reps)
	if err != nil {
		return nil, traced, err
	}
	ms["core.battery_p50_ms"] = p50
	ms["core.battery_cpu_ms"] = cpu
	return ms, traced, nil
}

// batteryQuietWindow is the quiet window of the isolated probe battery:
// short, so its wall time is mostly work and its p50 tracks core's cost,
// not the timers.
const batteryQuietWindow = 10 * time.Millisecond

// batteryCost runs the full probe battery reps times, one after the other,
// against one nghttpd testbed server over an in-process pipe, and returns
// the median wall time and the mean process CPU time of a battery in
// milliseconds.
func batteryCost(reps int) (p50MS, cpuMS float64, err error) {
	srv := server.New(server.NghttpdProfile(), server.DefaultSite("testbed.example"))
	l := netsim.NewListener("battery")
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	defer func() {
		srv.Close()
		<-served
	}()
	cfg := core.DefaultConfig("testbed.example")
	cfg.QuietWindow = batteryQuietWindow
	prober := core.NewProber(core.DialerFunc(l.Dial), cfg)

	walls := make([]float64, 0, reps)
	cpu0 := cpuNow()
	for i := 0; i < reps; i++ {
		start := time.Now()
		report, err := prober.Run()
		if err != nil {
			return 0, 0, fmt.Errorf("probe battery: %w", err)
		}
		if len(report.Errors) > 0 {
			return 0, 0, fmt.Errorf("probe battery: %v", report.Errors)
		}
		walls = append(walls, float64(time.Since(start))/1e6)
	}
	cpu := cpuNow() - cpu0
	return median(walls), float64(cpu) / 1e6 / float64(reps), nil
}
