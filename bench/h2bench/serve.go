package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"h2scope/internal/metrics"
	"h2scope/internal/server"
)

// fixture is the server under test: the nghttpd profile serving the seeded
// site on a real TCP loopback listener, in this process.
type fixture struct {
	bs   *benchSite
	srv  *server.Server
	addr string
	// hub and reg are set for the traced pass only.
	hub *traceHub
	reg *metrics.Registry

	served chan error
}

// newFixture starts the server. With a hub, every accepted connection is
// wrapped before the server sees it and the server's metrics registry is
// on; without one the server runs exactly as cmd/h2server would.
func newFixture(bs *benchSite, hub *traceHub) (*fixture, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	fx := &fixture{
		bs:     bs,
		srv:    server.New(server.NghttpdProfile(), bs.Site),
		addr:   ln.Addr().String(),
		hub:    hub,
		served: make(chan error, 1),
	}
	var l net.Listener = ln
	if hub != nil {
		fx.reg = metrics.NewRegistry()
		fx.srv.Metrics = server.NewMetrics(fx.reg)
		l = &tracedListener{Listener: ln, hub: hub}
	}
	go func() { fx.served <- fx.srv.Serve(l) }()
	return fx, nil
}

// close stops the listener and waits for the accept loops and every
// connection goroutine to end.
func (fx *fixture) close() {
	fx.srv.Close()
	<-fx.served
}

func (fx *fixture) dial() (io.ReadWriteCloser, error) {
	nc, err := net.Dial("tcp", fx.addr)
	if err != nil {
		return nil, err
	}
	return nc, nil
}

// runConfig is what one run of one workload needs besides the fixture.
type runConfig struct {
	seed    int64
	window  time.Duration
	warmup  time.Duration
	clients int
	// spans is set for the traced pass only.
	spans *spanLog
}

// subWindow is the length of the parts the measured window is cut into, and
// quietShare the share of them a run's value is read from. The benchmark
// machine is not steady: the same run reads 190k or 290k requests a second
// depending on the minute, in stretches of seconds to tens of seconds that
// no 20-second mean or median averages out (README, "Noise"). Interference
// only ever slows a run down, so each metric is taken per sub-window and
// the run's value is the decile on the good side — the 90th percentile of
// the sub-window rates, the 10th of the costs and latencies: what the
// system does while the machine takes the fewest cycles away. Over ten runs
// that read 5.7 % apart (interquartile, small_get) where the window mean
// read 12.4 % and the median 13.8 %.
const (
	subWindow  = 250 * time.Millisecond
	quietShare = 0.10
)

// quietHigh and quietLow read a run's value off its per-sub-window values,
// for metrics where higher and lower is better.
func quietHigh(vs []float64) float64 { return quantile(vs, 1-quietShare) }
func quietLow(vs []float64) float64  { return quantile(vs, quietShare) }

// subWindowsOf cuts a window into n sub-windows of the returned length; a
// remainder shorter than a sub-window is left out of the per-sub-window
// figures. A window too short to cut is its own single sub-window.
func subWindowsOf(window time.Duration) (n int, length time.Duration) {
	if window < 2*subWindow {
		return 1, window
	}
	return int(window / subWindow), subWindow
}

// batchTimeout is the per-batch watchdog: a connection that makes no
// progress for this long is closed and its open ops counted as failed.
const batchTimeout = 10 * time.Second

// warmupFor is the discarded lead-in of a run: a fifth of the window,
// between 100 ms and 3 s.
func warmupFor(window time.Duration) time.Duration {
	w := window / 5
	if w > 3*time.Second {
		w = 3 * time.Second
	}
	if w < 100*time.Millisecond {
		w = 100 * time.Millisecond
	}
	return w
}

// resources is a point-in-time reading of what the process has consumed.
type resources struct {
	at      time.Time
	cpuNS   int64
	alloc   uint64
	mallocs uint64
	numGC   uint32
	pauseNS uint64
}

func readResources() resources {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resources{
		at:      time.Now(),
		cpuNS:   cpuNow(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() int64 {
	var ru syscall.Rusage
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// windowUsage reads process resources at the two edges of the measured
// window while the workers run, and CPU time at every sub-window boundary
// in between (cpuMarks[i] is the reading at the start of sub-window i, the
// last one the end of the final sub-window). In the traced pass it also
// samples HeapInuse at each boundary (ReadMemStats stops the world, so the
// untraced pass does without).
func windowUsage(t0, t1 time.Time, sampleHeap bool) (before, after resources, cpuMarks []int64, heapPeak uint64) {
	time.Sleep(time.Until(t0))
	before = readResources()
	cpuMarks = append(cpuMarks, before.cpuNS)
	var ms runtime.MemStats
	n, subLen := subWindowsOf(t1.Sub(t0))
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(t0.Add(time.Duration(i) * subLen)))
		cpuMarks = append(cpuMarks, cpuNow())
		if sampleHeap {
			runtime.ReadMemStats(&ms)
			heapPeak = max(heapPeak, ms.HeapInuse)
		}
	}
	time.Sleep(time.Until(t1))
	after = readResources()
	return before, after, cpuMarks, heapPeak
}

// runResult is one run of one workload: the end-to-end numbers, plus the
// raw material the traced pass turns into per-layer numbers.
type runResult struct {
	workload string
	windowS  float64

	attempted int64
	failed    int64
	ops       int64 // verified ops inside the window
	opsPerS   float64
	bodyBytes int64
	goodputMB float64 // MB/s

	latSamples int
	midus      float64 // interquartile mean
	p50us      float64
	p90us      float64
	p99us      float64
	p999us     float64
	maxus      float64

	cpuNSPerOp   float64
	allocKBPerOp float64
	mallocsPerOp float64
	gcCycles     float64
	gcPauseMS    float64
	heapPeakMB   float64

	// allOps counts every op of the run, warm-up included.
	allOps    int64
	allFailed int64
	allBytes  int64

	// Driver-side traced counters.
	flushNS int64
	wuSent  int64

	errs []error
}

// summarize turns the workers' sinks and the window's resource readings
// into a runResult.
func summarize(workload string, sinks []*opSink, before, after resources, cpuMarks []int64, heapPeak uint64) *runResult {
	r := &runResult{workload: workload}
	r.windowS = sinks[0].t1.Sub(sinks[0].t0).Seconds()
	n := len(sinks[0].subOps)
	var lat []int32
	for _, s := range sinks {
		r.attempted += s.attempted
		r.failed += s.failed
		r.bodyBytes += s.bodyBytes
		r.allOps += s.allOps
		r.allFailed += s.allFailed
		r.allBytes += s.allBytes
		lat = append(lat, s.lat...)
	}
	r.ops = r.attempted - r.failed
	r.fillUsage(before, after, heapPeak)
	slices.Sort(lat)
	fillLatency(r, lat)

	// Per sub-window: ops and body bytes per second, CPU per op and the
	// latency midmean (the last two where an op ended).
	subS := sinks[0].subLen.Seconds()
	var rates, goodputs, costs, mids []float64
	var sub []int32
	for i := 0; i < n; i++ {
		var ops, bytes int64
		sub = sub[:0]
		for _, s := range sinks {
			ops += s.subOps[i]
			bytes += s.subBytes[i]
			sub = append(sub, s.subSamples(i)...)
		}
		rates = append(rates, float64(ops)/subS)
		goodputs = append(goodputs, float64(bytes)/1e6/subS)
		if ops > 0 {
			costs = append(costs, float64(cpuMarks[i+1]-cpuMarks[i])/float64(ops))
		}
		if len(sub) > 0 {
			slices.Sort(sub)
			mids = append(mids, midmean(sub)/1e3)
		}
	}
	r.opsPerS = quietHigh(rates)
	r.goodputMB = quietHigh(goodputs)
	if len(costs) > 0 {
		r.cpuNSPerOp = quietLow(costs)
	}
	if len(mids) > 0 {
		r.midus = quietLow(mids)
	}
	return r
}

// fillLatency reads the latency figures off the ascending samples, in
// nanoseconds.
func fillLatency[T int32 | int64](r *runResult, sorted []T) {
	r.latSamples = len(sorted)
	r.midus = midmean(sorted) / 1e3
	r.p50us = quantileSorted(sorted, 0.50) / 1e3
	r.p90us = quantileSorted(sorted, 0.90) / 1e3
	r.p99us = quantileSorted(sorted, 0.99) / 1e3
	r.p999us = quantileSorted(sorted, 0.999) / 1e3
	r.maxus = quantileSorted(sorted, 1) / 1e3
}

func (r *runResult) fillUsage(before, after resources, heapPeak uint64) {
	ops := float64(r.ops)
	if ops < 1 {
		ops = 1
	}
	r.cpuNSPerOp = float64(after.cpuNS-before.cpuNS) / ops
	r.allocKBPerOp = float64(after.alloc-before.alloc) / 1024 / ops
	r.mallocsPerOp = float64(after.mallocs-before.mallocs) / ops
	r.gcCycles = float64(after.numGC - before.numGC)
	r.gcPauseMS = float64(after.pauseNS-before.pauseNS) / 1e6
	r.heapPeakMB = float64(heapPeak) / (1 << 20)
}

// runServe drives one of the three serve workloads against fx.
func runServe(fx *fixture, wl workloadDef, cfg runConfig) (*runResult, error) {
	// Room for every sample of the fastest plausible run (per worker); a
	// run that outgrows it reports fewer samples than ops.
	sampleCap := int(cfg.window.Seconds()*250e3) + 1024

	zipf := newZipfTable(siteObjects)
	drivers := make([]*driver, cfg.clients)
	sinks := make([]*opSink, cfg.clients)
	for i := range drivers {
		d := &driver{
			id:          i,
			batchN:      wl.Batch,
			timeout:     batchTimeout,
			perRequest:  wl.Name != wlConnChurn,
			verifyEvery: timedVerifyEvery,
			readBuf:     64 << 10,
			dial:        fx.dial,
			hub:         fx.hub,
			spans:       cfg.spans,
		}
		if wl.Name == wlConnChurn {
			// A churn connection lives for four small responses; a
			// large client buffer would only add allocation to every op.
			d.readBuf = 8 << 10
		}
		switch wl.Name {
		case wlLargeGet:
			d.objects = fx.bs.Large
			d.next = newLargeSeq(cfg.seed, i).next
		default:
			d.objects = fx.bs.Small
			d.next = newZipfSeq(zipf, cfg.seed, i, seqLen).next
		}
		drivers[i] = d
	}
	// The clock starts once the request sequences are drawn, so drawing
	// them does not eat into the warm-up.
	t0 := time.Now().Add(cfg.warmup)
	t1 := t0.Add(cfg.window)
	for i, d := range drivers {
		d.sink = newOpSink(t0, cfg.window, sampleCap)
		sinks[i] = d.sink
	}

	var wg sync.WaitGroup
	for _, d := range drivers {
		wg.Add(1)
		go func(d *driver) {
			defer wg.Done()
			var err error
			if wl.Name == wlConnChurn {
				err = d.churnLoop(t1)
			} else {
				err = d.getLoop(t1)
			}
			if err != nil && d.firstErr == nil {
				d.firstErr = err
			}
		}(d)
	}
	before, after, cpuMarks, heapPeak := windowUsage(t0, t1, fx.hub != nil)
	wg.Wait()

	r := summarize(wl.Name, sinks, before, after, cpuMarks, heapPeak)
	for _, d := range drivers {
		r.flushNS += d.flushNS
		r.wuSent += d.wuSent
		if d.firstErr != nil {
			r.errs = append(r.errs, fmt.Errorf("worker %d: %w", d.id, d.firstErr))
		}
	}
	if len(r.errs) > 0 && r.ops == 0 {
		return r, errors.Join(r.errs...)
	}
	return r, nil
}

// getLoop keeps one connection saturated with closed-loop batches until
// the window ends; a connection that dies is replaced (its open ops were
// already counted as failed).
func (d *driver) getLoop(until time.Time) error {
	c, _, err := d.connect()
	if err != nil {
		return err
	}
	for time.Now().Before(until) {
		if c.dead || c.goaway {
			d.retire(c)
			c.close()
			if c, _, err = d.connect(); err != nil {
				return err
			}
		}
		d.runBatch(c, d.batchN)
	}
	var cerr error
	if !c.dead {
		cerr = c.goAwayAndClose()
	}
	d.retire(c)
	return cerr
}

// churnLoop runs connection-lifetime ops back to back until the window
// ends.
func (d *driver) churnLoop(until time.Time) error {
	for time.Now().Before(until) {
		if err := d.churnOp(); err != nil {
			return err
		}
	}
	return nil
}

// churnOp is one conn_churn op: dial, SETTINGS exchange, churnRequests
// sequential GETs, GOAWAY, close. It fails as a whole if any step does. A
// dial or handshake failure is returned: the benchmark cannot go on without
// a server.
func (d *driver) churnOp() error {
	c, t0, err := d.connect()
	if err != nil {
		now := time.Now()
		d.sink.record(now, now.Sub(t0), false, 0)
		return err
	}
	ready := time.Now()
	okOps, okBytes := 0, 0
	for i := 0; i < churnRequests && !c.dead && !c.goaway; i++ {
		d.runBatch(c, 1)
		okOps += d.b.okOps
		okBytes += d.b.okBytes
	}
	teardown := time.Now()
	ok := okOps == churnRequests
	if c.dead {
		ok = false
	} else if err := c.goAwayAndClose(); err != nil {
		ok = false
		if c.err == nil {
			c.err = err
		}
	}
	end := time.Now()
	d.sink.record(end, end.Sub(t0), ok, okBytes)
	if d.hub != nil && (d.sink.allOps-1)%sampleEvery == 0 {
		d.spans.addConn(fmt.Sprintf("c%d", c.port), t0, ready, teardown, end)
	}
	d.retire(c)
	return nil
}
