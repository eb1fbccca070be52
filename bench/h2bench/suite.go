package main

import (
	"fmt"
	"time"
)

// suiteOptions is what one pass over the workloads is run with.
type suiteOptions struct {
	seed int64
	// window is the measured window of the untraced run; traceWindow that
	// of the traced pass (0: no traced pass).
	window      time.Duration
	traceWindow time.Duration
	// setupReps is how many times set-up is done; setup_s is the median.
	setupReps int
	clients   int
	golden    *table3
	// spanDir is where the traced pass writes its sampled spans.
	spanDir string
}

// benchEnv is what set-up leaves behind for the runs: the seeded site and a
// started server for the serve workloads, the seeded census sample for
// probe_scan.
type benchEnv struct {
	bs   *benchSite
	fx   *fixture
	plan *scanPlan
}

func (e *benchEnv) close() {
	if e.fx != nil {
		e.fx.close()
	}
}

// setUp builds a workload's inputs from seed, starts the server under test
// and runs the correctness gate. Everything in here is what setup_s times.
func setUp(wl workloadDef, o suiteOptions) (*benchEnv, error) {
	if err := checkTable3(o.golden); err != nil {
		return nil, err
	}
	if wl.Name == wlProbeScan {
		// The scan's own checks (agreement with ground truth, consistent
		// stats) run on every scan, warm-up included.
		return &benchEnv{plan: newScanPlan(o.seed)}, nil
	}
	bs := buildSite(o.seed)
	fx, err := newFixture(bs, nil)
	if err != nil {
		return nil, err
	}
	for _, set := range [][]object{bs.Small, bs.Large} {
		if err := fetchAll(fx, set); err != nil {
			fx.close()
			return nil, fmt.Errorf("correctness gate: site fetch: %w", err)
		}
	}
	return &benchEnv{bs: bs, fx: fx}, nil
}

// runWorkload sets a workload up (setupReps times over), runs it untraced
// for the end-to-end metrics and, if asked, traced for the per-layer ones.
func runWorkload(wl workloadDef, o suiteOptions) (*workloadReport, error) {
	var env *benchEnv
	setupS := make([]float64, 0, o.setupReps)
	for i := 0; i < o.setupReps; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = setUp(wl, o); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer env.close()

	cfg := runConfig{seed: o.seed, window: o.window, warmup: warmupFor(o.window), clients: o.clients}
	untraced, err := env.measure(wl, cfg)
	if err != nil {
		return nil, err
	}
	rep := &workloadReport{
		Workload: wl.Name, Why: wl.Why, OpUnit: wl.OpUnit,
		Clients: o.clients, Seed: o.seed, WindowS: untraced.windowS,
	}
	rep.add(untraced)
	e2e := metricSet{
		"ops_per_s":     untraced.opsPerS,
		"op_mid_us":     untraced.midus,
		"goodput_mbps":  untraced.goodputMB,
		"cpu_us_per_op": untraced.cpuNSPerOp / 1e3,
		"setup_s":       median(setupS),
	}
	if rep.EndToEnd, err = e2e.fill(endToEndDefs); err != nil {
		return nil, err
	}
	if o.traceWindow <= 0 {
		return rep, nil
	}

	cfg.window, cfg.warmup = o.traceWindow, warmupFor(o.traceWindow)
	var layers metricSet
	var traced *runResult
	var spans *spanLog
	if wl.Name == wlProbeScan {
		layers, traced, err = tracedScan(env.plan, cfg, untraced)
	} else {
		layers, traced, spans, err = tracedServe(env.bs, wl, cfg, untraced)
	}
	if traced != nil {
		rep.add(traced)
	}
	if err != nil {
		return nil, err
	}
	if rep.PerLayer, err = layers.fill(perLayerDefs); err != nil {
		return nil, err
	}
	if spans != nil && spans.len() > 0 {
		if rep.TraceFile, err = spans.writeFile(o.spanDir, wl.Name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// measure is one untraced run of wl.
func (e *benchEnv) measure(wl workloadDef, cfg runConfig) (*runResult, error) {
	if wl.Name == wlProbeScan {
		r, _, err := runScan(e.plan, cfg, false)
		return r, err
	}
	return runServe(e.fx, wl, cfg)
}

// add counts a run's ops and errors against the workload.
func (r *workloadReport) add(run *runResult) {
	r.Attempted += run.attempted
	r.Failed += run.failed
	for _, err := range run.errs {
		r.Errors = append(r.Errors, err.Error())
	}
}
