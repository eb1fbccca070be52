package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/metrics"
	"h2scope/internal/population"
	"h2scope/internal/scan"
)

// scanScale is the census down-scaling probe_scan draws its sites from:
// 1 % of the January 2017 working set, 643 sites.
const scanScale = 0.01

// scanPlan is the seeded census sample probe_scan walks through.
type scanPlan struct {
	pop *population.Population
	// order lists site indices so that every prefix holds the server
	// families in the census's proportions.
	order []int
	seed  int64
}

// newScanPlan draws the census sample from seed and fixes the order sites
// are scanned in. A site's wall time goes in steps of the 100 ms quiet
// window and differs by family (litespeed 330 ms at the median, nginx 140),
// so a run's sites per second follows its family mix; a plain shuffle lets
// that mix, and every metric with it, swing by 10 % between seeds. The
// seed decides which sites of a family are scanned, not how many.
func newScanPlan(seed int64) *scanPlan {
	pop := population.Generate(population.EpochJan2017, scanScale, seed)
	rng := rand.New(rand.NewSource(seed))
	byFamily := make(map[string][]int)
	var families []string
	for _, i := range rng.Perm(len(pop.Sites)) {
		f := pop.Sites[i].Family
		if byFamily[f] == nil {
			families = append(families, f)
		}
		byFamily[f] = append(byFamily[f], i)
	}
	slices.Sort(families)
	// Deal the families out at their own rates: at every step the family
	// furthest behind its share of the sites dealt so far goes next.
	total := float64(len(pop.Sites))
	dealt := make(map[string]int, len(families))
	order := make([]int, 0, len(pop.Sites))
	for len(order) < len(pop.Sites) {
		best, bestLag := "", math.Inf(-1)
		for _, f := range families {
			if dealt[f] == len(byFamily[f]) {
				continue
			}
			share := float64(len(byFamily[f])) / total
			if lag := share*float64(len(order)+1) - float64(dealt[f]); lag > bestLag {
				best, bestLag = f, lag
			}
		}
		order = append(order, byFamily[best][dealt[best]])
		dealt[best]++
	}
	return &scanPlan{pop: pop, order: order, seed: seed}
}

// take returns n sites of the sample starting at position from (wrapping
// around), as a population of their own for population.Scan.
func (p *scanPlan) take(from, n int) *population.Population {
	sites := make([]population.SiteSpec, n)
	for i := range sites {
		sites[i] = p.pop.Sites[p.order[(from+i)%len(p.order)]]
	}
	return &population.Population{Epoch: p.pop.Epoch, Scale: p.pop.Scale, Sites: sites}
}

// registryCounters reads every counter and gauge of reg by name.
func registryCounters(reg *metrics.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, m := range reg.Snapshot() {
		if m.Histogram == nil {
			out[m.Name] = float64(m.Value)
		}
	}
	return out
}

// sumPrefix adds up every instrument whose name starts with prefix — all
// label values of one family.
func sumPrefix(snap map[string]float64, prefix string) float64 {
	var s float64
	for name, v := range snap {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

// delta is after-before, instrument by instrument.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// dataPayloadBytes is the DATA payload the instrumented framers read: wire
// bytes minus one 9-byte header per frame.
func dataPayloadBytes(d map[string]float64) float64 {
	typ := frame.TypeData.String()
	return d[metrics.Label("h2_frame_bytes_read_total", "type", typ)] -
		frame.HeaderLen*d[metrics.Label("h2_frames_read_total", "type", typ)]
}

// scanExtras are the scan-only readings the traced pass reports.
type scanExtras struct {
	stats    scan.Stats
	counters map[string]float64 // registry deltas over the measured scan
	cpuNS    int64
	wallNS   int64
}

// scanSites is population.Scan with probe_scan's options: the defaults,
// parallelism capped like the serve clients by the cores of the machine.
func scanSites(pop *population.Population, seed int64, parallelism int, reg *metrics.Registry,
	onRecord func(scan.Record)) (*population.ScanSummary, error) {
	return population.Scan(pop, population.ScanOptions{
		Parallelism: parallelism,
		Seed:        seed,
		Metrics:     reg,
		OnRecord:    onRecord,
	})
}

// checkScan is probe_scan's part of the correctness gate: every site
// succeeded, the engine's outcome partition adds up, and every measured
// report agrees with the ground truth of the site's spec.
func checkScan(sum *population.ScanSummary) error {
	if !sum.Stats.Consistent() {
		return fmt.Errorf("scan stats do not add up: %s", sum.Stats)
	}
	if agr := population.ComputeAgreement(sum); !agr.Perfect() {
		return fmt.Errorf("scan disagrees with ground truth: %v", agr.Mismatches)
	}
	return nil
}

// runScan is the probe_scan workload. A short warm-up scan also calibrates
// the site rate; the measured part is then one population.Scan over as many
// sites as fill the window at that rate, so the window is the scan's own
// wall time and every site runs to completion (cancelling a scan at a
// deadline would leave half-probed sites in the numbers).
//
// The metrics registry is on in the untraced pass too: it is where the
// DATA byte count behind goodput_mbps comes from, and it costs two atomic
// adds per frame against ~10 ms of CPU per site.
func runScan(plan *scanPlan, cfg runConfig, sampleHeap bool) (*runResult, *scanExtras, error) {
	reg := metrics.NewRegistry()
	warmSites := int(math.Round(cfg.warmup.Seconds() * 8))
	warmSites = min(max(warmSites, 2), 24)
	warmStart := time.Now()
	sum, err := scanSites(plan.take(0, warmSites), plan.seed, cfg.clients, reg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up scan: %w", err)
	}
	if err := checkScan(sum); err != nil {
		return nil, nil, fmt.Errorf("warm-up scan: %w", err)
	}
	rate := float64(warmSites) / time.Since(warmStart).Seconds()
	sites := max(int(math.Round(rate*cfg.window.Seconds())), 2*cfg.clients)

	var mu sync.Mutex
	var elapsed []int64
	onRecord := func(rec scan.Record) {
		mu.Lock()
		if rec.Outcome == scan.OutcomeSuccess {
			elapsed = append(elapsed, int64(rec.Elapsed))
		}
		mu.Unlock()
	}

	stopHeap := make(chan struct{})
	var heapPeak uint64
	var heapWG sync.WaitGroup
	if sampleHeap {
		heapWG.Add(1)
		go func() {
			defer heapWG.Done()
			var ms runtime.MemStats
			tick := time.NewTicker(subWindow)
			defer tick.Stop()
			for {
				runtime.ReadMemStats(&ms)
				heapPeak = max(heapPeak, ms.HeapInuse)
				select {
				case <-stopHeap:
					return
				case <-tick.C:
				}
			}
		}()
	}

	countersBefore := registryCounters(reg)
	before := readResources()
	sum, err = scanSites(plan.take(warmSites, sites), plan.seed, cfg.clients, reg, onRecord)
	after := readResources()
	close(stopHeap)
	heapWG.Wait()
	if err != nil {
		return nil, nil, fmt.Errorf("scan: %w", err)
	}
	counters := delta(countersBefore, registryCounters(reg))

	wall := after.at.Sub(before.at)
	r := &runResult{workload: wlProbeScan, windowS: wall.Seconds()}
	r.attempted = sum.Stats.Attempted
	r.failed = sum.Stats.Failed + sum.Stats.Canceled
	r.ops = sum.Stats.Succeeded
	r.allOps, r.allFailed = r.attempted, r.failed
	r.opsPerS = float64(r.ops) / r.windowS
	r.bodyBytes = int64(dataPayloadBytes(counters))
	r.goodputMB = float64(r.bodyBytes) / 1e6 / r.windowS
	r.allBytes = r.bodyBytes
	slices.Sort(elapsed)
	fillLatency(r, elapsed)
	r.fillUsage(before, after, heapPeak)
	if err := checkScan(sum); err != nil {
		r.errs = append(r.errs, err)
	}
	return r, &scanExtras{
		stats:    sum.Stats,
		counters: counters,
		cpuNS:    after.cpuNS - before.cpuNS,
		wallNS:   int64(wall),
	}, nil
}
