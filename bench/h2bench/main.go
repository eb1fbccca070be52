// Command h2bench is the repository's benchmark: four closed-loop workloads
// (serve small, serve large, connection churn, census scan) against the
// repository's own server and scanner, in one process, with a correctness
// gate in front and a traced pass behind that says where the time went.
//
//	go run ./bench/h2bench -seed 1                      # the whole suite
//	go run ./bench/h2bench -workload small_get -aa 5    # A/A spread of one workload
//
// Given -trace 0 or -trace 1 it runs one workload the way BENCHMARK.json
// describes and ends its standard output with one JSON object. See
// bench/README.md for what every number means.
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

const (
	// maxClients is the number of load connections, driver goroutines and
	// scan workers; it is lowered to the core count on a smaller machine,
	// because load goroutines beyond the cores measure the Go scheduler.
	maxClients = 2
	// suiteWindow and suiteTraceWindow are the suite's measured window and
	// traced-pass window when no flag says otherwise.
	suiteWindow      = 30 * time.Second
	suiteTraceWindow = 5 * time.Second
	// suiteSetupReps is how many times set-up runs; setup_s is the median.
	suiteSetupReps = 3
	spanDir        = "bench/out"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "h2bench:", err)
		os.Exit(1)
	}
}

// errFailedOps ends a run whose numbers were printed but must not be used.
var errFailedOps = errors.New("failed ops or a failed correctness check; the numbers above do not count")

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("h2bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: request paths, object sizes, census sample")
	names := fs.String("workload", "", "comma-separated workloads to run (default: all four)")
	duration := fs.Duration("duration", suiteWindow, "measured window of each untraced run")
	seconds := fs.Int("seconds", 0, "measured window in whole seconds (overrides -duration)")
	jsonPath := fs.String("json", "", "also write the report as JSON to this file")
	noTrace := fs.Bool("no-trace", false, "skip the traced pass")
	aa := fs.Int("aa", 0, "run the untraced suite N times (seeds seed..seed+N-1) and report each gated metric's spread against its bound")
	trace := fs.Int("trace", -1, "0: one workload, end-to-end metrics as one JSON line; 1: the same for the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds > 0 {
		*duration = time.Duration(*seconds) * time.Second
	}
	if *duration < 100*time.Millisecond {
		return fmt.Errorf("-duration %v is too short to measure", *duration)
	}
	wls := workloads
	if *names != "" {
		wls = nil
		for _, n := range strings.Split(*names, ",") {
			wl, ok := workloadByName(strings.TrimSpace(n))
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			wls = append(wls, wl)
		}
	}
	golden, err := goldenTable3()
	if err != nil {
		return err
	}
	o := suiteOptions{
		seed:        *seed,
		window:      *duration,
		traceWindow: min(suiteTraceWindow, *duration),
		setupReps:   suiteSetupReps,
		clients:     min(maxClients, runtime.NumCPU()),
		golden:      golden,
		spanDir:     spanDir,
	}
	if *noTrace {
		o.traceWindow = 0
	}

	switch {
	case *trace == 0 || *trace == 1:
		if len(wls) != 1 || *aa > 0 {
			return errors.New("-trace 0|1 runs exactly one -workload, without -aa")
		}
		return runContract(wls[0], o, *trace == 1, stdout)
	case *trace != -1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	case *aa > 0:
		if *aa < 2 {
			return errors.New("-aa needs at least 2 runs to have a spread")
		}
		return runAA(wls, o, *aa, *jsonPath, stdout)
	}

	mc := readMachineContext(o.clients)
	mc.print(stdout)
	rep := suiteReport{Machine: mc}
	bad := false
	for _, wl := range wls {
		r, err := runWorkload(wl, o)
		if err != nil {
			return fmt.Errorf("%s: %w", wl.Name, err)
		}
		r.print(stdout)
		rep.Workloads = append(rep.Workloads, r)
		bad = bad || !r.correct()
	}
	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, rep); err != nil {
			return err
		}
	}
	if bad {
		return errFailedOps
	}
	return nil
}

// runContract runs one workload for the driver named in BENCHMARK.json: the
// untraced run alone for the end-to-end metrics, or half the time untraced
// and half traced for the per-layer metrics. The last line of stdout is the
// result object.
func runContract(wl workloadDef, o suiteOptions, traced bool, stdout io.Writer) error {
	if traced {
		o.window /= 2
		o.traceWindow = o.window
		o.setupReps = 1 // setup_s is not reported on this side
	} else {
		o.traceWindow = 0
	}
	r, err := runWorkload(wl, o)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.Name, err)
	}
	readMachineContext(o.clients).print(stdout)
	r.print(stdout)
	line := contractLine{Correct: r.correct(), Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if traced {
		line.Metrics = r.PerLayer
	}
	b, err := json.Marshal(line)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}
