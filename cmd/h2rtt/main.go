// Command h2rtt regenerates the paper's Fig. 6: round-trip-time estimates
// by HTTP/2 PING, ICMP echo, TCP handshake timing, and HTTP/1.1
// request/response timing, over latency-shaped paths to materialized hosts
// drawn from the synthetic population's top server families.
//
// Usage:
//
//	h2rtt                         # 10 sites per family, paper-like
//	h2rtt -per-family 3 -scale 0.1  # faster, 10x-compressed wall clock
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"h2scope"
	"h2scope/internal/population"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "h2rtt:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2rtt", flag.ContinueOnError)
	var (
		epochFlag = fs.Int("epoch", 2, "experiment epoch: 1 (Jul 2016) or 2 (Jan 2017)")
		perFamily = fs.Int("per-family", 10, "sites per top server family (the paper uses 10)")
		samples   = fs.Int("samples", 3, "RTT samples per site per method")
		timeScale = fs.Float64("scale", 1.0, "wall-clock compression factor (0.05 = 20x faster; results unscaled)")
		seed      = fs.Int64("seed", 9, "site selection and jitter seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	epoch := population.EpochJan2017
	if *epochFlag == 1 {
		epoch = population.EpochJul2016
	}
	fmt.Fprintf(stdout, "Figure 6: RTT by four methods (%s, %d sites/family, %d samples, time scale %.3g)\n\n",
		epoch, *perFamily, *samples, *timeScale)
	cmp, err := h2scope.RunRTTComparison(epoch, *perFamily, *samples, *timeScale, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, h2scope.RenderRTTComparison(cmp))
	fmt.Fprintf(stdout, "(%d samples total; RTTs reported at full scale)\n", len(cmp.Samples))
	return nil
}
