// Command h2push regenerates the paper's Fig. 3: page-load time on the
// push-capable sites with server push enabled versus disabled, each site
// visited repeatedly over its latency-shaped path (the paper visits each
// site 30 times with Firefox's push support toggled).
//
// Usage:
//
//	h2push                     # Jul 2016's six push sites, 30 visits each
//	h2push -epoch 2 -visits 5  # Jan 2017's fifteen sites, quicker
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
		fmt.Fprintln(os.Stderr, "h2push:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("h2push", flag.ContinueOnError)
	var (
		epochFlag = fs.Int("epoch", 1, "experiment epoch: 1 (Jul 2016) or 2 (Jan 2017)")
		visits    = fs.Int("visits", 30, "visits per site per configuration")
		timeScale = fs.Float64("scale", 1.0, "wall-clock compression factor (results unscaled)")
		seed      = fs.Int64("seed", 3, "population seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	epoch := population.EpochJul2016
	if *epochFlag == 2 {
		epoch = population.EpochJan2017
	}
	fmt.Fprintf(stdout, "Figure 3: page-load time with server push enabled/disabled (%s, %d visits)\n\n", epoch, *visits)
	res, err := h2scope.RunPushPageLoad(epoch, *visits, *timeScale, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, res)
	return nil
}
