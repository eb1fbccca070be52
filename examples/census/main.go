// Census: synthesize a scaled-down Alexa top-1M population for both of the
// paper's measurement epochs, print the headline tables, and re-measure a
// sample of sites with real probes to show generator and measurement agree.
//
//	go run ./examples/census
package main

import (
	"fmt"
	"os"

	"h2scope"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "census:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		scale = 0.05 // 5% of the full universe: ~2,200 / ~3,200 working sites
		seed  = 42
	)
	for _, epoch := range []h2scope.Epoch{h2scope.EpochJul2016, h2scope.EpochJan2017} {
		census := h2scope.NewCensus(epoch, scale, seed)
		fmt.Printf("==== %s (scale %.2f) ====\n\n", epoch, scale)
		fmt.Println(census.Adoption())
		fmt.Println("Top servers (Table IV, scaled):")
		fmt.Println(census.TableIV(int(1000 * scale)))
		fmt.Println("Priority compliance (Section V-E):")
		fmt.Println(census.SectionVE())
	}

	// Measured verification: probe 30 materialized sites from the Jan 2017
	// universe and compare against the generator's ground truth.
	pop := h2scope.GeneratePopulation(h2scope.EpochJan2017, scale, seed)
	fmt.Println("==== Measured scan of 30 materialized sites (Jan 2017) ====")
	sum, err := h2scope.ScanPopulation(pop, h2scope.ScanOptions{
		SampleSize:  30,
		Parallelism: 8,
		Seed:        7,
	})
	if err != nil {
		return err
	}
	measured := &h2scope.Census{Tally: &sum.Tally, Label: "measured"}
	fmt.Println(measured.Adoption())
	fmt.Println(measured.SectionVE())

	matches := 0
	for _, res := range sum.Results {
		if res.Report != nil && res.Report.Settings != nil &&
			res.Report.Settings.ServerHeader == res.Spec.ServerName {
			matches++
		}
	}
	fmt.Printf("server-header agreement with ground truth: %d/%d sites\n", matches, sum.Scanned)
	return nil
}
