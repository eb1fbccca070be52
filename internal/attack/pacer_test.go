package attack

import (
	"math/rand"
	"testing"
	"time"
)

// TestPacerKeepsRate pins the pacer to its schedule: operations that each
// take half an interval must still reach 90 % of Rate × Duration, with and
// without jitter. A pacer that sleeps a whole interval after every
// operation adds the operation's own cost to each gap and falls to about
// two thirds of the rate.
func TestPacerKeepsRate(t *testing.T) {
	for _, jitter := range []float64{0, 0.5} {
		p := Params{Rate: 200, Duration: 500 * time.Millisecond, Jitter: jitter}
		want := p.Rate * p.Duration.Seconds()
		deadline := time.Now().Add(p.Duration)
		pace := newPacer(p, rand.New(rand.NewSource(1)))
		ops := 0
		for {
			time.Sleep(pace.interval / 2) // the operation's own cost
			ops++
			if !pace.wait(deadline) {
				break
			}
		}
		if float64(ops) < 0.9*want {
			t.Errorf("jitter %.1f: %d ops at %.0f/s over %v, want at least %.0f", jitter, ops, p.Rate, p.Duration, 0.9*want)
		}
	}
}
