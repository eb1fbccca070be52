package population

import (
	"net"
	"sync"
	"testing"

	"h2scope/internal/netsim"
)

// TestScanClosesEveryConnection scans ten census sites — probe battery,
// adversarial battery and impersonation sweep — through counting dialers:
// every transport the scan opened is closed when it returns, the ones the
// site hung up on first (GOAWAY reactions, mitigated attackers) included.
func TestScanClosesEveryConnection(t *testing.T) {
	var (
		mu      sync.Mutex
		dialers []*netsim.CountingDialer
	)
	sum, err := Scan(Generate(EpochJan2017, 0.01, 7), ScanOptions{
		SampleSize:  10,
		Parallelism: 4,
		Seed:        7,
		Robustness:  true,
		Fingerprint: true,
		wrapDial: func(dial func() (net.Conn, error)) func() (net.Conn, error) {
			d := &netsim.CountingDialer{DialFunc: dial}
			mu.Lock()
			dialers = append(dialers, d)
			mu.Unlock()
			return d.Dial
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Stats.Succeeded != 10 || len(dialers) != 10 {
		t.Fatalf("scan stats: %s over %d dialers, want 10 sites succeeded", sum.Stats, len(dialers))
	}
	for i, d := range dialers {
		if opened, closed := d.Counts(); opened != closed || opened < batteryProbes {
			t.Errorf("site %d: the scan opened %d connections and closed %d", i, opened, closed)
		}
	}
}
