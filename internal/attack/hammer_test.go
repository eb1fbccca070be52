package attack_test

import (
	"sync"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/h2conn"
	"h2scope/internal/server"
)

// TestAttackHammer runs mixed attack scenarios concurrently against one
// server while benign traffic flows alongside. Under -race this exercises
// the server's cross-goroutine seams at once: many serve loops, the
// attackers' re-dials and the connections the structural bounds kill.
// Afterward the server must still answer a clean request.
func TestAttackHammer(t *testing.T) {
	tg := startTarget(t, server.NginxProfile())

	mixed := []attack.Kind{
		attack.KindRapidReset,
		attack.KindSettingsFlood,
		attack.KindSlowDrip,
		attack.KindContinuationFlood,
	}
	var wg sync.WaitGroup
	dur := smokeDuration(t) + 400*time.Millisecond
	for i, kind := range mixed {
		wg.Add(1)
		go func(worker int, k attack.Kind) {
			defer wg.Done()
			// Each attacker drives its own Runner so probes and attacks
			// interleave across goroutines too.
			ar := tg.runner()
			_, _ = ar.Run(k, attack.Params{
				Path:        "/large/1",
				Duration:    dur,
				Concurrency: 2,
				Jitter:      0.5,
				Seed:        int64(worker + 1),
			})
		}(i, kind)
	}
	// Benign reader hammering alongside the attackers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(dur)
		for time.Now().Before(deadline) {
			nc, err := tg.lis.Dial()
			if err != nil {
				continue
			}
			c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
			if err != nil {
				_ = nc.Close()
				continue
			}
			_, _ = c.FetchBody(h2conn.Request{Authority: "attack.example", Path: "/about.html"}, time.Second)
			_ = c.Close()
		}
	}()
	wg.Wait()

	// The server must still serve a clean request afterward.
	nc, err := tg.lis.Dial()
	if err != nil {
		t.Fatalf("post-hammer dial: %v", err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		_ = nc.Close()
		t.Fatalf("post-hammer setup: %v", err)
	}
	defer func() {
		_ = c.Close()
	}()
	resp, err := c.FetchBody(h2conn.Request{Authority: "attack.example", Path: "/about.html"}, 5*time.Second)
	if err != nil {
		t.Fatalf("post-hammer fetch: %v", err)
	}
	if got := resp.Status(); got != "200" {
		t.Fatalf("post-hammer status = %s, want 200", got)
	}
}
