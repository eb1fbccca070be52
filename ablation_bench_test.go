// Ablation benchmarks for the design choices DESIGN.md calls out: the
// server's scheduling modes, the HPACK indexing policies, the advertised
// maximum frame size, and the DoS angles of the paper's Discussion section.
package h2scope_test

import (
	"fmt"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
	"h2scope/internal/netsim"
	"h2scope/internal/pageload"
	"h2scope/internal/population"
	"h2scope/internal/server"
)

// startBenchServer launches a profile server and returns its listener.
func startBenchServer(b *testing.B, p server.Profile) *netsim.Listener {
	b.Helper()
	srv := server.New(p, server.DefaultSite("ablation.example"))
	l := netsim.NewListener(p.Family + "-ablation")
	go func() {
		_ = srv.Serve(l)
	}()
	b.Cleanup(srv.Close)
	return l
}

// BenchmarkAblationSchedulingModes transfers six prioritized streams under
// each scheduling mode: priority scheduling changes ordering, not cost.
func BenchmarkAblationSchedulingModes(b *testing.B) {
	modes := []server.SchedulingMode{
		server.SchedRoundRobin,
		server.SchedPriority,
		server.SchedPriorityLastOnly,
		server.SchedPriorityFirstOnly,
	}
	for _, mode := range modes {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			p := server.H2OProfile()
			p.Scheduling = mode
			l := startBenchServer(b, p)
			b.SetBytes(6 * 96 * 1024)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nc, err := l.Dial()
				if err != nil {
					b.Fatal(err)
				}
				c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				var parent uint32
				ids := make([]uint32, 0, 6)
				for s := 1; s <= 6; s++ {
					id := c.NextStreamID()
					req := h2conn.Request{
						Authority: "ablation.example",
						Path:      fmt.Sprintf("/large/%d", s),
						Priority:  frame.PriorityParam{StreamDep: parent, Weight: 15},
					}
					if err := c.OpenStreamID(id, req); err != nil {
						b.Fatal(err)
					}
					parent = id
					ids = append(ids, id)
				}
				done := 0
				if _, err := c.Wait(0, 30*time.Second, func(e h2conn.Event) bool {
					if e.Type == frame.TypeData && e.StreamEnded() {
						done++
					}
					return done >= len(ids)
				}); err != nil {
					b.Fatal(err)
				}
				_ = c.Close()
			}
		})
	}
}

// BenchmarkAblationHPACKPolicies measures response-header bytes on the wire
// under each indexing policy over repeated identical requests — the
// mechanism behind Figs. 4 and 5.
func BenchmarkAblationHPACKPolicies(b *testing.B) {
	policies := []struct {
		name string
		prep func() server.Profile
	}{
		{"index-all", func() server.Profile { return server.H2OProfile() }},
		{"no-dynamic-insert", func() server.Profile { return server.NginxProfile() }},
		{"partial-0.5", func() server.Profile {
			p := server.H2OProfile()
			pop := population.Generate(population.EpochJul2016, 0.001, 1)
			// Borrow a mid-ratio site's profile for a calibrated partial policy.
			for i := range pop.Sites {
				if r := pop.Sites[i].HPACKRatio; r > 0.4 && r < 0.7 {
					return pop.Sites[i].Profile()
				}
			}
			return p
		}},
	}
	for _, pol := range policies {
		pol := pol
		b.Run(pol.name, func(b *testing.B) {
			l := startBenchServer(b, pol.prep())
			const requests = 8
			b.ResetTimer()
			var headerBytes, firstBytes int64
			for i := 0; i < b.N; i++ {
				nc, err := l.Dial()
				if err != nil {
					b.Fatal(err)
				}
				c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < requests; r++ {
					resp, err := c.FetchBody(h2conn.Request{
						Authority: "ablation.example", Path: "/about.html",
					}, 10*time.Second)
					if err != nil {
						b.Fatal(err)
					}
					headerBytes += int64(resp.HeaderBlockLen)
					if r == 0 {
						firstBytes += int64(resp.HeaderBlockLen)
					}
				}
				_ = c.Close()
			}
			b.ReportMetric(float64(headerBytes)/float64(b.N)/requests, "hdrB/req")
			b.ReportMetric(float64(headerBytes)/float64(firstBytes*requests), "ratio")
		})
	}
}

// BenchmarkAblationMaxFrameSize sweeps the client's SETTINGS_MAX_FRAME_SIZE
// (the Table VI dimension) over a bulk transfer.
func BenchmarkAblationMaxFrameSize(b *testing.B) {
	for _, size := range []uint32{16_384, 65_536, 1_048_576} {
		size := size
		b.Run(fmt.Sprintf("max_frame=%d", size), func(b *testing.B) {
			l := startBenchServer(b, server.NginxProfile())
			opts := h2conn.DefaultOptions()
			opts.Settings = []frame.Setting{{ID: frame.SettingMaxFrameSize, Val: size}}
			nc, err := l.Dial()
			if err != nil {
				b.Fatal(err)
			}
			c, err := h2conn.Dial(nc, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				_ = c.Close()
			})
			b.SetBytes(96 * 1024)
			b.ResetTimer()
			var frames int64
			for i := 0; i < b.N; i++ {
				resp, err := c.FetchBody(h2conn.Request{
					Authority: "ablation.example", Path: "/large/1",
				}, 10*time.Second)
				if err != nil {
					b.Fatal(err)
				}
				frames += int64(len(resp.DataFrameSizes))
			}
			b.ReportMetric(float64(frames)/float64(b.N), "frames/op")
		})
	}
}

// BenchmarkDoSTinyWindowPinning measures the malicious-receiver attack of
// the Discussion section: bytes a server must keep queued per connection
// when the client pins the stream window to one byte.
func BenchmarkDoSTinyWindowPinning(b *testing.B) {
	l := startBenchServer(b, server.ApacheProfile())
	const streams = 8
	b.ResetTimer()
	var pinned int64
	for i := 0; i < b.N; i++ {
		nc, err := l.Dial()
		if err != nil {
			b.Fatal(err)
		}
		opts := h2conn.Options{
			Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 1}},
			AutoSettingsAck: true,
			AutoPingAck:     true,
		}
		c, err := h2conn.Dial(nc, opts)
		if err != nil {
			b.Fatal(err)
		}
		for s := 1; s <= streams; s++ {
			if _, err := c.OpenStream(h2conn.Request{
				Authority: "ablation.example", Path: fmt.Sprintf("/large/%d", s),
			}); err != nil {
				b.Fatal(err)
			}
		}
		received := 0
		c.WaitQuiet(0, 5*time.Millisecond, time.Second, func(e h2conn.Event) { received += len(e.Data) })
		pinned += int64(streams*96*1024 - received)
		_ = c.Close()
	}
	b.ReportMetric(float64(pinned)/float64(b.N)/1024, "pinnedKiB/conn")
}

// BenchmarkDoSReprioritizationChurn measures server-side PRIORITY frame
// processing throughput, the algorithmic-complexity surface the paper's
// Discussion flags.
func BenchmarkDoSReprioritizationChurn(b *testing.B) {
	l := startBenchServer(b, server.ApacheProfile())
	nc, err := l.Dial()
	if err != nil {
		b.Fatal(err)
	}
	c, err := h2conn.Dial(nc, h2conn.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		_ = c.Close()
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := uint32(2*(i%128) + 1)
		dep := uint32(2*((i+31)%128) + 1)
		if dep == id {
			dep = 0
		}
		if err := c.WritePriority(id, frame.PriorityParam{
			StreamDep: dep, Exclusive: i%2 == 0, Weight: uint8(i),
		}); err != nil {
			b.Fatal(err)
		}
		// Periodically synchronize so the measurement covers server-side
		// processing, not just enqueueing into the in-process pipe (and so
		// the pipe never holds millions of unprocessed frames).
		if i%50_000 == 49_999 {
			if _, err := c.Ping([8]byte{'s', 'y', 'n', 'c', byte(i)}, 30*time.Second); err != nil {
				b.Fatalf("server unresponsive mid-churn: %v", err)
			}
		}
	}
	b.StopTimer()
	// Confirm the server survived the churn.
	if _, err := c.Ping([8]byte{'c', 'h', 'u', 'r', 'n'}, 30*time.Second); err != nil {
		b.Fatalf("server unresponsive: %v", err)
	}
}

// BenchmarkAblationFlowControlHeaders compares response-start latency with
// and without the LiteSpeed misbehavior of withholding HEADERS.
func BenchmarkAblationFlowControlHeaders(b *testing.B) {
	for _, fch := range []bool{false, true} {
		fch := fch
		name := "compliant"
		if fch {
			name = "flow-control-on-headers"
		}
		b.Run(name, func(b *testing.B) {
			p := server.ApacheProfile()
			p.FlowControlHeaders = fch
			l := startBenchServer(b, p)
			b.ResetTimer()
			got := 0
			for i := 0; i < b.N; i++ {
				nc, err := l.Dial()
				if err != nil {
					b.Fatal(err)
				}
				opts := h2conn.Options{
					Settings:        []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 0}},
					AutoSettingsAck: true,
				}
				c, err := h2conn.Dial(nc, opts)
				if err != nil {
					b.Fatal(err)
				}
				id, err := c.OpenStream(h2conn.Request{Authority: "ablation.example", Path: "/large/1"})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Wait(0, 60*time.Millisecond, func(e h2conn.Event) bool {
					return e.Type == frame.TypeHeaders && e.StreamID == id
				}); err == nil {
					got++
				}
				_ = c.Close()
			}
			b.ReportMetric(float64(got)/float64(b.N), "headers/op")
		})
	}
}

// BenchmarkDoSPushWasteWarmCache quantifies the Discussion section's push
// bandwidth waste: a fully warm client cache still receives every pushed
// byte.
func BenchmarkDoSPushWasteWarmCache(b *testing.B) {
	site := server.DefaultSite("waste.example")
	srv := server.New(server.H2OProfile(), site)
	l := netsim.NewListener("push-waste")
	go func() {
		_ = srv.Serve(l)
	}()
	defer srv.Close()
	resources := []string{"/static/style.css", "/static/app.js"}
	var wasted int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc, err := l.Dial()
		if err != nil {
			b.Fatal(err)
		}
		stats, err := pageload.LoadWithStats(nc, pageload.Config{
			Authority: "waste.example", Page: "/", Resources: resources,
			EnablePush: true, Timeout: 10 * time.Second,
		}, resources)
		if err != nil {
			b.Fatal(err)
		}
		wasted += int64(stats.WastedPushBytes)
	}
	b.ReportMetric(float64(wasted)/float64(b.N)/1024, "wastedKiB/visit")
}
