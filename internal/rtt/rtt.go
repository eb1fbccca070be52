// Package rtt reproduces the paper's Fig. 6: comparing round-trip-time
// estimates from four methods against the same hosts — HTTP/2 PING, ICMP
// echo, TCP three-way-handshake timing, and HTTP/1.1 request/response
// timing.
//
// The paper measures real sites from a campus machine; here every host is
// a materialized server behind a latency-shaped in-process path with a
// known ground-truth RTT, so the methods' biases are measured against
// truth: h2-ping, icmp, and tcp-rtt track the network RTT, while
// h1-request adds the server's processing time.
package rtt

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"h2scope/internal/h2conn"
	"h2scope/internal/http1"
	"h2scope/internal/netsim"
	"h2scope/internal/server"
)

// Method identifies one RTT estimation technique of Fig. 6.
type Method string

// The four methods, named as in the figure's legend.
const (
	MethodH2Ping    Method = "h2-ping"
	MethodICMP      Method = "icmp"
	MethodTCP       Method = "tcp-rtt"
	MethodH1Request Method = "h1-request"
)

// Methods lists all four in the figure's order.
func Methods() []Method {
	return []Method{MethodH2Ping, MethodICMP, MethodTCP, MethodH1Request}
}

// Target is one host to measure.
type Target struct {
	// Domain names the host.
	Domain string
	// BaseRTT is the path's ground-truth round-trip time.
	BaseRTT time.Duration
	// Jitter is the maximum per-packet extra one-way delay.
	Jitter time.Duration
	// H1ProcessingDelay is the HTTP/1.1 server's per-request handling
	// time — the source of h1-request's upward bias.
	H1ProcessingDelay time.Duration
	// Profile and Site materialize the host's HTTP/2 server; zero-valued
	// Profile falls back to a compliant default.
	Profile server.Profile
	// Seed fixes the path's jitter sequence.
	Seed int64
}

// Sample is one measurement.
type Sample struct {
	Domain string
	Method Method
	RTT    time.Duration
}

// Comparison is the full Fig. 6 data set.
type Comparison struct {
	Samples []Sample
	// TimeScale is the factor real delays were shrunk by during the run;
	// RTTs in Samples are already scaled back to full size.
	TimeScale float64
}

// ByMethod groups RTT samples (in milliseconds) per method, sorted — the
// input of each CDF curve in Fig. 6.
func (c *Comparison) ByMethod() map[Method][]float64 {
	out := make(map[Method][]float64, 4)
	for _, s := range c.Samples {
		out[s.Method] = append(out[s.Method], float64(s.RTT)/float64(time.Millisecond))
	}
	for _, vals := range out {
		sort.Float64s(vals)
	}
	return out
}

// Options configures Compare.
type Options struct {
	// SamplesPerTarget is how many RTT samples each method collects per
	// host.
	SamplesPerTarget int
	// TimeScale shrinks real sleeping: path delays are multiplied by it
	// and measurements divided by it, preserving every relationship while
	// keeping wall-clock time manageable (e.g. 0.05 for benches).
	TimeScale float64
	// Parallelism bounds concurrent hosts.
	Parallelism int
}

// measureTimeout bounds each individual measurement.
const measureTimeout = 30 * time.Second

// Compare measures every target with all four methods.
func Compare(targets []Target, opts Options) (*Comparison, error) {
	if opts.SamplesPerTarget < 1 {
		opts.SamplesPerTarget = 3
	}
	if opts.TimeScale <= 0 {
		opts.TimeScale = 1
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 8
	}
	cmp := &Comparison{TimeScale: opts.TimeScale}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sem  = make(chan struct{}, opts.Parallelism)
		errs []error
	)
	for i := range targets {
		tgt := targets[i]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			samples, err := measureTarget(&tgt, opts)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("rtt: %s: %w", tgt.Domain, err))
				return
			}
			cmp.Samples = append(cmp.Samples, samples...)
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		return cmp, errs[0]
	}
	return cmp, nil
}

func measureTarget(t *Target, opts Options) ([]Sample, error) {
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * opts.TimeScale)
	}
	unscale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / opts.TimeScale)
	}
	path := netsim.NewPath(scale(t.BaseRTT), scale(t.Jitter), t.Seed)
	profile := t.Profile
	if profile.Name == "" {
		profile = server.ApacheProfile()
	}
	site := server.DefaultSite(t.Domain)
	h2srv := server.New(profile, site)
	h1 := &http1.Handler{
		Site:            site,
		ServerName:      profile.Name,
		ProcessingDelay: scale(t.H1ProcessingDelay),
	}

	out := make([]Sample, 0, 4*opts.SamplesPerTarget)
	add := func(m Method, rtt time.Duration) {
		out = append(out, Sample{Domain: t.Domain, Method: m, RTT: unscale(rtt)})
	}
	for i := 0; i < opts.SamplesPerTarget; i++ {
		// ICMP echo equivalent.
		icmp, err := path.ICMPPing()
		if err != nil {
			return nil, fmt.Errorf("icmp: %w", err)
		}
		add(MethodICMP, icmp)

		// TCP handshake timing.
		tcp, err := path.TCPHandshakeRTT()
		if err != nil {
			return nil, fmt.Errorf("tcp: %w", err)
		}
		add(MethodTCP, tcp)

		// HTTP/2 PING over a live connection.
		h2rtt, err := h2PingOnce(path, h2srv, measureTimeout, byte(i))
		if err != nil {
			return nil, fmt.Errorf("h2-ping: %w", err)
		}
		add(MethodH2Ping, h2rtt)

		// HTTP/1.1 request/response interval.
		h1rtt, err := h1RequestOnce(path, h1, t.Domain)
		if err != nil {
			return nil, fmt.Errorf("h1-request: %w", err)
		}
		add(MethodH1Request, h1rtt)
	}
	return out, nil
}

func h2PingOnce(path *netsim.Path, srv *server.Server, timeout time.Duration, tag byte) (time.Duration, error) {
	clientNC, serverNC := path.Connect()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.ServeConn(serverNC)
	}()
	c, err := h2conn.Dial(clientNC, h2conn.DefaultOptions())
	if err != nil {
		_ = clientNC.Close()
		<-done
		return 0, err
	}
	rtt, err := c.Ping([8]byte{'r', 't', 't', tag}, timeout)
	_ = c.Close()
	<-done
	return rtt, err
}

func h1RequestOnce(path *netsim.Path, h *http1.Handler, domain string) (time.Duration, error) {
	clientNC, serverNC := path.Connect()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = h.ServeConn(serverNC)
	}()
	rtt, err := http1.RequestRTT(clientNC, domain, "/about.html")
	_ = clientNC.Close()
	<-done
	return rtt, err
}
