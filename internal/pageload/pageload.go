// Package pageload measures page-load time (PLT) with server push enabled
// and disabled — the paper's Fig. 3 experiment, where 15 push-capable sites
// are visited 30 times each with Firefox's push support toggled.
//
// The load model is the browser fetch schedule that matters for push: the
// client fetches the page, then fetches every subresource in parallel.
// Without push the subresources cost an extra request round trip after the
// page arrives; with push the server starts sending them alongside the
// page, saving that round trip (exactly the mechanism Section VII's related
// work attributes the gains to).
package pageload

import (
	"fmt"
	"net"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// Config describes one page-load scenario.
type Config struct {
	// Authority is the site's domain.
	Authority string
	// Page is the entry document, usually "/".
	Page string
	// Resources are the subresources the page references.
	Resources []string
	// EnablePush toggles SETTINGS_ENABLE_PUSH.
	EnablePush bool
	// Timeout bounds the whole load.
	Timeout time.Duration
}

// Load performs one page load over nc and returns the PLT: the time from
// connection establishment until the page and all subresources completed.
func Load(nc net.Conn, cfg Config) (time.Duration, error) {
	st, err := LoadWithStats(nc, cfg, nil)
	if err != nil {
		return 0, err
	}
	return st.PLT, nil
}

// Dialer opens a fresh transport connection per visit.
type Dialer func() (net.Conn, error)

// Series holds the PLT samples of one site under both configurations —
// one group of Fig. 3's paired bars.
type Series struct {
	Domain  string
	PushOn  []time.Duration
	PushOff []time.Duration
}

// MeanOn returns the mean PLT with push enabled.
func (s *Series) MeanOn() time.Duration { return mean(s.PushOn) }

// MeanOff returns the mean PLT with push disabled.
func (s *Series) MeanOff() time.Duration { return mean(s.PushOff) }

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// Measure visits the site `visits` times in each configuration, as the
// paper does with Firefox (30 visits per site).
func Measure(dial Dialer, domain, page string, resources []string, visits int, timeout time.Duration) (*Series, error) {
	s := &Series{Domain: domain}
	for _, push := range []bool{true, false} {
		for v := 0; v < visits; v++ {
			nc, err := dial()
			if err != nil {
				return nil, fmt.Errorf("pageload: dial visit %d: %w", v, err)
			}
			plt, err := Load(nc, Config{
				Authority:  domain,
				Page:       page,
				Resources:  resources,
				EnablePush: push,
				Timeout:    timeout,
			})
			_ = nc.Close()
			if err != nil {
				return nil, fmt.Errorf("pageload: visit %d (push=%v): %w", v, push, err)
			}
			if push {
				s.PushOn = append(s.PushOn, plt)
			} else {
				s.PushOff = append(s.PushOff, plt)
			}
		}
	}
	return s, nil
}

// Stats reports one load's transfer accounting, used for the paper's
// Discussion-section concern that pushing objects the client already
// caches wastes bandwidth.
type Stats struct {
	// PLT is the page-load time.
	PLT time.Duration
	// BodyBytes is the total DATA payload received.
	BodyBytes int
	// PushedBytes is the DATA payload received on server-initiated streams.
	PushedBytes int
	// WastedPushBytes is pushed payload for resources the client had
	// cached and would never have requested.
	WastedPushBytes int
}

// LoadWithStats performs one page load and accounts for its transfer volume.
// cached lists subresources the client already holds: it will not request
// them, but a pushing server still transmits them — the waste the paper's
// Discussion section warns about.
func LoadWithStats(nc net.Conn, cfg Config, cached []string) (*Stats, error) {
	if cfg.Timeout == 0 {
		cfg.Timeout = 15 * time.Second
	}
	isCached := make(map[string]bool, len(cached))
	for _, p := range cached {
		isCached[p] = true
	}
	start := time.Now()
	opts := h2conn.DefaultOptions()
	pushVal := uint32(0)
	if cfg.EnablePush {
		pushVal = 1
	}
	// Browsers advertise large windows at connection setup so transfers
	// are not gated on WINDOW_UPDATE round trips; do the same, otherwise
	// flow-control stalls dominate PLT in both configurations.
	opts.Settings = []frame.Setting{
		{ID: frame.SettingEnablePush, Val: pushVal},
		{ID: frame.SettingInitialWindowSize, Val: 8 << 20},
	}
	c, err := h2conn.Dial(nc, opts)
	if err != nil {
		return nil, err
	}
	defer func() {
		_ = c.Close()
	}()
	if err := c.WriteWindowUpdate(0, 64<<20); err != nil {
		return nil, err
	}
	// One fold over the connection's events does the visit's accounting:
	// which paths the server promised, which streams are still owed, and
	// the DATA octets by origin. It reports whether everything owed so far
	// has ended.
	stats := &Stats{}
	pushPath := make(map[uint32]string)
	promised := make(map[string]bool)
	owed := make(map[uint32]bool)
	visit := func(e h2conn.Event) bool {
		switch {
		case e.Type == frame.TypePushPromise:
			owed[e.PromiseID] = true
			for _, hf := range e.Headers {
				if hf.Name == ":path" {
					pushPath[e.PromiseID] = hf.Value
					promised[hf.Value] = true
				}
			}
		case e.Type == frame.TypeData:
			stats.BodyBytes += len(e.Data)
			if path, pushed := pushPath[e.StreamID]; pushed {
				stats.PushedBytes += len(e.Data)
				if isCached[path] {
					stats.WastedPushBytes += len(e.Data)
				}
			}
		}
		if e.Ends() {
			delete(owed, e.StreamID)
		}
		return len(owed) == 0
	}

	page := h2conn.NewResponse(c.NextStreamID())
	owed[page.StreamID] = true
	if err := c.OpenStreamID(page.StreamID, h2conn.Request{Authority: cfg.Authority, Path: cfg.Page}); err != nil {
		return nil, err
	}
	pageEnd, err := c.Wait(0, cfg.Timeout, func(e h2conn.Event) bool {
		page.Add(e)
		visit(e)
		return page.Done()
	})
	if err != nil {
		return nil, fmt.Errorf("pageload: page fetch: %w", err)
	}
	if page.Status() != "200" {
		return nil, fmt.Errorf("pageload: page status %s", page.Status())
	}

	// Once the page arrived the browser knows the subresources. Resources
	// already promised by the server, or cached, need no request; the rest
	// are fetched in parallel.
	for _, res := range cfg.Resources {
		if promised[res] || isCached[res] {
			continue
		}
		id, err := c.OpenStream(h2conn.Request{Authority: cfg.Authority, Path: res})
		if err != nil {
			return nil, err
		}
		owed[id] = true
	}
	// Wait for every requested stream and every promised push stream to
	// complete.
	if len(owed) > 0 {
		if _, err := c.Wait(pageEnd.Seq+1, cfg.Timeout, visit); err != nil {
			return nil, fmt.Errorf("pageload: waiting for resources: %w", err)
		}
	}
	stats.PLT = time.Since(start)
	return stats, nil
}
