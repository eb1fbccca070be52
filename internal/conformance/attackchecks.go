package conformance

// Attack-resilience checks: unlike the RFC-conformance checks, each of these
// sends a burst of one internal/attack scenario — the battery's own
// operation, a fixed number of times and unpaced (attack.Burst) — and
// verifies the server stays inside safe outcomes: keep serving, or refuse
// with an explicit connection error. A server may legitimately pick either
// side (GOAWAY-or-survive); what it may never do is wedge or buffer without
// bound. They run against undefended servers too: the engine's protocol
// bounds (the CONTINUATION cap, the HPACK list-size guard) are themselves
// requirements here. No attack frame sequence is written in this file.

import (
	"fmt"

	"h2scope/internal/attack"
	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// attackCheck is one row: a burst of ops operations of kind on a connection
// dialed with the scenario's options, sent once the server's SETTINGS have
// arrived, and the judgement of what followed; fail is the detail of a Fail.
type attackCheck struct {
	id, section, description string
	kind                     attack.Kind
	ops                      int64
	path                     string
	judge                    judgement
	fail                     string
}

// judgement reads what the server made of a burst on c: sent operations
// went out before err, nil when the whole burst did.
type judgement func(env *Env, c *h2conn.Conn, sent int64, err error, fail string) (Verdict, string)

// attackTable holds one check per attack.Kinds entry.
var attackTable = []attackCheck{
	{"attack/rapid-reset", "5.1", "HEADERS+RST_STREAM churn (CVE-2023-44487 shape) is survived or refused with GOAWAY",
		attack.KindRapidReset, 100, smallPath, survivesOrRefuses, "connection unusable after reset churn with no GOAWAY"},
	{"attack/hpack-bomb", "4.3", "an amplifying header block (HPACK bomb) draws GOAWAY(COMPRESSION_ERROR)",
		attack.KindHPACKBomb, 1, "", refusesWith(frame.ErrCodeCompression), "no GOAWAY for an amplifying header block"},
	// Half a megabyte of unterminated header block, 1 KiB per operation:
	// any bounded server has reacted well before its end.
	{"attack/continuation-bound", "6.10", "an unterminated CONTINUATION sequence is bounded, not buffered without limit",
		attack.KindContinuationFlood, 512, "", mustRefuse, "server accepted 512 KiB of unterminated header block without reacting"},
	{"attack/settings-flood", "6.5", "a burst of SETTINGS frames is survived or refused with GOAWAY",
		attack.KindSettingsFlood, 200, "", survivesOrRefuses, "unresponsive after SETTINGS burst with no GOAWAY"},
	// One dripped body, so a server that allows two streams at once still
	// has room for the fetch.
	{"attack/slow-drip", "6.1", "a stalled request body does not block service on other streams",
		attack.KindSlowDrip, 1, smallPath, staysResponsive((*Env).fetchOK), "a stalled request body blocked service on other streams"},
	// The response can never be delivered: the stream window is zero and
	// is never opened.
	{"attack/zero-window", "6.9", "a zero-window receiver pinning responses leaves the connection responsive",
		attack.KindZeroWindowStarve, 1, largePath, staysResponsive(pingOK), "PING unanswered while responses are window-pinned"},
}

// attackChecks returns the attack-resilience checks appended to Suite.
func attackChecks() []Check {
	checks := make([]Check, len(attackTable))
	for i, a := range attackTable {
		checks[i] = Check{ID: a.id, Section: a.section, Description: a.description, Run: a.run}
	}
	return checks
}

func (a attackCheck) run(env *Env) (Verdict, string) {
	c, err := env.connect(attack.Options(a.kind))
	if err != nil {
		return Skip, err.Error()
	}
	defer closeConn(c)
	if _, err := c.WaitSettings(env.Timeout); err != nil {
		return Skip, err.Error()
	}
	sent, err := attack.Burst(c, a.kind, attack.Params{Authority: env.Authority, Path: a.path}, a.ops)
	return a.judge(env, c, sent, err, a.fail)
}

// survivesOrRefuses: a fetch still works on the attacked connection, or the
// server sent GOAWAY. A write refused mid-burst decides nothing by itself.
func survivesOrRefuses(env *Env, c *h2conn.Conn, _ int64, _ error, fail string) (Verdict, string) {
	if env.fetchOK(c) {
		return Pass, ""
	}
	if ok, code := env.waitGoAway(c, 0, true); ok {
		return Pass, fmt.Sprintf("refused with GOAWAY(%v)", code)
	}
	return Fail, fail
}

// mustRefuse: the server ends the burst — it sends GOAWAY, its writes fail,
// or it closes the connection. A GOAWAY is named even when writes failed
// after it: which of the two the client meets first is a race, and the
// detail must not follow it. The writes-refused detail counts one KiB per
// operation, the CONTINUATION flood's fragment size.
func mustRefuse(env *Env, c *h2conn.Conn, sent int64, err error, fail string) (Verdict, string) {
	if err != nil && sent == 0 {
		return Skip, err.Error()
	}
	if ok, code := env.waitGoAway(c, 0, true); ok {
		return Pass, fmt.Sprintf("refused with GOAWAY(%v)", code)
	}
	switch {
	case err != nil:
		return Pass, fmt.Sprintf("writes refused after %d KiB", sent)
	case c.ReadErr() != nil:
		return Pass, "connection closed"
	}
	return Fail, fail
}

// refusesWith: the server answers the burst with GOAWAY(want), the verdict
// goAway gives a provocation.
func refusesWith(want frame.ErrCode) judgement {
	return func(env *Env, c *h2conn.Conn, _ int64, err error, fail string) (Verdict, string) {
		if err != nil {
			return Skip, err.Error()
		}
		return env.goAwayVerdict(c, want, fail)
	}
}

// staysResponsive: once the burst is out, probe still gets its answer on
// the attacked connection.
func staysResponsive(probe func(*Env, *h2conn.Conn) bool) judgement {
	return func(env *Env, c *h2conn.Conn, _ int64, err error, fail string) (Verdict, string) {
		if err != nil {
			return Skip, err.Error()
		}
		if !probe(env, c) {
			return Fail, fail
		}
		return Pass, ""
	}
}

// pingOK reports whether a PING is acknowledged on c within Timeout.
func pingOK(env *Env, c *h2conn.Conn) bool {
	_, err := c.Ping([8]byte{'z', 'w', 'p', 'r', 'o', 'b', 'e', '!'}, env.Timeout)
	return err == nil
}
