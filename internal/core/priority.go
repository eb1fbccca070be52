package core

import (
	"context"
	"fmt"
	"slices"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// PriorityResult reports Algorithm 1, the paper's priority-mechanism probe
// (Section III-C.1, evaluated in Section V-E).
type PriorityResult struct {
	// DrainStreams is how many downloads were needed to deplete the
	// 65,535-octet connection window (Algorithm 1's callback computes this).
	DrainStreams int
	// HeadersWhileBlocked reports whether the server returned HEADERS for
	// the test streams while the connection window was zero; the paper
	// observes some servers (LiteSpeed-style) withhold even HEADERS.
	HeadersWhileBlocked bool
	// Completed is how many of the six test streams finished after the
	// window reopened.
	Completed int
	// LastRuleOK: the order of each stream's *last* DATA frame matches the
	// dependency tree (the paper's primary criterion, 1,147/2,187 sites).
	LastRuleOK bool
	// FirstRuleOK: the order of each stream's *first* DATA frame matches
	// the tree (46/117 sites).
	FirstRuleOK bool
	// Pass is the Table III verdict: both orders obey the tree.
	Pass bool
}

// streamLabels in the RFC 7540 section 5.3.3 example, in open order.
var streamLabels = [...]string{"A", "B", "C", "D", "E", "F"}

// ProbePriority implements Algorithm 1:
//
//  1. advertise a huge SETTINGS_INITIAL_WINDOW_SIZE so stream windows never
//     interfere (lines 2-6),
//  2. deplete the 65,535-octet connection-level window by downloading
//     objects, then reset those streams (lines 9-21),
//  3. open six requests forming the RFC 7540 section 5.3.3 example tree and
//     reprioritize with a PRIORITY frame while no DATA can flow (lines 22-28),
//  4. reopen the connection window with WINDOW_UPDATE and infer priority
//     support from the order of DATA frames (line 30).
func (p *Prober) ProbePriority(ctx context.Context) (*PriorityResult, error) {
	ctx, end := p.phase(ctx, "priority")
	defer end()
	opts := h2conn.Options{
		Settings: []frame.Setting{
			{ID: frame.SettingInitialWindowSize, Val: frame.MaxWindowSize},
		},
		AutoSettingsAck: true,
		AutoPingAck:     true,
	}
	c, err := p.connect(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer closeConn(c)
	settings, err := c.WaitSettings(p.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	// The six test streams must all be open at once: a server that allows
	// fewer refuses the rest, and the order of what is left says nothing
	// about its scheduler.
	if n := streamsAllowed(settings, len(streamLabels)); n < len(streamLabels) {
		return nil, errNotMeasurable("priority", n, len(streamLabels))
	}

	res := &PriorityResult{}

	// --- Step 1: deplete the connection window. ---
	// One cursor runs through the drain: every DATA octet received counts
	// against the 65,535-octet connection window, and each wait resumes
	// behind the last event the one before was shown.
	const drainTarget = frame.DefaultInitialWindowSize
	var (
		drainIDs []uint32
		drained  int
		next     int
	)
	for attempt := 0; attempt < 6 && drained < drainTarget; attempt++ {
		id, err := c.OpenStream(h2conn.Request{Authority: p.cfg.Authority, Path: p.cfg.DrainPath})
		if err != nil {
			return nil, err
		}
		drainIDs = append(drainIDs, id)
		res.DrainStreams++
		_, _ = c.Wait(next, p.cfg.Timeout, func(e h2conn.Event) bool {
			next = e.Seq + 1
			if e.Type == frame.TypeData {
				drained += len(e.Data)
			}
			// Depleted, or the stream ended early (small object or RST):
			// move on.
			return drained >= drainTarget ||
				e.StreamID == id && e.Ends()
		})
	}
	if drained < drainTarget {
		return nil, fmt.Errorf("core: could not deplete connection window: drained %d of %d octets", drained, drainTarget)
	}
	// Reset the drain streams so they cannot interfere (Algorithm 1 line 21).
	for _, id := range drainIDs {
		if err := c.WriteRSTStream(id, frame.ErrCodeCancel); err != nil {
			return nil, err
		}
	}

	// --- Step 2: build the RFC 7540 section 5.3.3 dependency tree. ---
	// Initial tree: A at the root; B, C depend on A; D, E depend on C;
	// F depends on D.
	ids := make(map[string]uint32, len(streamLabels))
	for _, label := range streamLabels {
		ids[label] = c.NextStreamID()
	}
	deps := map[string]string{"A": "", "B": "A", "C": "A", "D": "C", "E": "C", "F": "D"}
	for _, label := range streamLabels {
		var dep uint32
		if parent := deps[label]; parent != "" {
			dep = ids[parent]
		}
		err := c.OpenStreamID(ids[label], h2conn.Request{
			Authority: p.cfg.Authority,
			Path:      p.cfg.LargePaths[labelIndex(label)],
			Priority:  frame.PriorityParam{StreamDep: dep, Weight: 15},
		})
		if err != nil {
			return nil, err
		}
	}

	// Reprioritize: A becomes exclusively dependent on D. Per RFC 7540
	// section 5.3.3, D first moves up to A's old parent (the root), then A
	// adopts D's children. Final tree: root→D→A→{B,C,F}, C→E.
	if err := c.WritePriority(ids["A"], frame.PriorityParam{
		StreamDep: ids["D"],
		Exclusive: true,
		Weight:    15,
	}); err != nil {
		return nil, err
	}

	// While the connection window is still depleted, note whether HEADERS
	// arrive for the blocked test streams (Section V-D observation).
	testIDs := make([]uint32, 0, len(streamLabels))
	for _, label := range streamLabels {
		testIDs = append(testIDs, ids[label])
	}
	c.WaitQuiet(next, p.cfg.QuietWindow, p.reactionWindow(), func(e h2conn.Event) {
		if e.Type == frame.TypeHeaders && slices.Contains(testIDs, e.StreamID) {
			res.HeadersWhileBlocked = true
		}
	})

	// --- Step 3: reopen the connection window and observe the order. ---
	if err := c.WriteWindowUpdate(0, frame.MaxWindowSize); err != nil {
		return nil, err
	}
	order := newStreamOrder(testIDs)
	_, _ = c.Wait(0, p.cfg.Timeout, order.add)
	res.Completed = order.ended()

	first := make(map[string]int, len(streamLabels))
	last := make(map[string]int, len(streamLabels))
	for i, label := range streamLabels {
		first[label] = order.spans[i].first
		last[label] = order.spans[i].last
	}
	res.LastRuleOK = priorityOrderOK(last)
	res.FirstRuleOK = priorityOrderOK(first)
	res.Pass = res.LastRuleOK && res.FirstRuleOK
	return res, nil
}

func labelIndex(label string) int {
	for i, l := range streamLabels {
		if l == label {
			return i
		}
	}
	return 0
}

// priorityOrderOK checks the paper's expectation against the final tree
// root→D→A→{B,C,F}, C→E, over either the first- or last-DATA positions:
//
//   - stream D's frames precede every other stream's,
//   - stream A's frames precede all but D's,
//   - stream C's frames precede stream E's.
func priorityOrderOK(pos map[string]int) bool {
	for _, p := range pos {
		if p < 0 {
			return false
		}
	}
	for _, other := range []string{"A", "B", "C", "E", "F"} {
		if pos["D"] >= pos[other] {
			return false
		}
	}
	for _, other := range []string{"B", "C", "E", "F"} {
		if pos["A"] >= pos[other] {
			return false
		}
	}
	return pos["C"] < pos["E"]
}
