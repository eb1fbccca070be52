package server

import (
	"errors"

	"h2scope/internal/frame"
)

// This file is the server's priority-aware egress scheduler: after each
// batch of handled frames, flushEgress drains as many response bytes as
// flow-control windows and the profile's scheduling mode allow, feeding
// coalesced HEADERS+DATA bursts through the framer's write buffer so a
// full scheduling pass reaches the wire in one write. Stream selection for
// SchedPriority follows the RFC 7540 section 5.3 dependency tree via
// internal/priority's smooth weighted round-robin; the other modes
// reproduce the partially-compliant behaviors of the paper's Table III.
//
// Everything here is steady-state per-request work and allocation-free:
// the //h2:hotpath roots below put the whole file under the hotalloc
// analyzer, and TestHotPathAllocs pins the dynamic complement at
// 0 allocs/op.

// flushEgress runs one egress scheduling pass: response headers first, then
// DATA quanta until windows or readiness run out.
//
//h2:hotpath — the egress entry point, run once per handled input batch.
func (c *conn) flushEgress() error {
	if err := c.flushHeaders(); err != nil {
		return err
	}
	return c.flushData()
}

// canSendHeaders applies the profile's (mis)behaviors that withhold
// response headers.
func (c *conn) canSendHeaders(st *stream) bool {
	p := &c.srv.profile
	if p.FlowControlHeaders {
		if st.window.Available() <= 0 || c.sendWindow.Available() <= 0 {
			return false
		}
	}
	if p.TinyWindow == TinyWindowSilent && len(st.body) > 0 &&
		st.window.Available() > 0 && st.window.Available() < tinyWindowThreshold {
		return false
	}
	return true
}

func (c *conn) flushHeaders() error {
	// Iterate a scratch copy: closeStream edits c.order in place when a
	// bodyless response ends its stream mid-loop.
	c.orderScratch = append(c.orderScratch[:0], c.order...)
	for _, st := range c.orderScratch {
		if st.state != stateQueued || !c.canSendHeaders(st) {
			continue
		}
		c.encBuf = c.enc.AppendBlock(c.encBuf[:0], st.respHeaders)
		block := c.encBuf
		endStream := len(st.body) == 0
		// Split across CONTINUATION frames if the block exceeds the
		// client's maximum frame size.
		first := block
		var rest []byte
		if uint32(len(block)) > c.maxSendFrame {
			first, rest = block[:c.maxSendFrame], block[c.maxSendFrame:]
		}
		err := c.fr.WriteHeaders(frame.HeadersParams{
			StreamID:   st.id,
			Fragment:   first,
			EndStream:  endStream,
			EndHeaders: len(rest) == 0,
		})
		if err != nil {
			return err
		}
		for len(rest) > 0 {
			chunk := rest
			if uint32(len(chunk)) > c.maxSendFrame {
				chunk = chunk[:c.maxSendFrame]
			}
			rest = rest[len(chunk):]
			if err := c.fr.WriteContinuation(st.id, len(rest) == 0, chunk); err != nil {
				return err
			}
		}
		st.state = stateHeadersSent
		if endStream {
			c.closeStream(st.id)
		}
	}
	return nil
}

// ready reports whether stream id can transmit at least one DATA byte.
// Streams stalled by the TinyWindowZeroData behavior are not ready: they
// emit empty DATA frames instead of real payload.
func (c *conn) ready(id uint32) bool {
	st, ok := c.streams[id]
	if !ok {
		return false
	}
	if st.state < stateHeadersSent || st.window.Available() <= 0 {
		return false
	}
	if c.srv.profile.TinyWindow == TinyWindowZeroData {
		avail := st.window.Available()
		if avail < tinyWindowThreshold && avail < int64(len(st.body)) {
			return false
		}
	}
	return true
}

// readyFirst additionally requires that the stream has not yet transmitted
// its first DATA quantum — the SchedPriorityFirstOnly predicate.
func (c *conn) readyFirst(id uint32) bool {
	st, ok := c.streams[id]
	return ok && st.state == stateHeadersSent && c.ready(id)
}

func (c *conn) flushData() error {
	p := &c.srv.profile
	// The ready-stream histogram takes one sample per pass. Where the pass
	// opens with a scheduler pick, that pick has counted the eligible set;
	// any other pass counts it up front.
	fromPick := p.Scheduling == SchedPriority && c.sendWindow.Available() > 0
	if !fromPick {
		c.noteEgressReady(false)
	}
	for guard := 0; guard < 1<<20; guard++ {
		if c.sendWindow.Available() <= 0 {
			c.noteConnStall()
			return c.maybeZeroData()
		}
		st := c.pickStream(p.Scheduling)
		if fromPick {
			c.noteEgressReady(true)
			fromPick = false
		}
		if st == nil {
			c.noteStreamStalls()
			return c.maybeZeroData()
		}
		if err := c.sendQuantum(st); err != nil {
			return err
		}
	}
	return errors.New("server: flush loop guard tripped")
}

// pickStream selects the next stream for one DATA quantum.
func (c *conn) pickStream(mode SchedulingMode) *stream {
	switch mode {
	case SchedPriority:
		if id, ok := c.sched.Pick(c.readyFn); ok {
			return c.streams[id]
		}
		return nil
	case SchedPriorityLastOnly:
		// Each stream's first quantum in arrival order, then the tree.
		for _, st := range c.order {
			if st.state == stateHeadersSent && c.ready(st.id) {
				return st
			}
		}
		if id, ok := c.sched.Pick(c.readyFn); ok {
			return c.streams[id]
		}
		return nil
	case SchedPriorityFirstOnly:
		// First quanta in priority order, then round-robin.
		if id, ok := c.sched.Pick(c.readyFirstFn); ok {
			return c.streams[id]
		}
		return c.pickRoundRobin()
	case SchedSequential:
		// One whole response at a time, in arrival order: the oldest
		// stream with pending data always wins, and when it is
		// window-blocked nothing else transmits (true head-of-line
		// serialization, the anti-pattern multiplexing removes).
		for _, st := range c.order {
			if st.state < stateHeadersSent {
				continue
			}
			if c.ready(st.id) {
				return st
			}
			return nil
		}
		return nil
	default:
		return c.pickRoundRobin()
	}
}

func (c *conn) pickRoundRobin() *stream {
	order := c.order
	if len(order) == 0 {
		return nil
	}
	for i := 0; i < len(order); i++ {
		st := order[(c.rrCursor+i)%len(order)]
		if c.ready(st.id) {
			c.rrCursor = (c.rrCursor + i + 1) % len(order)
			return st
		}
	}
	return nil
}

// sendQuantum transmits one DATA frame for st, sized by both windows and
// the client's maximum frame size.
func (c *conn) sendQuantum(st *stream) error {
	n := int64(len(st.body))
	n = st.window.ClampTake(n)
	n = c.sendWindow.ClampTake(n)
	if n > int64(c.maxSendFrame) {
		n = int64(c.maxSendFrame)
	}
	if n <= 0 {
		return nil
	}
	chunk := st.body[:n]
	end := int(n) == len(st.body)
	if err := c.fr.WriteData(st.id, end, chunk); err != nil {
		return err
	}
	if err := st.window.Consume(n); err != nil {
		return err
	}
	if err := c.sendWindow.Consume(n); err != nil {
		return err
	}
	st.body = st.body[n:]
	st.state = stateDataSent
	if end {
		c.closeStream(st.id)
	}
	return nil
}

// maybeZeroData implements the TinyWindowZeroData population behavior:
// blocked streams with a sub-threshold window emit a single empty DATA
// frame per window state.
func (c *conn) maybeZeroData() error {
	if c.srv.profile.TinyWindow != TinyWindowZeroData {
		return nil
	}
	for _, st := range c.order {
		if st.state < stateHeadersSent || st.zeroDataSent {
			continue
		}
		avail := st.window.Available()
		if avail >= tinyWindowThreshold || avail >= int64(len(st.body)) {
			continue
		}
		if err := c.fr.WriteData(st.id, false, nil); err != nil {
			return err
		}
		st.zeroDataSent = true
	}
	return nil
}
