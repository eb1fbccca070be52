package h2conn

import (
	"fmt"
	"strings"

	"h2scope/internal/frame"
	"h2scope/internal/trace"
)

// FormatEvents renders an event log as a human-readable frame transcript,
// one line per frame, relative-timestamped from the first event. Probes and
// the CLI use it for diagnostics; it is the reproduction's equivalent of
// the wire captures the paper's authors inspected when validating H2Scope
// against open-source servers (Section V-A).
//
// The line format is internal/trace's shared frame-line renderer — this
// function is a thin adapter that maps each decoded event onto a trace
// event and contributes only the payload detail the decoded log carries
// (header fields, settings values, error codes) that raw frame headers do
// not. The log itself is bounded (eventLogCap), so a transcript never grows
// without bound either.
func FormatEvents(events []Event) string {
	if len(events) == 0 {
		return "(no frames)\n"
	}
	var b strings.Builder
	start := events[0].At
	for _, e := range events {
		b.WriteString(trace.FormatFrameLine(start, trace.Event{
			Seq:       uint64(e.Seq),
			At:        e.At,
			Kind:      trace.KindFrameRecv,
			StreamID:  e.StreamID,
			FrameType: e.Type,
			Flags:     e.Flags,
			Length:    e.PayloadLen,
		}, eventDetail(e)))
	}
	return b.String()
}

func eventDetail(e Event) string {
	var parts []string
	// Flag 0x1 means END_STREAM only on DATA and HEADERS; on SETTINGS and
	// PING it is ACK.
	if e.StreamEnded() && (e.Type == frame.TypeData || e.Type == frame.TypeHeaders) {
		parts = append(parts, "END_STREAM")
	}
	switch e.Type {
	case frame.TypeSettings:
		if e.IsAck() {
			parts = append(parts, "ACK")
		} else {
			for _, s := range e.Settings {
				parts = append(parts, s.String())
			}
		}
	case frame.TypePing:
		if e.IsAck() {
			parts = append(parts, "ACK")
		}
		parts = append(parts, fmt.Sprintf("payload=%x", e.PingData))
	case frame.TypeHeaders, frame.TypePushPromise:
		for _, hf := range e.Headers {
			if hf.Name == ":status" || hf.Name == ":path" {
				parts = append(parts, hf.Name+"="+hf.Value)
			}
		}
		if e.Type == frame.TypePushPromise {
			parts = append(parts, fmt.Sprintf("promised=%d", e.PromiseID))
		}
	case frame.TypeData:
		parts = append(parts, fmt.Sprintf("payload=%dB", len(e.Data)))
	case frame.TypeRSTStream:
		parts = append(parts, e.ErrCode.String())
	case frame.TypeGoAway:
		parts = append(parts, e.ErrCode.String(), fmt.Sprintf("last=%d", e.LastStreamID))
		if len(e.DebugData) > 0 {
			parts = append(parts, fmt.Sprintf("debug=%q", e.DebugData))
		}
	case frame.TypeWindowUpdate:
		parts = append(parts, fmt.Sprintf("increment=%d", e.Increment))
	}
	return strings.Join(parts, " ")
}
