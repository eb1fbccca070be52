package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"h2scope/internal/frame"
)

// RenderHeader formats a trace's one-line summary: target, event count,
// and how many events the ring emitted and dropped beyond those kept.
func RenderHeader(d *Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace")
	if d.Target != "" {
		fmt.Fprintf(&b, " %s", d.Target)
	}
	fmt.Fprintf(&b, ": %d events", len(d.Events))
	if d.Emitted > uint64(len(d.Events)) {
		fmt.Fprintf(&b, " (%d emitted)", d.Emitted)
	}
	if d.Dropped > 0 {
		fmt.Fprintf(&b, ", %d dropped", d.Dropped)
	}
	fmt.Fprintf(&b, "\n")
	return b.String()
}

// RenderEvents formats the raw event log, one relative-timestamped line per
// event — the h2trace -events dump.
func RenderEvents(d *Data) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events:\n")
	for _, ev := range d.Events {
		b.WriteString(formatEvent(d.Start, ev))
	}
	return b.String()
}

// formatEvent renders one raw event line, relative-timestamped from start.
func formatEvent(start time.Time, ev Event) string {
	ms := float64(ev.At.Sub(start)) / float64(time.Millisecond)
	switch {
	case ev.Kind.IsFrame():
		dir := "<-"
		if ev.Kind == KindFrameSent {
			dir = "->"
		}
		return fmt.Sprintf("%10.3fms  #%-4d c%d %s %-13s stream=%-4d len=%-6d flags=0x%02x %s\n",
			ms, ev.Seq, ev.Conn, dir, ev.FrameType, ev.StreamID, ev.Length, uint8(ev.Flags), phaseSuffix(ev.Phase))
	case ev.Kind == KindPhaseStart || ev.Kind == KindPhaseEnd:
		return fmt.Sprintf("%10.3fms  #%-4d    == %s %s ==\n", ms, ev.Seq, ev.Kind, ev.Phase)
	default:
		return fmt.Sprintf("%10.3fms  #%-4d c%d    %-13s %s %s\n",
			ms, ev.Seq, ev.Conn, ev.Kind, ev.Detail, phaseSuffix(ev.Phase))
	}
}

func phaseSuffix(phase string) string {
	if phase == "" {
		return ""
	}
	return "[" + phase + "]"
}

// MergeRow is one trace's aggregate line in a RenderMerge summary.
type MergeRow struct {
	Name       string
	Target     string
	Events     int
	Dropped    uint64
	Conns      int
	Streams    int
	FramesSent int
	FramesRecv int
	BytesRecv  int64
	Phases     []string
}

// Summarize folds one trace into a MergeRow. name labels the row (typically
// the source file name); the trace's own target is kept alongside. Streams
// counts distinct non-zero stream IDs per connection: frames on the
// connection control stream count toward the frame totals only.
func Summarize(name string, d *Data) MergeRow {
	row := MergeRow{Name: name, Target: d.Target, Events: len(d.Events), Dropped: d.Dropped}
	phases := map[string]bool{}
	conns := map[uint64]bool{}
	streams := map[[2]uint64]bool{}
	for _, ev := range d.Events {
		switch ev.Kind {
		case KindPhaseStart:
			if !phases[ev.Phase] {
				phases[ev.Phase] = true
				row.Phases = append(row.Phases, ev.Phase)
			}
		case KindConnOpen, KindConnClose, KindError:
			if ev.Conn != 0 {
				conns[ev.Conn] = true
			}
		case KindFrameSent, KindFrameRecv:
			conns[ev.Conn] = true
			if ev.StreamID != 0 {
				streams[[2]uint64{ev.Conn, uint64(ev.StreamID)}] = true
			}
			if ev.Kind == KindFrameSent {
				row.FramesSent++
			} else {
				row.FramesRecv++
				if ev.FrameType == frame.TypeData {
					row.BytesRecv += int64(ev.Length)
				}
			}
		}
	}
	row.Conns = len(conns)
	row.Streams = len(streams)
	return row
}

// RenderMerge formats many trace summaries as one table, sorted by name —
// the h2trace -merge view over a scan's trace directory.
func RenderMerge(rows []MergeRow) string {
	sorted := make([]MergeRow, len(rows))
	copy(sorted, rows)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })

	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %8s %8s %6s %8s %10s %10s %12s\n",
		"trace", "events", "dropped", "conns", "streams", "sent", "recv", "bytes-recv")
	var tot MergeRow
	for _, r := range sorted {
		name := r.Name
		if len(name) > 32 {
			name = "…" + name[len(name)-31:]
		}
		fmt.Fprintf(&b, "%-32s %8d %8d %6d %8d %10d %10d %12d\n",
			name, r.Events, r.Dropped, r.Conns, r.Streams, r.FramesSent, r.FramesRecv, r.BytesRecv)
		tot.Events += r.Events
		tot.Dropped += r.Dropped
		tot.Conns += r.Conns
		tot.Streams += r.Streams
		tot.FramesSent += r.FramesSent
		tot.FramesRecv += r.FramesRecv
		tot.BytesRecv += r.BytesRecv
	}
	fmt.Fprintf(&b, "%-32s %8d %8d %6d %8d %10d %10d %12d\n",
		fmt.Sprintf("total (%d traces)", len(sorted)),
		tot.Events, tot.Dropped, tot.Conns, tot.Streams, tot.FramesSent, tot.FramesRecv, tot.BytesRecv)
	return b.String()
}
