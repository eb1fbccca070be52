package main

import (
	"bytes"
	"testing"
	"time"

	"h2scope/internal/frame"
	"h2scope/internal/hpack"
	"h2scope/internal/server"
)

func TestSplitFramesAndHeaderFragment(t *testing.T) {
	var buf bytes.Buffer
	fr := frame.NewFramer(&buf, nil)
	if err := fr.WriteHeaders(frame.HeadersParams{StreamID: 1, Fragment: []byte("abc"), EndStream: true, EndHeaders: true}); err != nil {
		t.Fatal(err)
	}
	if err := fr.WriteData(3, false, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Len()
	buf.Write([]byte{0, 0, 9, 0, 0, 0, 0, 0, 5, 'x'}) // a DATA frame cut short
	fs := splitFrames(buf.Bytes())
	if len(fs) != 2 {
		t.Fatalf("split %d frames, want 2 (the incomplete third dropped)", len(fs))
	}
	if fs[0].hdr.Type != frame.TypeHeaders || fs[0].hdr.StreamID != 1 || !fs[0].hdr.Flags.Has(frame.FlagEndStream) {
		t.Errorf("frame 0 header = %+v", fs[0].hdr)
	}
	if string(headerFragment(fs[0])) != "abc" {
		t.Errorf("fragment = %q, want abc", headerFragment(fs[0]))
	}
	if fs[1].hdr.Type != frame.TypeData || fs[1].hdr.StreamID != 3 || string(fs[1].payload) != "hello" || fs[1].end != whole {
		t.Errorf("frame 1 = %+v payload %q end %d, want DATA on 3, hello, end %d", fs[1].hdr, fs[1].payload, fs[1].end, whole)
	}

	// Padding and the priority fields are not part of the fragment.
	padded := rawFrame{
		hdr:     frame.Header{Type: frame.TypeHeaders, Flags: frame.FlagPadded | frame.FlagPriority},
		payload: append([]byte{2, 0, 0, 0, 0, 15}, 'f', 'r', 'a', 'g', 0, 0),
	}
	if got := string(headerFragment(padded)); got != "frag" {
		t.Errorf("padded+priority fragment = %q, want frag", got)
	}
}

func TestBlockStatsCountsDynamicHits(t *testing.T) {
	enc := hpack.NewEncoder(hpack.PolicyIndexAll)
	req := chromeHeaders(benchAuthority)
	first := enc.AppendBlock(nil, req)
	second := enc.AppendBlock(nil, req)
	// :method GET, :scheme https and :path / are in the static table; the
	// other six fields enter the dynamic table with the first block and
	// are bare dynamic indices in the second.
	if f, d := blockStats(first); f != 9 || d != 0 {
		t.Errorf("first block: %d fields, %d dynamic hits; want 9, 0", f, d)
	}
	if f, d := blockStats(second); f != 9 || d != 6 {
		t.Errorf("second block: %d fields, %d dynamic hits; want 9, 6", f, d)
	}
	if len(second) >= len(first) {
		t.Errorf("second block %d B, first %d B: the table did not help", len(second), len(first))
	}
}

// The replay is only a measurement of the run if the server, fed the
// captured ingress from memory, writes the bytes it wrote on the wire.
func TestCaptureReplayEquivalence(t *testing.T) {
	bs := buildSite(2)
	for _, wl := range workloads {
		if wl.Name == wlProbeScan {
			continue
		}
		t.Run(wl.Name, func(t *testing.T) {
			hub := newTraceHub(stampRing, 4)
			fx, err := newFixture(bs, hub)
			if err != nil {
				t.Fatal(err)
			}
			cfg := runConfig{seed: 2, window: 100 * time.Millisecond, warmup: 20 * time.Millisecond, clients: 2, spans: newSpanLog()}
			r, err := runServe(fx, wl, cfg)
			fx.close()
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.allFailed != 0 || len(r.errs) != 0 {
				t.Fatalf("run failed ops: %d in window, %d overall, errs %v", r.failed, r.allFailed, r.errs)
			}
			if !hub.quiesce(2 * time.Second) {
				t.Fatal("server kept connections open")
			}
			caps := hub.captured()
			if len(caps) == 0 {
				t.Fatal("nothing captured")
			}
			srv := server.New(server.NghttpdProfile(), bs.Site)
			objects := bs.Small
			if wl.Name == wlLargeGet {
				objects = bs.Large
			}
			var rs []*connReplay
			for i, c := range caps {
				rp, err := prepareReplay(c)
				if err != nil {
					t.Fatal(err)
				}
				ended, egress := serveReplay(srv, rp, true)
				// A capture cut at its limit holds a prefix of what the
				// server goes on to write for the captured requests.
				if !bytes.HasPrefix(egress, c.egress) {
					t.Errorf("capture %d: replayed egress (%d B) does not start with the captured egress (%d B)",
						i, len(egress), len(c.egress))
				}
				if rp.complete && len(egress) != len(c.egress) {
					t.Errorf("capture %d: whole connection captured, replay wrote %d B, wire carried %d B",
						i, len(egress), len(c.egress))
				}
				if ended < rp.resps {
					t.Errorf("capture %d: replay ended %d streams, capture holds %d responses", i, ended, rp.resps)
				}
				if rp.reqs == 0 || rp.resps == 0 || len(c.reqs) < rp.resps {
					t.Errorf("capture %d: %d requests, %d responses, %d logged by the driver", i, rp.reqs, rp.resps, len(c.reqs))
				}
				// The driver, fed the captured egress, completes the ops
				// the capture holds and verifies them.
				n, err := replayClient(rp, wl, objects)
				if err != nil {
					t.Errorf("capture %d: client replay: %v", i, err)
				}
				if wl.Name == wlConnChurn {
					if !rp.complete || n != 1 {
						t.Errorf("capture %d: churn connection complete=%v, client replay ops=%d; want true, 1", i, rp.complete, n)
					}
				} else if want := rp.resps / wl.Batch * wl.Batch; n != want {
					t.Errorf("capture %d: client replay completed %d ops, want %d", i, n, want)
				}
				rs = append(rs, rp)
			}
			floor, err := transportFloorNS(rs, wl, 2, 10*time.Millisecond)
			if err != nil || floor <= 0 {
				t.Errorf("transport floor = %v, %v; want a positive cost", floor, err)
			}
		})
	}
}

func TestPriorityPickDrains(t *testing.T) {
	if ns := priorityPickNS(8, 6, time.Millisecond); ns <= 0 {
		t.Errorf("pick cost = %v ns, want > 0", ns)
	}
}
