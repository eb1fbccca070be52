package obs_test

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"h2scope/internal/attack"
	"h2scope/internal/metrics"
	"h2scope/internal/netsim"
	"h2scope/internal/obs"
	"h2scope/internal/server"
	"h2scope/internal/trace"
)

// TestDetectorTriggersFlightDump is the end-to-end forensic chain: a
// detector-armed server under a real rapid-reset attack fires OnDetect,
// which hands the tracer's snapshot to the flight recorder — exactly the
// h2server -detector -flightrec wiring — and the result on disk must be a
// bounded, well-formed JSONL dump.
func TestDetectorTriggersFlightDump(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.NewRegistry()
	const tail = 256 // the recorder's bound on one dump's events
	rec, err := obs.NewFlightRecorder(obs.FlightRecorderConfig{Dir: dir, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}

	srv := server.New(server.ApacheProfile(), server.DefaultSite("attack.example"))
	srv.Trace = trace.New(1 << 14)
	cfg := server.DetectorConfig{
		Thresholds: server.Thresholds{
			HeaderRate: 25, ResetRate: 10, MinResets: 5, ResetRatio: 0.3,
			SettingsRate: 10, ContinuationRate: 5,
			AsymmetryMinBytes: 8 << 10, AsymmetryFactor: 4,
			TinyDataRate: 2.5, TinyDataBytes: 16,
			StarvationTime: 250 * time.Millisecond,
		},
		OnDetect: func(det server.Detection) {
			a := obs.Anomaly{Reason: "detector:" + string(det.Kind), Conn: det.Conn, At: det.At}
			if _, derr := rec.Dump(a, srv.Trace.Snapshot()); derr != nil {
				t.Errorf("flight dump: %v", derr)
			}
		},
	}
	srv.StartDetector(cfg, reg)
	l := netsim.NewListener("attack")
	go func() { _ = srv.Serve(l) }()
	t.Cleanup(srv.Close)

	r := &attack.Runner{
		Dial:      func() (net.Conn, error) { return l.Dial() },
		Authority: "attack.example",
		ProbePath: "/about.html",
	}
	if _, err := r.Run(attack.KindRapidReset, attack.Params{
		Path: "/large/1", Duration: 800 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}

	if rec.Dumps() == 0 {
		t.Fatal("detector fired no flight dumps")
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "anomaly-*.jsonl"))
	if err != nil || len(dumps) == 0 {
		t.Fatalf("no dump files on disk (err=%v)", err)
	}

	// Every dump must be bounded and well-formed: a recognizable header,
	// span summaries, and at most Tail event lines of valid JSON.
	for _, path := range dumps {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
		var events, spans int
		first := true
		for sc.Scan() {
			var line map[string]json.RawMessage
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				t.Fatalf("%s: bad JSONL: %v", path, err)
			}
			if first {
				var hdr struct {
					Flightrec string `json:"flightrec"`
					Reason    string `json:"reason"`
				}
				if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
					t.Fatal(err)
				}
				if hdr.Flightrec != "h2scope-anomaly" || hdr.Reason == "" {
					t.Errorf("%s: header = %+v", path, hdr)
				}
				first = false
				continue
			}
			if line["span"] != nil {
				spans++
			}
			if line["event"] != nil {
				events++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		if events == 0 || events > tail {
			t.Errorf("%s: %d event lines, want 1..%d (bounded)", path, events, tail)
		}
		if spans == 0 {
			t.Errorf("%s: no span summary lines", path)
		}
	}

	// The manifest indexes what landed on disk.
	if _, err := os.Stat(filepath.Join(dir, "manifest.json")); err != nil {
		t.Errorf("manifest: %v", err)
	}
}
