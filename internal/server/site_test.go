package server_test

import (
	"runtime"
	"strings"
	"testing"

	"h2scope/internal/hpack"
	"h2scope/internal/server"
)

func TestSiteBuilders(t *testing.T) {
	s := server.NewSite("build.example")
	s.AddPage("/p", "<html>p</html>")
	s.AddObject("/o", 1234)
	s.Add(&server.Resource{
		Path:        "/custom",
		ContentType: "application/json",
		Body:        []byte(`{}`),
		ExtraHeaders: []hpack.HeaderField{
			{Name: "cache-control", Value: "no-store"},
		},
	})
	if r, ok := s.Lookup("/o"); !ok || len(r.Body) != 1234 {
		t.Errorf("Lookup(/o) = %+v, %v", r, ok)
	}
	if _, ok := s.Lookup("/missing"); ok {
		t.Error("Lookup(/missing) succeeded")
	}
	paths := s.Paths()
	if len(paths) != 3 || paths[0] != "/custom" {
		t.Errorf("Paths() = %v", paths)
	}
}

func TestSetPushReplacesManifest(t *testing.T) {
	s := server.DefaultSite("push.example")
	s.SetPush("/", "/about.html")
	r, ok := s.Lookup("/")
	if !ok || len(r.Push) != 1 || r.Push[0] != "/about.html" {
		t.Errorf("push manifest = %v", r.Push)
	}
	s.SetPush("/") // clear
	if r, _ := s.Lookup("/"); len(r.Push) != 0 {
		t.Errorf("cleared manifest = %v", r.Push)
	}
}

func TestSetPushUnknownPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SetPush on unknown path did not panic")
		}
	}()
	server.NewSite("x").SetPush("/nope")
}

func TestDefaultSiteLayoutMatchesProbeConfig(t *testing.T) {
	// The probe config's default paths must exist in the default site,
	// including a drain object of at least 65,535 bytes.
	s := server.DefaultSite("layout.example")
	for _, path := range []string{
		"/", "/about.html", "/drain/64k",
		"/large/1", "/large/2", "/large/3", "/large/4", "/large/5", "/large/6",
		"/static/app.js", "/static/style.css",
	} {
		if _, ok := s.Lookup(path); !ok {
			t.Errorf("default site missing %s", path)
		}
	}
	drain, _ := s.Lookup("/drain/64k")
	if len(drain.Body) < 65_535 {
		t.Errorf("drain object is %d bytes, want >= 65535", len(drain.Body))
	}
	index, _ := s.Lookup("/")
	if !strings.Contains(string(index.Body), "layout.example") {
		t.Error("index page missing domain")
	}
	if len(index.Push) == 0 {
		t.Error("default site front page has no push manifest")
	}
}

// TestObjectBodiesSharedAndExact pins AddObject's shared bodies: every
// object holds exactly 'a' + (i+len(path))%26 for its size, cannot be
// appended into, and stays so when a larger object later grows the run the
// bodies share.
func TestObjectBodiesSharedAndExact(t *testing.T) {
	s := server.DefaultSite("bodies.example").AddObject("/big/96k", 96<<10).AddObject("/empty", 0)
	check := func() {
		t.Helper()
		for _, path := range s.Paths() {
			r, _ := s.Lookup(path)
			if r.ContentType != "application/octet-stream" {
				continue
			}
			for i, c := range r.Body {
				if c != byte('a'+(i+len(path))%26) {
					t.Fatalf("%s: byte %d = %q, want %q", path, i, c, 'a'+(i+len(path))%26)
				}
			}
			if cap(r.Body) != len(r.Body) {
				t.Errorf("%s: cap(Body) = %d, len %d: an append could write into a shared body", path, cap(r.Body), len(r.Body))
			}
		}
	}
	check()
	const big = "/big/300k-object-with-a-path-past-26-bytes" // len(path)%26 != len(path)
	s.AddObject(big, 300<<10)                                // past everything handed out so far
	check()
	for path, size := range map[string]int{"/big/96k": 96 << 10, big: 300 << 10, "/drain/64k": 64 << 10} {
		if r, _ := s.Lookup(path); len(r.Body) != size {
			t.Errorf("%s is %d bytes, want %d", path, len(r.Body), size)
		}
	}
}

// TestDefaultSiteAllocates bounds what building the testbed site costs: its
// 944 KiB of object bodies are shared, not filled per site.
func TestDefaultSiteAllocates(t *testing.T) {
	server.DefaultSite("warm.example") // the shared run may grow once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		server.DefaultSite("alloc.example")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 10*16<<10 {
		t.Errorf("10 DefaultSite calls allocated %d B, want < %d", got, 10*16<<10)
	}
}

func TestProfileStrings(t *testing.T) {
	for r, want := range map[server.Reaction]string{
		server.ReactIgnore:    "ignore",
		server.ReactRSTStream: "RST_STREAM",
		server.ReactGoAway:    "GOAWAY",
	} {
		if got := r.String(); got != want {
			t.Errorf("Reaction %d = %q, want %q", r, got, want)
		}
	}
	for m, want := range map[server.SchedulingMode]string{
		server.SchedRoundRobin:        "round-robin",
		server.SchedPriority:          "priority",
		server.SchedPriorityLastOnly:  "priority-last-only",
		server.SchedPriorityFirstOnly: "priority-first-only",
		server.SchedSequential:        "sequential",
	} {
		if got := m.String(); got != want {
			t.Errorf("SchedulingMode %d = %q, want %q", m, got, want)
		}
	}
}

func TestTestbedProfilesOrderAndFamilies(t *testing.T) {
	profiles := server.TestbedProfiles()
	want := []string{"nginx", "litespeed", "h2o", "nghttpd", "tengine", "apache"}
	if len(profiles) != len(want) {
		t.Fatalf("profiles = %d", len(profiles))
	}
	for i, p := range profiles {
		if p.Family != want[i] {
			t.Errorf("profile %d family = %q, want %q", i, p.Family, want[i])
		}
		if p.Name == "" {
			t.Errorf("profile %d has empty server name", i)
		}
	}
}
