package server

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"h2scope/internal/hpack"
)

// Resource is one servable web object.
type Resource struct {
	// Path is the request path, e.g. "/" or "/static/app.js".
	Path string
	// ContentType is the media type sent in the response headers.
	ContentType string
	// Body is the response payload.
	Body []byte
	// Push lists paths the server pushes when this resource is requested
	// and the profile (and client) enable server push.
	Push []string
	// ExtraHeaders are appended to the standard response header set,
	// e.g. cache-control or set-cookie fields.
	ExtraHeaders []hpack.HeaderField
}

// Site is a virtual web site: a domain plus its document tree. Sites are
// immutable once serving starts; build them fully before passing to a
// Server.
type Site struct {
	// Domain is the authority this site answers as, e.g. "example.org".
	Domain string

	resources map[string]*Resource
}

// NewSite returns an empty site for domain.
func NewSite(domain string) *Site {
	return &Site{
		Domain:    domain,
		resources: make(map[string]*Resource),
	}
}

// Add registers a resource, replacing any previous resource at its path.
func (s *Site) Add(r *Resource) *Site {
	s.resources[r.Path] = r
	return s
}

// AddPage registers an HTML page with the given body.
func (s *Site) AddPage(path, body string) *Site {
	return s.Add(&Resource{Path: path, ContentType: "text/html; charset=utf-8", Body: []byte(body)})
}

// AddObject registers an opaque object of the given size with a
// deterministic, mildly compressible payload: byte i is
// 'a' + (i+len(path))%26. Bodies are read-only windows into one shared
// alphabet run, so building a site copies no payload bytes.
func (s *Site) AddObject(path string, size int) *Site {
	return s.Add(&Resource{Path: path, ContentType: "application/octet-stream", Body: alphabetWindow(len(path)%26, size)})
}

// alphabet holds the run behind every AddObject body: run[j] is
// 'a' + j%26. The run only grows into a fresh array, so a window already
// handed out is never written again.
var alphabet struct {
	mu  sync.Mutex
	run []byte
}

// alphabetWindow returns run[off : off+size] with its capacity capped, so
// an append to a body copies instead of writing into the run.
func alphabetWindow(off, size int) []byte {
	alphabet.mu.Lock()
	defer alphabet.mu.Unlock()
	if need := off + size; need > len(alphabet.run) {
		run := make([]byte, max(need, 2*len(alphabet.run)))
		for j := range run {
			run[j] = byte('a' + j%26)
		}
		alphabet.run = run
	}
	return alphabet.run[off : off+size : off+size]
}

// SetPush attaches a push manifest to the resource at path. It panics if
// the resource does not exist (a programming error in site construction).
func (s *Site) SetPush(path string, pushed ...string) *Site {
	r, ok := s.resources[path]
	if !ok {
		panic(fmt.Sprintf("server: SetPush on unknown path %q", path))
	}
	r.Push = append(r.Push[:0], pushed...)
	return s
}

// Lookup returns the resource at path.
func (s *Site) Lookup(path string) (*Resource, bool) {
	r, ok := s.resources[path]
	return r, ok
}

// Paths returns all registered paths, sorted.
func (s *Site) Paths() []string {
	out := make([]string, 0, len(s.resources))
	for p := range s.resources {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// DefaultSite builds the testbed document tree used throughout the
// reproduction: a front page, a set of subresources for page-load and push
// experiments, and large objects for the multiplexing and priority probes
// (the paper places "large web objects" on the testbed server because
// multiplexing is unobservable on small responses).
func DefaultSite(domain string) *Site {
	s := NewSite(domain)
	s.AddPage("/", indexBody(domain))
	s.AddPage("/about.html", "<html><body><h1>About "+domain+"</h1></body></html>")
	s.AddObject("/static/app.js", 24*1024)
	s.AddObject("/static/style.css", 8*1024)
	s.AddObject("/static/logo.png", 16*1024)
	s.AddObject("/static/hero.jpg", 48*1024)
	// The front page carries a push manifest; whether PUSH_PROMISE is ever
	// sent is the profile's decision (Table III row "Server Push").
	s.SetPush("/", "/static/style.css", "/static/app.js")
	// Large objects: several DATA frames each at the default 16 KiB max
	// frame size, so interleaving is observable.
	for i := 1; i <= 8; i++ {
		s.AddObject("/large/"+strconv.Itoa(i), 96*1024)
	}
	// Drain objects sized for the priority probe's window-depletion step.
	s.AddObject("/drain/64k", 64*1024)
	s.AddObject("/drain/16k", 16*1024)
	return s
}

func indexBody(domain string) string {
	return `<html><head>
<title>` + domain + `</title>
<link rel="stylesheet" href="/static/style.css">
<script src="/static/app.js"></script>
</head><body>
<img src="/static/logo.png"><img src="/static/hero.jpg">
<h1>Welcome to ` + domain + `</h1>
</body></html>`
}
