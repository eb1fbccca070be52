// Package a exercises the retain analyzer: aliases of recycled ReadFrame
// payloads escaping past the next ReadFrame are flagged; values laundered
// through CopyPayload, string conversions, or byte-wise spread appends pass.
package a

import (
	"h2scope/internal/lint/testdata/src/retain/internal/frame"
)

type sink struct {
	last     frame.Frame
	payload  []byte
	byStream map[uint32][]byte
}

// badStores plants the contract violations: recycled storage landing
// anywhere that outlives the read window.
func badStores(fr *frame.Framer, s *sink, out chan<- []byte) {
	f, err := fr.ReadFrame()
	if err != nil {
		return
	}
	s.last = f // want `recycled frame payload stored in a struct field`
	if d, ok := f.(*frame.DataFrame); ok {
		s.payload = d.Data                // want `stored in a struct field`
		s.byStream[d.H.StreamID] = d.Data // want `stored in a map or slice element`
		out <- d.Data                     // want `sent on a channel`
		go handle(d.Data)                 // want `passed to a goroutine`
		go func() { handle(d.Data) }()    // want `captured by a goroutine closure`
	}
}

// badLoopCarried plants the loop-carried escape: the alias survives into the
// next iteration, past the next ReadFrame.
func badLoopCarried(fr *frame.Framer) {
	var prev []byte
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		d, ok := f.(*frame.DataFrame)
		if !ok {
			continue
		}
		prev = d.Data // want `assigned to a variable that outlives the ReadFrame loop iteration`
		_ = prev
	}
}

// badTypeSwitch plants the escape through the variable a type switch binds,
// the shape h2conn's dispatch has: each clause's f aliases the parameter.
func badTypeSwitch(f frame.Frame, s *sink) {
	switch f := f.(type) {
	case *frame.DataFrame:
		s.payload = f.Data // want `stored in a struct field`
	case *frame.HeadersFrame:
		s.payload = append([]byte(nil), f.Fragment...) // the copy is clean in a clause too
	}
}

// goodCopies shows the sanctioned escapes: deep copies detach from the
// recycled buffer before they land anywhere durable.
func goodCopies(fr *frame.Framer, s *sink, out chan<- []byte) {
	f, err := fr.ReadFrame()
	if err != nil {
		return
	}
	s.last = frame.CopyPayload(f) // CopyPayload launders the alias
	if d, ok := f.(*frame.DataFrame); ok {
		s.payload = append([]byte(nil), d.Data...) // spread append deep-copies the bytes
		s.byStream[d.H.StreamID] = append([]byte(nil), d.Data...)
		out <- append([]byte(nil), d.Data...)
		key := string(d.Data) // string conversion copies
		_ = key
		n := d.H.Length // scalar field copies by value
		_ = n
	}
}

// goodLoopLocal keeps every alias inside the iteration that read it.
func goodLoopLocal(fr *frame.Framer) {
	var total uint32
	for {
		f, err := fr.ReadFrame()
		if err != nil {
			return
		}
		if d, ok := f.(*frame.DataFrame); ok {
			data := d.Data // loop-local alias dies with the iteration
			total += uint32(len(data))
		}
	}
}

// suppressedStore shows the escape hatch for a reviewed, deliberate
// retention: the directive must name the analyzer and carry a reason.
func suppressedStore(fr *frame.Framer, s *sink) {
	f, err := fr.ReadFrame()
	if err != nil {
		return
	}
	//h2lint:ignore retain single-frame framer; nothing overwrites the buffer after this read
	s.last = f
}

func handle([]byte) {}
