// Package frame is a golden-test double for h2scope/internal/frame: the
// uncheckederr analyzer matches it by package-path suffix.
package frame

// Framer mimics the real Framer's error-returning I/O surface.
type Framer struct{}

// WriteSettings mimics a frame write.
func (f *Framer) WriteSettings() error { return nil }

// WritePing mimics a frame write.
func (f *Framer) WritePing(ack bool) error { return nil }

// Flush mimics pushing coalesced writes to the socket.
func (f *Framer) Flush() error { return nil }

// ReadFrame mimics a frame read.
func (f *Framer) ReadFrame() (any, error) { return nil, nil }

// Reset does not return an error and is never on the critical surface.
func (f *Framer) Reset() {}
