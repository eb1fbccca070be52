// Package store is a golden-test double for h2scope/internal/store: the
// uncheckederr analyzer matches Writer by package-path suffix.
package store

// Record mimics one census record.
type Record struct{ Domain string }

// Writer mimics the JSON-lines result writer.
type Writer struct{}

// Append mimics a record write.
func (w *Writer) Append(rec *Record) error { return nil }
