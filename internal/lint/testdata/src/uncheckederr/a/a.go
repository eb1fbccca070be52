// Package a exercises the uncheckederr analyzer: implicit discards of
// critical error returns are flagged, explicit `_ =` discards and handled
// errors pass.
package a

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"h2scope/internal/lint/testdata/src/uncheckederr/internal/frame"
	"h2scope/internal/lint/testdata/src/uncheckederr/internal/h2conn"
	"h2scope/internal/lint/testdata/src/uncheckederr/internal/metrics"
	"h2scope/internal/lint/testdata/src/uncheckederr/internal/store"
)

func bad(nc net.Conn, fr *frame.Framer, hc *h2conn.Conn) {
	nc.SetDeadline(time.Time{})     // want `\(net\.Conn\)\.SetDeadline: error return is silently discarded`
	nc.SetReadDeadline(time.Time{}) // want `\(net\.Conn\)\.SetReadDeadline: error return is silently discarded`
	fr.WriteSettings()              // want `\(\*frame\.Framer\)\.WriteSettings: error return is silently discarded`
	fr.ReadFrame()                  // want `\(\*frame\.Framer\)\.ReadFrame: error return is silently discarded`
	fr.Flush()                      // want `\(\*frame\.Framer\)\.Flush: error return is silently discarded`
	hc.WriteGoAway()                // want `\(\*h2conn\.Conn\)\.WriteGoAway: error return is silently discarded`
	go fr.WritePing(false)          // want `go \(\*frame\.Framer\)\.WritePing: error return is silently discarded`
	defer hc.WriteGoAway()          // want `defer \(\*h2conn\.Conn\)\.WriteGoAway: error return is silently discarded`
	hc.Ping([8]byte{})              // want `\(\*h2conn\.Conn\)\.Ping: error return is silently discarded`
}

func good(nc net.Conn, fr *frame.Framer, hc *h2conn.Conn) error {
	_ = nc.SetDeadline(time.Time{}) // explicit discard is acknowledged
	if err := fr.WriteSettings(); err != nil {
		return err
	}
	id, err := hc.OpenStream() // results consumed
	if err != nil {
		return err
	}
	fr.Reset()             // no error to drop
	fmt.Println("id:", id) // error-returning but not on the critical surface
	return hc.WriteGoAway()
}

func badHTTP(w http.ResponseWriter, body []byte) {
	w.Write(body)       // want `\(http\.ResponseWriter\)\.Write: error return is silently discarded`
	defer w.Write(body) // want `defer \(http\.ResponseWriter\)\.Write: error return is silently discarded`
}

func goodHTTP(w http.ResponseWriter, body []byte) error {
	w.WriteHeader(http.StatusOK) // no error to drop
	if _, err := w.Write(body); err != nil {
		return err
	}
	_, _ = w.Write(body) // explicit discard is acknowledged
	return nil
}

func badPipeline(sw *store.Writer, ds *metrics.DebugServer, rec *store.Record) {
	sw.Append(rec)       // want `\(\*store\.Writer\)\.Append: error return is silently discarded`
	defer sw.Append(rec) // want `defer \(\*store\.Writer\)\.Append: error return is silently discarded`
	ds.Close()           // want `\(\*metrics\.DebugServer\)\.Close: error return is silently discarded`
}

func goodPipeline(sw *store.Writer, ds *metrics.DebugServer, rec *store.Record) error {
	if err := sw.Append(rec); err != nil {
		return err
	}
	_ = sw.Append(rec) // explicit discard is acknowledged
	_ = ds.Addr()      // not on the critical surface
	return ds.Close()
}
