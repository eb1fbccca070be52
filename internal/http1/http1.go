// Package http1 is a minimal HTTP/1.1 origin server and client, built for
// two roles in the reproduction:
//
//   - the HTTP/1.1 request/response RTT estimator of the paper's Fig. 6
//     (which is biased upward by server processing time — the package makes
//     that processing time explicit and configurable), and
//   - the cleartext "Upgrade: h2c" negotiation path of Section IV-A, where
//     a 101 Switching Protocols response hands the connection to HTTP/2.
//
// It intentionally implements only what the experiments need: GET requests,
// Content-Length bodies, and the upgrade dance.
package http1

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"h2scope/internal/server"
)

// Handler serves HTTP/1.1 requests for one site.
type Handler struct {
	// Site is the document tree; shared with the HTTP/2 server.
	Site *server.Site
	// ServerName is the Server response header value.
	ServerName string
	// ProcessingDelay is added before each response is written — the
	// server-side time that inflates HTTP/1.1-based RTT estimates in the
	// paper's Fig. 6.
	ProcessingDelay time.Duration
	// H2C, when non-nil, accepts "Upgrade: h2c" requests: the handler sends
	// 101 Switching Protocols and passes the connection to this HTTP/2
	// server (which then expects the client preface).
	H2C *server.Server
}

// ServeConn serves one connection, honoring keep-alive.
func (h *Handler) ServeConn(nc net.Conn) error {
	defer func() {
		_ = nc.Close()
	}()
	br := bufio.NewReader(nc)
	for {
		req, err := readRequest(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		if h.H2C != nil && strings.EqualFold(req.header("upgrade"), "h2c") {
			if err := writeSwitchingProtocols(nc); err != nil {
				return err
			}
			// Hand off: the HTTP/2 server takes the raw connection, with
			// the buffered reader's remainder (the client preface follows).
			return h.H2C.ServeConn(&bufferedConn{Conn: nc, r: br})
		}
		if h.ProcessingDelay > 0 {
			time.Sleep(h.ProcessingDelay)
		}
		if err := h.respond(nc, req); err != nil {
			return err
		}
		if strings.EqualFold(req.header("connection"), "close") {
			return nil
		}
	}
}

// request is a parsed HTTP/1.1 request head.
type request struct {
	method  string
	path    string
	headers []pair
}

type pair struct{ name, value string }

func (r *request) header(name string) string {
	for _, p := range r.headers {
		if strings.EqualFold(p.name, name) {
			return p.value
		}
	}
	return ""
}

func readRequest(br *bufio.Reader) (*request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	parts := strings.SplitN(line, " ", 3)
	if len(parts) != 3 || !strings.HasPrefix(parts[2], "HTTP/1.") {
		return nil, fmt.Errorf("http1: malformed request line %q", line)
	}
	req := &request{method: parts[0], path: parts[1]}
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return req, nil
		}
		name, value, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("http1: malformed header %q", line)
		}
		req.headers = append(req.headers, pair{strings.TrimSpace(name), strings.TrimSpace(value)})
	}
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func (h *Handler) respond(w io.Writer, req *request) error {
	status := "200 OK"
	contentType := "text/html; charset=utf-8"
	var body []byte
	if res, ok := h.Site.Lookup(req.path); ok {
		contentType = res.ContentType
		body = res.Body
	} else {
		status = "404 Not Found"
		body = []byte("<html><body><h1>404 Not Found</h1></body></html>")
	}
	var sb strings.Builder
	sb.WriteString("HTTP/1.1 " + status + "\r\n")
	sb.WriteString("Server: " + h.ServerName + "\r\n")
	sb.WriteString("Content-Type: " + contentType + "\r\n")
	sb.WriteString("Content-Length: " + strconv.Itoa(len(body)) + "\r\n")
	sb.WriteString("\r\n")
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return fmt.Errorf("http1: writing response head: %w", err)
	}
	if req.method == "HEAD" {
		return nil
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("http1: writing body: %w", err)
	}
	return nil
}

func writeSwitchingProtocols(w io.Writer) error {
	_, err := io.WriteString(w,
		"HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: h2c\r\n\r\n")
	return err
}

// bufferedConn splices a bufio.Reader's unread bytes back in front of the
// raw connection for protocol handoff.
type bufferedConn struct {
	net.Conn
	r *bufio.Reader
}

// Read implements net.Conn using the buffered remainder first.
func (c *bufferedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// RequestRTT estimates RTT the paper's HTTP/1.1 way: the interval between
// writing a GET and receiving the first byte of the response. It issues the
// request over nc and leaves the connection positioned after the response.
func RequestRTT(nc net.Conn, host, path string) (time.Duration, error) {
	req := "GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\nConnection: close\r\n\r\n"
	start := time.Now()
	if _, err := io.WriteString(nc, req); err != nil {
		return 0, fmt.Errorf("http1: writing request: %w", err)
	}
	buf := make([]byte, 1)
	if _, err := nc.Read(buf); err != nil {
		return 0, fmt.Errorf("http1: reading response: %w", err)
	}
	rtt := time.Since(start)
	// Drain the rest so the server can finish cleanly.
	_, _ = io.Copy(io.Discard, nc)
	return rtt, nil
}

// UpgradeH2C sends a cleartext upgrade request and consumes the 101
// response, leaving nc ready for the HTTP/2 client preface. It returns an
// error when the server does not accept the upgrade.
func UpgradeH2C(nc net.Conn, host string) error {
	req := "GET / HTTP/1.1\r\nHost: " + host +
		"\r\nConnection: Upgrade, HTTP2-Settings\r\nUpgrade: h2c\r\nHTTP2-Settings: \r\n\r\n"
	if _, err := io.WriteString(nc, req); err != nil {
		return fmt.Errorf("http1: writing upgrade request: %w", err)
	}
	br := bufio.NewReader(nc)
	line, err := readLine(br)
	if err != nil {
		return fmt.Errorf("http1: reading upgrade response: %w", err)
	}
	if !strings.Contains(line, "101") {
		return fmt.Errorf("http1: upgrade refused: %q", line)
	}
	for {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if line == "" {
			break
		}
	}
	if br.Buffered() > 0 {
		return errors.New("http1: unexpected bytes after 101 response")
	}
	return nil
}
